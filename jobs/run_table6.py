"""Reproduce Table 6 (forecast MAE vs featurization, App. I.3).

Usage: python jobs/run_table6.py [--out results/table6.csv]
"""
from _session import run_job  # the script's directory is on sys.path

from repro.exp.table5 import TABLE6

if __name__ == "__main__":
    run_job(TABLE6)
