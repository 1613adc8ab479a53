"""Reproduce Table 5 (forecast MAE vs horizon, Section 5.6 / App. I.3).

Usage: python jobs/run_table5.py [--out results/table5.csv]
"""
from _session import run_job  # the script's directory is on sys.path

from repro.exp.table5 import TABLE5

if __name__ == "__main__":
    run_job(TABLE5)
