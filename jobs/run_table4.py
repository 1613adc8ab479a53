"""Reproduce Table 4 (switcher accuracy vs category count, Section 5.6).

Usage: python jobs/run_table4.py [--out results/table4.csv]
"""
from _session import run_job  # the script's directory is on sys.path

from repro.exp.table4 import TABLE

if __name__ == "__main__":
    run_job(TABLE)
