"""Reproduce Table 3 (offline-phase runtimes, Section 5.5 / Appendix E).

Usage: python jobs/run_table3.py [--out results/table3.csv]
"""
from _session import run_job  # the script's directory is on sys.path

from repro.exp.table3 import TABLE

if __name__ == "__main__":
    run_job(TABLE)
