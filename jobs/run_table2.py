"""Reproduce Table 2 (cost-quality trade-offs, Section 5.3 / Appendix C).

Usage: python jobs/run_table2.py [--out results/table2.csv]
"""
from _session import run_job  # the script's directory is on sys.path

from repro.exp.table2 import TABLE

if __name__ == "__main__":
    run_job(TABLE)
