"""V-ETL benchmark: workloads, correctness gates and the traced run.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See README.md.
"""
