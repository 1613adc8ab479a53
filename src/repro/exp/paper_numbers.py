"""The paper's published numbers, transcribed for EXPERIMENTS.md diffs.

Table 2 (Appendix C): quality % and costs per workload/method/machine.
Table 3 (Appendix E): offline-phase step runtimes (COVID).
Table 4 (Appendix I.1): knob-switcher accuracy vs number of categories.
Table 5 (Appendix I.3): forecast MAE vs horizon.
Table 6 (Appendix I.3): forecast MAE vs input featurization.
"""
from __future__ import annotations

import pandas as pd

# (workload, method, quality %, vcpus, cloud cost $, total cost $)
PAPER_TABLE2_ROWS = [
    ("covid", "static", 35, 4, None, 14.9),
    ("covid", "static", 35, 8, None, 28.8),
    ("covid", "static", 81, 16, None, 57.6),
    ("covid", "static", 81, 32, None, 114.1),
    ("covid", "static", 97, 60, None, 267.7),
    ("covid", "chameleon", 37, 4, None, 14.9),
    ("covid", "chameleon", 50, 8, None, 28.8),
    ("covid", "chameleon", 74, 16, None, 57.6),
    ("covid", "chameleon", 91, 32, None, 114.1),
    ("covid", "skyscraper", 90, 4, 0.0, 14.9),
    ("covid", "skyscraper", 94, 8, 3.3, 32.1),
    ("mot", "static", 36, 4, None, 14.9),
    ("mot", "static", 79, 8, None, 28.8),
    ("mot", "static", 81, 16, None, 57.6),
    ("mot", "static", 81, 32, None, 114.1),
    ("mot", "static", 97, 60, None, 267.7),
    ("mot", "chameleon", 72, 4, None, 14.9),
    ("mot", "chameleon", 83, 8, None, 28.8),
    ("mot", "chameleon", 89, 16, None, 57.6),
    ("mot", "chameleon", 92, 32, None, 114.1),
    ("mot", "skyscraper", 94, 4, 0.0, 14.9),
    ("mot", "skyscraper", 97, 8, 2.0, 30.8),
    ("mosei-high", "static", 8, 4, None, 3.7),
    ("mosei-high", "static", 8, 8, None, 7.2),
    ("mosei-high", "static", 28, 16, None, 14.4),
    ("mosei-high", "static", 36, 32, None, 28.5),
    ("mosei-high", "static", 51, 60, None, 66.9),
    ("mosei-high", "chameleon", 8, 4, None, 3.7),
    ("mosei-high", "chameleon", 21, 8, None, 7.2),
    ("mosei-high", "chameleon", 32, 16, None, 14.4),
    ("mosei-high", "chameleon", 37, 32, None, 28.5),
    ("mosei-high", "chameleon", 55, 60, None, 66.9),
    ("mosei-high", "skyscraper", 30, 4, 0.0, 3.7),
    ("mosei-high", "skyscraper", 38, 8, 0.0, 7.2),
    ("mosei-high", "skyscraper", 45, 16, 0.0, 14.4),
    ("mosei-high", "skyscraper", 59, 32, 0.0, 28.5),
    ("mosei-high", "skyscraper", 80, 60, 0.0, 66.9),
    ("mosei-long", "static", 30, 4, None, 3.7),
    ("mosei-long", "static", 30, 8, None, 7.2),
    ("mosei-long", "static", 38, 16, None, 14.4),
    ("mosei-long", "static", 38, 32, None, 28.5),
    ("mosei-long", "static", 65, 60, None, 66.9),
    ("mosei-long", "chameleon", 30, 4, None, 3.7),
    ("mosei-long", "chameleon", 31, 8, None, 7.2),
    ("mosei-long", "chameleon", 39, 16, None, 14.4),
    ("mosei-long", "chameleon", 52, 32, None, 28.5),
    ("mosei-long", "chameleon", 68, 60, None, 66.9),
    ("mosei-long", "skyscraper", 37, 4, 1.7, 5.4),
    ("mosei-long", "skyscraper", 53, 8, 3.3, 10.5),
    ("mosei-long", "skyscraper", 62, 16, 6.5, 20.9),
    ("mosei-long", "skyscraper", 72, 32, 12.9, 41.4),
]


def paper_table2() -> pd.DataFrame:
    return pd.DataFrame(
        PAPER_TABLE2_ROWS,
        columns=[
            "workload",
            "method",
            "paper_quality_pct",
            "vcpus",
            "paper_cloud_usd",
            "paper_total_usd",
        ],
    )


# Table 3: offline step, in the paper's order -> paper runtime in minutes
# (COVID, 2x c2-standard-60)
PAPER_TABLE3_MINUTES = {
    "filter_knob_configs": 6.0,
    "filter_task_placements": 4.0,
    "compute_content_categories": 5.0,
    "create_forecast_training_data": 78.0,  # 1.3 h
    "train_forecast_model": 1.0,
}

# Table 4: number of categories -> switcher accuracy % (COVID)
PAPER_TABLE4 = {1: 100.0, 2: 98.8, 3: 97.9, 4: 97.2, 8: 95.9}

# Table 5: forecast horizon (days) -> MAE
PAPER_TABLE5 = {
    "covid": {1: 0.097, 2: 0.042, 4: 0.066, 8: 0.149},
    "mot": {1: 0.108, 2: 0.064, 4: 0.133, 8: 0.185},
}

# Table 6: (input days, splits) -> MAE (COVID, 2-day horizon)
PAPER_TABLE6 = {
    (0.5, 1): 0.055, (0.5, 2): 0.169, (0.5, 4): 0.179, (0.5, 8): 0.052,
    (1, 1): 0.056, (1, 2): 0.112, (1, 4): 0.107, (1, 8): 0.048,
    (2, 1): 0.057, (2, 2): 0.163, (2, 4): 0.146, (2, 8): 0.042,
    (4, 1): 0.057, (4, 2): 0.165, (4, 4): 0.140, (4, 8): 0.051,
    (8, 1): 0.062, (8, 2): 0.056, (8, 4): 0.137, (8, 8): 0.048,
}
