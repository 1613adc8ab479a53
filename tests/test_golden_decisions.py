"""Golden per-segment decisions of every online method.

Each run's ``RunResult.to_row()`` and a sha256 of its per-segment
configuration choices (``chosen_k``) must equal the committed fixture
``tests/golden/decisions.json`` exactly.  A change to the decision loop,
the switcher or the baselines that is meant to be a pure refactor must
leave the fixture untouched.

``chosen_k`` is captured by wrapping ``repro.sim.ingest.finalize``:
every method's run goes through ``simulate``, which calls it once.

Regenerate (only when a decision change is intended, and say why in
CHANGES.md)::

    PYTHONPATH=src python -m tests.test_golden_decisions --write

``--write`` prints every value that moves (``cell: field old -> new``)
before it writes.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np
import pytest

from repro.workloads import ALL_WORKLOADS

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "decisions.json")
TRAIN_DAYS, TEST_DAYS = 2.0, 0.25
METHODS = ("skyscraper", "static", "chameleon", "videostorm", "optimum")
SKYSCRAPER_VARIANTS = {
    "no_cloud": {"enable_cloud": False},
    "no_buffer": {"enable_buffer": False},
}
# runs longer than one planning interval (0.25 days): the planner reads
# the histograms the switcher recorded online, and COVID's 8 plans trim
# that history to the forecaster's horizon
REPLAN_TEST_DAYS = {"covid": 2.0, "mosei-high": 1.0}


def cells() -> dict[str, dict]:
    """Run id -> ``repro.exp.runs.run_one`` parameters."""
    out = {}
    for wl in ALL_WORKLOADS:
        for vcpus in (4, 8):
            for method in METHODS:
                out[f"{wl}/{vcpus}/{method}"] = {
                    "workload": wl, "method": method, "vcpus": vcpus}
    for name, extra in SKYSCRAPER_VARIANTS.items():
        out[f"covid/8/skyscraper/{name}"] = {
            "workload": "covid", "method": "skyscraper", "vcpus": 8, **extra}
    for p in out.values():
        p.update(seed=0, train_days=TRAIN_DAYS, test_days=TEST_DAYS)
    for wl, days in REPLAN_TEST_DAYS.items():
        out[f"{wl}/8/skyscraper/replan"] = {
            "workload": wl, "method": "skyscraper", "vcpus": 8, "seed": 0,
            "train_days": TRAIN_DAYS, "test_days": days}
    return out


@contextlib.contextmanager
def capture_chosen():
    """Collect the ``chosen_k`` of every ``finalize`` call."""
    from repro.sim import ingest

    chosen: list[np.ndarray] = []
    orig = ingest.finalize

    def capture(*a, chosen_k, **kw):
        chosen.append(np.asarray(chosen_k, dtype=np.int64).copy())
        return orig(*a, chosen_k=chosen_k, **kw)

    ingest.finalize = capture
    try:
        yield chosen
    finally:
        ingest.finalize = orig


def jsonable(row: dict) -> dict:
    return {k: v.item() if hasattr(v, "item") else v for k, v in row.items()}


@functools.lru_cache(maxsize=None)
def artifact(key: tuple):
    """A cell's offline artifact, built once per key as a sweep does."""
    from repro.exp.runs import build_artifact

    return build_artifact(key)


def run_cell(params: dict) -> dict:
    from repro.exp.runs import artifact_key, run_one

    art = artifact(artifact_key(params))
    with capture_chosen() as chosen:
        row = run_one({**params, "artifact": art})
    assert len(chosen) == 1, f"{len(chosen)} finalize calls"
    return {"row": jsonable(row),
            "chosen_k_sha256": hashlib.sha256(chosen[0].tobytes()).hexdigest()}


def streaming_history() -> list[dict]:
    """``StreamingSwitcher`` decisions over a 0.02-day COVID trace fed in
    64-segment batches, planned on the same fit as the COVID runs."""
    from repro.core.planner import make_plan
    from repro.etl.streaming import StreamingSwitcher
    from repro.sim.cluster import make_cluster
    from repro.video.stream import trace_to_pandas
    from repro.workloads import get_workload

    wl = get_workload("covid")
    fitted = artifact(("covid", 0, TRAIN_DAYS, None))
    alpha = make_plan(fitted, fitted.train_hists, make_cluster(8),
                      interval_s=3600.0, cloud_budget_usd=0.0).alpha
    sw = StreamingSwitcher(wl=wl, fitted=fitted, alpha=alpha, seed=0)
    pdf = trace_to_pandas(
        wl, wl.content(seed=0, n_days=0.02, start_day=TRAIN_DAYS))
    for lo in range(0, len(pdf), 64):
        sw.process_batch(pdf.iloc[lo : lo + 64])
    return [jsonable(h) for h in sw.history]


def same(got, want) -> bool:
    """Exact equality, NaN equal to NaN."""
    if isinstance(want, float) and isinstance(got, float):
        return got == want or (math.isnan(got) and math.isnan(want))
    return type(got) is type(want) and got == want


def load() -> dict:
    with open(FIXTURE) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def golden() -> dict:
    return load()


def test_fixture_covers_every_cell(golden):
    assert sorted(golden["runs"]) == sorted(cells())


@pytest.mark.parametrize("cell", sorted(cells()))
def test_run_matches_golden(golden, cell):
    got = run_cell(cells()[cell])
    want = golden["runs"][cell]
    assert got["chosen_k_sha256"] == want["chosen_k_sha256"]
    diff = {k: (got["row"].get(k), v) for k, v in want["row"].items()
            if not same(got["row"].get(k), v)}
    assert not diff
    assert sorted(got["row"]) == sorted(want["row"])


def test_streaming_switcher_matches_golden(golden):
    assert streaming_history() == golden["streaming"]


def changes(old: dict, new: dict) -> list[str]:
    """One ``cell: field old -> new`` line per fixture value that moves,
    ``chosen_k_sha256`` included."""
    lines = []
    for cell in sorted(set(old["runs"]) | set(new["runs"])):
        a, b = old["runs"].get(cell), new["runs"].get(cell)
        if a is None or b is None:
            lines.append(f"{cell}: {'added' if a is None else 'deleted'}")
            continue
        a = {**a["row"], "chosen_k_sha256": a["chosen_k_sha256"]}
        b = {**b["row"], "chosen_k_sha256": b["chosen_k_sha256"]}
        lines += [f"{cell}: {k} {a.get(k)!r} -> {b.get(k)!r}"
                  for k in sorted(set(a) | set(b))
                  if not same(b.get(k), a.get(k))]
    if old["streaming"] != new["streaming"]:
        lines.append("streaming: history changed")
    return lines


def write() -> None:
    out = {"runs": {c: run_cell(p) for c, p in sorted(cells().items())},
           "streaming": streaming_history()}
    old = load() if os.path.exists(FIXTURE) else {"runs": {},
                                                   "streaming": None}
    for line in changes(old, out):
        print(line)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_decisions --write")
    write()
