"""Contract between ``perfbench/`` and the program names it patches.

The benchmark measures layers by replacing ``repro`` functions with
timing wrappers, found by module and attribute name
(``perfbench/instrument.py``), and it reads the knob switcher's
decisions by wrapping ``repro.sim.ingest.finalize``
(``perfbench/etl.py``).  A refactor that moves or renames one of those
names would silently zero a metric; these counts catch it.
"""
from __future__ import annotations

import numpy as np
import pytest

from perfbench import instrument
from perfbench.trace import Tracer

N_DAYS = 0.02  # 864 COVID segments


@pytest.fixture(scope="module")
def traces(covid):
    train = covid.content(seed=0, n_days=1.0)
    test = covid.content(seed=0, n_days=N_DAYS, start_day=2.0)
    return train, test


def run_queue_methods(covid, fitted, cluster, train, test) -> None:
    from repro.baselines import chameleon, static, videostorm
    from repro.sim import ingest

    ingest.run_skyscraper(covid, fitted, cluster, test, seed=0)
    for run in (static.run_static, chameleon.run_chameleon,
                videostorm.run_videostorm):
        run(covid, cluster, test, train, seed=0)


def test_install_sim_counts(covid, covid_fit, cluster8, traces):
    train, test = traces
    n = test.n_segments
    assert n == 864
    tracer = Tracer()
    instrument.install_sim(tracer)
    try:
        run_queue_methods(covid, covid_fit, cluster8, train, test)
    finally:
        tracer.restore()
    assert tracer.n_calls("sim.ingest.queue_step") == 4 * n
    assert tracer.n_calls("core.switcher.choose") == n
    assert tracer.n_calls("core.switcher.classify") == n
    assert tracer.n_calls("sim.ingest.prepare") == 4
    assert tracer.n_calls("sim.ingest.build_placement_tables") == 4


def test_finalize_wrapper_sees_chosen_k(covid, covid_fit, cluster8, traces):
    from repro.sim import ingest

    _, test = traces
    captured = []
    finalize = ingest.finalize

    def capture(*a, chosen_k, **kw):
        captured.append(np.asarray(chosen_k).copy())
        return finalize(*a, chosen_k=chosen_k, **kw)

    ingest.finalize = capture
    try:
        ingest.run_skyscraper(covid, covid_fit, cluster8, test, seed=0)
    finally:
        ingest.finalize = finalize
    assert len(captured) == 1
    assert captured[0].shape == (test.n_segments,)
