"""Where each layer's public functions are looked up, and how to wrap them.

``install_sim(tracer)`` covers content generation, the offline fit, the
ingestion simulator, the planner, the knob switcher and the baselines.
``install_etl(tracer)`` covers the driver side of the streaming job.
Both patch every module that imported a name with ``from x import f``.
"""
from __future__ import annotations

import threading


def _modules(*names):
    import importlib

    return [importlib.import_module(n) for n in names]


def install_sim(tracer) -> None:
    import repro.workloads.base as base
    from repro.core import planner, switcher
    from repro.sim import ingest

    # content generation: Workload.content looks ``generate`` up in base
    def gen_factory(orig):
        def body(*a, **kw):
            tr = orig(*a, **kw)
            tracer.count("video.content.segments", tr.n_segments)
            return tr

        return body

    tracer.wrap(base, "generate", "video.content", wrapper_factory=gen_factory)

    def fit_factory(orig):
        def body(*a, **kw):
            fitted = orig(*a, **kw)
            for step, s in fitted.timings.items():
                tracer.count(f"core.fit.{step}_s", s)
            tracer.count("core.fit.calls")
            return fitted

        return body

    for m in _modules("repro.core.fit", "repro.exp.runs"):
        tracer.wrap(m, "fit_skyscraper", "core.fit", wrapper_factory=fit_factory)

    users = ("repro.sim.ingest", "repro.baselines.static",
             "repro.baselines.chameleon", "repro.baselines.videostorm",
             "repro.baselines.optimum")
    for m in _modules(*users):
        if hasattr(m, "prepare"):
            tracer.wrap(m, "prepare", "sim.ingest.prepare")
        if hasattr(m, "build_placement_tables"):
            tracer.wrap(m, "build_placement_tables",
                        "sim.ingest.build_placement_tables")
    for m in (planner, ingest):
        tracer.wrap(m, "make_plan", "core.planner.make_plan")

    def sky_factory(orig):
        def body(wl, fitted, cluster, trace, **kw):
            tracer.count("sim.skyscraper.segments", trace.n_segments)
            return orig(wl, fitted, cluster, trace, **kw)

        return body

    for m in _modules("repro.sim.ingest", "repro.exp.runs"):
        tracer.wrap(m, "run_skyscraper", "sim.ingest.run_skyscraper",
                    wrapper_factory=sky_factory)
    for method in ("static", "chameleon", "videostorm"):
        fn = f"run_{method}"

        def base_factory(orig, method=method):
            def body(wl, cluster, trace, *a, **kw):
                tracer.count(f"baselines.{method}.segments", trace.n_segments)
                return orig(wl, cluster, trace, *a, **kw)

            return body

        for m in _modules(f"repro.baselines.{method}", "repro.exp.runs"):
            tracer.wrap(m, fn, f"baselines.{method}",
                        wrapper_factory=base_factory)
    from repro.baselines import static

    tracer.wrap(static, "best_static_config",
                "baselines.static.best_static_config")

    # per-segment calls: aggregated under their parent span
    ks = switcher.KnobSwitcher
    last_pick = threading.local()

    def pick_factory(orig):
        def body(self, category):
            k = orig(self, category)
            last_pick.k = k
            return k

        return body

    def choose_factory(orig):
        def body(self, category, feasible):
            def counted(k, p):
                return tracer.call_agg("core.switcher.feasible", feasible, k, p)

            k, p = orig(self, category, counted)
            tracer.count("core.switcher.decisions")
            if getattr(last_pick, "k", None) == k:
                tracer.count("core.switcher.plan_followed")
            return k, p

        return body

    tracer.wrap(ks, "classify", "core.switcher.classify", aggregate=True)
    tracer.wrap(ks, "pick_config", "core.switcher.pick_config",
                aggregate=True, wrapper_factory=pick_factory)
    tracer.wrap(ks, "choose", "core.switcher.choose", aggregate=True,
                wrapper_factory=choose_factory)
    tracer.wrap(ingest.SegmentQueue, "step", "sim.ingest.queue_step",
                aggregate=True)


def install_etl(tracer) -> None:
    from repro.etl import streaming

    tracer.wrap(streaming.StreamingSwitcher, "process_batch",
                "etl.streaming.process_batch")


def sim_layers(summary: dict) -> dict:
    """Per-layer metrics of the simulation layers from a tracer summary
    (``{name: [count, seconds]}``, see :func:`summarize`)."""

    def n(name):
        return summary.get(name, [0, 0.0])[0]

    def s(name):
        return summary.get(name, [0, 0.0])[1]

    def c(name):  # counters are stored as [value, value]
        return summary.get(name, [0, 0.0])[1]

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    out = {
        "video.content.s": s("video.content"),
        "video.content.segments": int(c("video.content.segments")),
    }
    for step in ("filter_knob_configs", "filter_task_placements",
                 "compute_content_categories",
                 "create_forecast_training_data", "train_forecast_model"):
        out[f"core.fit.{step}_s"] = c(f"core.fit.{step}_s")
    out.update({
        "core.fit.calls": int(c("core.fit.calls")),
        "sim.ingest.prepare_s": s("sim.ingest.prepare"),
        "sim.ingest.prepare.calls": n("sim.ingest.prepare"),
        "sim.ingest.build_placement_tables_s":
            s("sim.ingest.build_placement_tables"),
        "sim.ingest.build_placement_tables.calls":
            n("sim.ingest.build_placement_tables"),
        "core.planner.make_plan_ms":
            per(s("core.planner.make_plan"), n("core.planner.make_plan"), 1e3),
        "core.planner.make_plan.calls": n("core.planner.make_plan"),
        "core.switcher.choose_us":
            per(s("core.switcher.choose"), n("core.switcher.choose"), 1e6),
        "core.switcher.classify.calls_per_seg":
            per(n("core.switcher.classify"), c("sim.skyscraper.segments")),
        "core.switcher.feasible_calls_per_decision":
            per(n("core.switcher.feasible"), c("core.switcher.decisions")),
        "core.switcher.plan_followed_ratio":
            per(c("core.switcher.plan_followed"), c("core.switcher.decisions")),
        "sim.ingest.queue_steps": n("sim.ingest.queue_step"),
        "baselines.static.best_static_config_s":
            s("baselines.static.best_static_config"),
    })
    for m in ("static", "chameleon", "videostorm"):
        out[f"baselines.{m}.us_per_seg"] = per(
            s(f"baselines.{m}"), c(f"baselines.{m}.segments"), 1e6)
    return out


def summarize(tracer) -> dict:
    """Fold spans, aggregates and counters into ``{name: [count, s]}``."""
    out: dict[str, list] = {}
    for sp in tracer.spans:
        rec = out.setdefault(sp["name"], [0, 0.0])
        rec[0] += 1
        rec[1] += sp["end"] - sp["start"]
    for (_, name), (cnt, tot) in tracer.agg.items():
        rec = out.setdefault(name, [0, 0.0])
        rec[0] += cnt
        rec[1] += tot
    for name, v in tracer.counters.items():
        out[name] = [v, v]
    return out


def merge(into: dict, other: dict) -> dict:
    for name, (cnt, tot) in other.items():
        rec = into.setdefault(name, [0, 0.0])
        rec[0] += cnt
        rec[1] += tot
    return into
