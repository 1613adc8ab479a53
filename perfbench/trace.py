"""In-memory span tracer that wraps the program's public functions.

Nothing in ``src/`` is instrumented: the benchmark replaces a function
by a timing wrapper at every place it is looked up (a module attribute,
or a class attribute for methods) and restores the originals afterwards.
Names imported with ``from x import f`` are looked up in the importing
module, so each such module is patched as well.

Two kinds of records:

* spans: ``(id, name, parent id, start, end)``, one per call, for calls
  at layer boundaries (a fit, a run, a Spark stage);
* aggregates: per-segment calls (``classify``, ``choose``, the
  ``feasible`` predicate, ``SegmentQueue.step``) run hundreds of
  thousands of times, so they are folded into ``count`` and total time
  under the name of their parent span.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def parent_name(self) -> str:
        st = self._stack()
        return st[-1][1] if st else "root"

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        st = self._stack()
        sid = next(self._ids)
        parent = st[-1][0] if st else None
        st.append((sid, name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            st.pop()
            with self._lock:
                self.spans.append({"id": sid, "name": name, "parent": parent,
                                   "start": t0, "end": t1})

    def call_span(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def call_agg(self, name: str, fn, *args, **kwargs):
        parent = self.parent_name()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            with self._lock:
                rec = self.agg[(parent, name)]
                rec[0] += 1
                rec[1] += dt

    def count(self, name: str, n: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += n

    # -- patching --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, aggregate: bool = False,
             wrapper_factory=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``wrapper_factory(orig)`` may supply a custom wrapper body; it is
        still recorded under ``name``.
        """
        orig = getattr(owner, attr)
        body = wrapper_factory(orig) if wrapper_factory else orig
        record = self.call_agg if aggregate else self.call_span

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            return record(name, body, *args, **kwargs)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries -------------------------------------------------------
    def total_s(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def n_calls(self, name: str) -> int:
        n = sum(1 for s in self.spans if s["name"] == name)
        return n + sum(v[0] for (p, nm), v in self.agg.items() if nm == name)

    def dump(self, path: str, extra: dict | None = None) -> None:
        by_id = {s["id"]: s for s in self.spans}
        out = {
            "spans": [
                dict(s, parent_name=by_id[s["parent"]]["name"]
                     if s["parent"] in by_id else None)
                for s in sorted(self.spans, key=lambda s: s["start"])
            ],
            "aggregates": [
                {"parent": p, "name": n, "count": c, "total_s": t}
                for (p, n), (c, t) in sorted(self.agg.items())
            ],
            "counters": dict(self.counters),
        }
        if extra:
            out.update(extra)
        with open(path, "w") as f:
            json.dump(out, f, indent=1, default=float)
