"""Spark session life cycle for the Spark workloads.

Nothing here starts Spark on import.  ``SparkEnv.launch()`` starts the
JVM once; ``SparkEnv.session()`` creates a SparkSession and warms one
Python worker per slot (imports the program), so JVM and worker
warm-up are paid in set-up and not in the timed work.  ``close()``
stops the session, shuts the gateway down and waits for the JVM (and
with it the Python workers) to exit.
"""
from __future__ import annotations

import os
import sys
import threading
import time


def _identity(batches):
    yield from batches


def _warm_worker(_it):
    import repro.cv.ops  # noqa: F401
    import repro.etl.transform  # noqa: F401
    import repro.exp.runs  # noqa: F401

    return [os.getpid()]


class SparkEnv:
    def __init__(self, run, *, driver_memory: str = "2g") -> None:
        self.run = run
        self.slots = max(1, min(4, os.cpu_count() or 1))
        self.master = f"local[{self.slots}]"
        self.spark = None
        tmp = os.path.join(run.work, "tmp")
        os.makedirs(tmp, exist_ok=True)
        paths = [os.path.join(run.root, "src"), run.root]
        os.environ["PYTHONPATH"] = os.pathsep.join(paths)
        os.environ["PYSPARK_PYTHON"] = sys.executable
        os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
        os.environ["TMPDIR"] = tmp
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {self.master} --driver-memory {driver_memory} "
            f"--driver-java-options -Djava.io.tmpdir={tmp} pyspark-shell"
        )
        run.spark_master = self.master
        run.resources.append(self)

    def launch(self) -> float:
        """Start the JVM gateway; returns seconds taken."""
        import tempfile

        from pyspark import SparkContext

        tempfile.tempdir = None  # re-read TMPDIR
        t0 = time.perf_counter()
        SparkContext._ensure_initialized()
        return time.perf_counter() - t0

    def session(self, warm=None, **conf) -> float:
        """(Re)create the session, warm one worker per slot, then run
        ``warm(self)`` or, without one, a trivial pandas UDF job."""
        from pyspark.sql import SparkSession

        self.stop_session()
        t0 = time.perf_counter()
        b = (
            SparkSession.builder.appName(f"perfbench-{self.run.workload}")
            .master(self.master)
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.local.dir", os.path.join(self.run.work, "tmp"))
            .config("spark.sql.warehouse.dir",
                    os.path.join(self.run.work, "warehouse"))
        )
        for k, v in conf.items():
            b = b.config(k, v)
        self.spark = b.getOrCreate()
        self.spark.sparkContext.setLogLevel("ERROR")
        sc = self.spark.sparkContext
        sc.parallelize(range(self.slots), self.slots).mapPartitions(
            _warm_worker).collect()
        if warm is not None:
            warm(self)
        else:  # the Arrow/pandas UDF path every workload uses
            import pandas as pd

            pdf = pd.DataFrame({"i": range(4 * self.slots)})
            self.spark.createDataFrame(pdf).repartition(self.slots, "i") \
                .mapInPandas(_identity, schema="i long").collect()
        return time.perf_counter() - t0

    def setup(self, warm=None) -> float:
        """setup_s: JVM launch plus one session set-up; the session stays
        up for the timed work.  (A second set-up per run would cost 7-12 s,
        more than the benchmark's time budget allows.)"""
        jvm = self.launch()
        session = self.session(warm)
        self.run.note("jvm_launch_s", jvm, "s")
        self.run.note("session_setup_s", session, "s")
        return jvm + session

    def stop_session(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None

    def close(self) -> None:
        from pyspark import SparkContext

        self.stop_session()
        gw = SparkContext._gateway
        if gw is None:
            return
        proc = getattr(gw, "proc", None)
        try:
            gw.shutdown()
        finally:
            SparkContext._gateway = None
            SparkContext._jvm = None
            if proc is not None:
                if proc.stdin:
                    proc.stdin.close()
                try:
                    proc.wait(timeout=30)
                except Exception:
                    proc.kill()
                    proc.wait(timeout=10)


class SlotPoller:
    """Samples busy task slots from the Spark driver while a job runs."""

    def __init__(self, sc, slots: int, period_s: float = 0.05) -> None:
        self.sc, self.slots, self.period = sc, slots, period_s
        self.samples: list[tuple[float, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        st = self.sc.statusTracker()
        while not self._stop.is_set():
            busy = 0
            for sid in st.getActiveStageIds():
                info = st.getStageInfo(sid)
                if info is not None:
                    busy += info.numActiveTasks
            self.samples.append((time.perf_counter(), busy))
            self._stop.wait(self.period)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        return False

    def utilization(self, t0: float, t1: float) -> tuple[float, float]:
        """(mean busy slots / slots over [t0, t1], tail seconds: time
        from the last sample with every slot busy to ``t1``)."""
        xs = [(t, b) for t, b in self.samples if t0 <= t <= t1]
        if not xs:
            return 0.0, 0.0
        util = sum(min(b, self.slots) for _, b in xs) / (len(xs) * self.slots)
        full = [t for t, b in xs if b >= self.slots]
        tail = t1 - (full[-1] if full else t0)
        return util, tail


def tree_rss_bytes(root_pid: int) -> tuple[int, int]:
    """Summed resident memory of ``root_pid`` and all its descendants,
    read from /proc, as (Python and other processes, JVM processes);
    (0, 0) where /proc is unavailable."""
    children: dict[int, list[int]] = {}
    rss: dict[int, tuple[bool, int]] = {}
    try:
        pids = [int(d) for d in os.listdir("/proc") if d.isdigit()]
    except OSError:
        return 0, 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as f:
                stat = f.read()
            with open(f"/proc/{pid}/statm") as f:
                pages = int(f.read().split()[1])
            comm, rest = stat.rsplit(")", 1)
            ppid = int(rest.split()[1])
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
        rss[pid] = (comm.endswith("(java"), pages)
        children.setdefault(ppid, []).append(pid)
    other = jvm = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        is_jvm, pages = rss.get(pid, (False, 0))
        if is_jvm:
            jvm += pages
        else:
            other += pages
        todo.extend(children.get(pid, ()))
    page = os.sysconf("SC_PAGE_SIZE")
    return other * page, jvm * page


class TreeRssPeak:
    """Peak resident memory of this process and every process it started,
    sampled while the ``with`` body runs.  ``peak_mb`` covers the Python
    processes (this driver, pyspark's daemon and its workers, which run
    the program's code); ``jvm_peak_mb`` covers the JVM, whose heap
    follows Spark's garbage collector and is reported apart."""

    def __init__(self, period_s: float = 0.1) -> None:
        self.period = period_s
        self.peak = self.jvm_peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            other, jvm = tree_rss_bytes(pid)
            self.peak = max(self.peak, other)
            self.jvm_peak = max(self.jvm_peak, jvm)
            self._stop.wait(self.period)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        return False

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20

    @property
    def jvm_peak_mb(self) -> float:
        return self.jvm_peak / 2**20
