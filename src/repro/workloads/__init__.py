"""Workload registry for the four benchmark workloads of the paper."""
from repro.workloads.base import (  # noqa: F401
    Config,
    KnobSpec,
    TaskGraph,
    TaskNode,
    Workload,
)
from repro.workloads.covid import CovidWorkload
from repro.workloads.mosei import MoseiWorkload
from repro.workloads.mot import MotWorkload


def get_workload(name: str) -> Workload:
    """Instantiate a workload by its evaluation-section name."""
    if name == "covid":
        return CovidWorkload()
    if name == "mot":
        return MotWorkload()
    if name == "mosei-high":
        return MoseiWorkload("high")
    if name == "mosei-long":
        return MoseiWorkload("long")
    raise KeyError(f"unknown workload {name!r}")


ALL_WORKLOADS = ("covid", "mot", "mosei-high", "mosei-long")
