"""Hardware provisioning model: on-premise cores, buffer, cloud, prices.

The paper provisions workloads with Google Cloud VMs standing in for
on-premise servers (Section 5.3) plus AWS Lambda for cloud bursting, and
prices everything with the cost model of Appendix L:

* on-premise $/h  =  Google-Cloud VM price / 1.8 (cloud-to-on-premise
  total-cost-of-ownership ratio derived in Appendix L),
* AWS Lambda 3 GB (2 vCPUs) = 130.78 USD per always-on month
  (744 h), i.e. 2.44e-5 USD per cloud core-second — 1.8x the on-premise
  core-second on the reference server.

All Table 2 cost columns follow from this model plus the simulated cloud
core-seconds.
"""
from __future__ import annotations

from dataclasses import dataclass

# Google Cloud machines used in Section 5.3: name -> (vCPUs, USD/hour).
GC_MACHINES: dict[str, tuple[int, float]] = {
    "e2-standard-4": (4, 0.14),
    "e2-standard-8": (8, 0.27),
    "e2-standard-16": (16, 0.54),
    "e2-standard-32": (32, 1.07),
    "c2-standard-60": (60, 2.51),
}

CLOUD_TO_ONPREM_RATIO = 1.8  # Appendix L
LAMBDA_USD_PER_MONTH = 130.78  # 3 GB Lambda, always-on month (App. L)
LAMBDA_CORES = 2
HOURS_PER_MONTH = 744.0
CLOUD_USD_PER_CORE_S = LAMBDA_USD_PER_MONTH / (
    HOURS_PER_MONTH * 3600.0 * LAMBDA_CORES
)


@dataclass(frozen=True)
class Cluster:
    """One hardware provisioning: local cores + buffer + cloud uplink."""

    n_cores: int
    vm_usd_per_hour: float
    buffer_bytes: float = 4e9  # 4 GB video buffer (Section 2, Figure 3)
    uplink_bps: float = 25e6 * 8  # 200 Mbit/s commodity uplink
    downlink_bps: float = 50e6 * 8
    cloud_usd_per_core_s: float = CLOUD_USD_PER_CORE_S

    @property
    def onprem_usd_per_hour(self) -> float:
        """Effective on-premise cost (VM price / 1.8, Appendix L)."""
        return self.vm_usd_per_hour / CLOUD_TO_ONPREM_RATIO

    @property
    def onprem_usd_per_core_s(self) -> float:
        return self.onprem_usd_per_hour / 3600.0 / self.n_cores

    def onprem_cost(self, seconds: float) -> float:
        """Cost of keeping the provisioned server on for ``seconds``."""
        return self.onprem_usd_per_hour * seconds / 3600.0


def make_cluster(vcpus: int, **overrides) -> Cluster:
    """Cluster for one of the Section 5.3 Google Cloud machine sizes."""
    for name, (cores, price) in GC_MACHINES.items():
        if cores == vcpus:
            return Cluster(n_cores=cores, vm_usd_per_hour=price, **overrides)
    raise KeyError(
        f"no Section-5.3 machine with {vcpus} vCPUs; choices: "
        f"{sorted(c for c, _ in GC_MACHINES.values())}"
    )
