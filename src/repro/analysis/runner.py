"""Cluster factories and the generic experiment runner.

Every experiment script drives one or more *systems* over the same
workload schedule.  The factory registry here builds a ready-to-run
cluster of any system with a uniform signature, so experiment code is a
loop over system names.
"""

from __future__ import annotations

from typing import Any, Callable

from ..baselines.megastore import MegastoreCluster
from ..baselines.multipaxos import PaxosCluster
from ..baselines.pql import PQLCluster
from ..baselines.raft import RaftCluster
from ..baselines.spanner import SpannerCluster
from ..baselines.vr import VRCluster
from ..core.client import ChtCluster
from ..core.config import ChtConfig
from ..objects.spec import ObjectSpec
from .parallel import parallel_starmap, run_cells

__all__ = ["SYSTEMS", "build_cluster", "warmup", "parallel_starmap",
           "run_cells"]


def _build_cht(spec: ObjectSpec, n: int, delta: float, epsilon: float,
               seed: int, **kwargs: Any) -> ChtCluster:
    config = ChtConfig(n=n, delta=delta, epsilon=epsilon)
    return ChtCluster(spec, config, seed=seed, **kwargs)


def _baseline_builder(cls: type) -> Callable[..., Any]:
    def build(spec: ObjectSpec, n: int, delta: float, epsilon: float,
              seed: int, **kwargs: Any) -> Any:
        return cls(spec, n=n, delta=delta, epsilon=epsilon, seed=seed,
                   **kwargs)

    return build


#: System name -> factory(spec, n, delta, epsilon, seed, **kwargs).
SYSTEMS: dict[str, Callable[..., Any]] = {
    "cht": _build_cht,
    "multipaxos": _baseline_builder(PaxosCluster),
    "raft": _baseline_builder(RaftCluster),
    "vr": _baseline_builder(VRCluster),
    "megastore": _baseline_builder(MegastoreCluster),
    "pql": _baseline_builder(PQLCluster),
    "spanner": _baseline_builder(SpannerCluster),
}


def build_cluster(
    system: str,
    spec: ObjectSpec,
    n: int = 5,
    delta: float = 10.0,
    epsilon: float = 2.0,
    seed: int = 0,
    obs: bool = False,
    **kwargs: Any,
) -> Any:
    """Build and start a cluster of the named system.

    ``obs=True`` attaches a :class:`repro.obs.ObsContext` (every system
    supports it); the started cluster then exposes it as ``cluster.obs``
    for trace export and metrics snapshots.
    """
    try:
        factory = SYSTEMS[system]
    except KeyError:
        raise ValueError(
            f"unknown system {system!r}; known: {sorted(SYSTEMS)}"
        ) from None
    cluster = factory(spec, n, delta, epsilon, seed, obs=obs, **kwargs)
    cluster.start()
    return cluster


def warmup(cluster: Any, duration: float = 400.0) -> None:
    """Run the cluster long enough for leader election and first leases.

    After warm-up the message counters are reset so experiments measure
    steady state only.
    """
    cluster.run(duration)
    cluster.net.reset_counters()
