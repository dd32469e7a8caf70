"""MPI-like substrate: in-process message passing, halo exchange, and the
CPU-cluster cost model behind the paper's full-socket reference times."""

from repro.mpisim.comm import SimMPI, RankComm, Request, MessageStats
from repro.mpisim.halo import HaloExchanger
from repro.mpisim.cluster import (
    CPUSocketSpec,
    ClusterSpec,
    IBM_CLUSTER,
    CRAY_XC30,
    CLUSTERS,
    ClusterCostModel,
)

__all__ = [
    "SimMPI",
    "RankComm",
    "Request",
    "MessageStats",
    "HaloExchanger",
    "CPUSocketSpec",
    "ClusterSpec",
    "IBM_CLUSTER",
    "CRAY_XC30",
    "CLUSTERS",
    "ClusterCostModel",
]
