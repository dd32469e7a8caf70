"""MPI-like substrate: in-process message passing, halo exchange, and the
CPU-cluster cost model behind the paper's full-socket reference times."""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "comm": ("SimMPI", "RankComm", "Request", "MessageStats"),
    "halo": ("HaloExchanger",),
    "cluster": (
        "CPUSocketSpec", "ClusterSpec", "IBM_CLUSTER", "CRAY_XC30", "CLUSTERS", "ClusterCostModel",
    ),
})
