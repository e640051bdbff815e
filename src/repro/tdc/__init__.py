"""TDC production-system simulator: the two-layer CDN of Figure 2 and the
§5 deployment experiment behind Figure 6."""

from repro.tdc.cluster import TDCCluster
from repro.tdc.deploy import DeploymentResult, run_deployment
from repro.tdc.latency import LatencyModel
from repro.tdc.monitor import Monitor, MonitorBucket
from repro.tdc.node import StorageNode

__all__ = [
    "StorageNode",
    "TDCCluster",
    "LatencyModel",
    "Monitor",
    "MonitorBucket",
    "run_deployment",
    "DeploymentResult",
]
