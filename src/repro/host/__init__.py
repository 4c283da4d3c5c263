"""The shared host-application substrate.

The paper's central claim (sections 2 and 5) is that HILTI is *one*
abstract execution environment shared by many host applications — a BPF
filter, a stateful firewall, BinPAC++ parsers, and a Bro-style script
engine.  This package is that claim made structural: every trace-driven
service the Bro exemplar grew (tolerant pcap ingest, fault injection and
health accounting, watchdog budgets, the unified telemetry exporter, the
flow-parallel dispatch with deterministic merge) lives here once, behind
a small :class:`HostApp` interface all four exemplars implement.

Layering (docs/ARCHITECTURE.md)::

    tools      repro.tools.{bro,bpf_filter,firewall,pac_driver}
    host       repro.host.{Pipeline,ParallelPipeline,FlowDemux}
    apps       repro.apps.{bro,bpf,firewall,binpac}
    core/rt    repro.core.*, repro.runtime.*
    net        repro.net.{pcap,packet,flows,reassembly,tracegen}
"""

from .._lazy import lazy_exports
from .app import HostApp, PipelineServices, export_health
from .demux import Flow, FlowDemux
from .eviction import SessionLRU
from .flowtable import FlowEntry, FlowTable
from .parallel import (
    LaneSpec,
    ParallelPipeline,
    dispatch_plan,
    flow_key,
)
from .pipeline import Pipeline

# A batch run needs none of these: the service, the worker pool and its
# rings load on first use (PEP 562), not into every CLI and worker.
__getattr__ = lazy_exports(__name__, {
    "PoolError": "pool",
    "WorkerPool": "pool",
    "MessageChannel": "ring",
    "RingFull": "ring",
    "ShmRing": "ring",
    "BoundedQueue": "service",
    "HostService": "service",
    "RollingWindows": "service",
    "ServiceConfig": "service",
})

__all__ = [
    "BoundedQueue",
    "Flow",
    "FlowDemux",
    "FlowEntry",
    "FlowTable",
    "HostApp",
    "HostService",
    "LaneSpec",
    "MessageChannel",
    "ParallelPipeline",
    "Pipeline",
    "PipelineServices",
    "PoolError",
    "RingFull",
    "RollingWindows",
    "ServiceConfig",
    "SessionLRU",
    "ShmRing",
    "WorkerPool",
    "dispatch_plan",
    "export_health",
    "flow_key",
]
