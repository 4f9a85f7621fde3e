"""Task-timeline profiling and trace export (the paper's Nsight methodology).

The paper validates BrickDL by reading Nsight Compute counters: per-level
transaction counts, atomic traffic, and per-subgraph time breakdowns
(section 4).  This package is the reproduction's equivalent substrate: an
observer API on the simulated :class:`~repro.gpusim.device.Device`, a
default :class:`TraceCollector` that keeps every submitted task with its
structured identity and attributes counters exactly from one snapshot per
scope boundary, and exporters to Chrome-trace / Perfetto JSON and CSV.

Typical use (the engine attaches the collector; ``result.trace`` is it)::

    from repro.profiling import write_chrome_trace

    result = engine.run()   # no inputs: counts only, on the plan's device
    write_chrome_trace(result.trace, "run.json",
                       names={n.node_id: n.name for n in graph.nodes})

or from the command line: ``repro profile resnet50 --trace run.json``.
"""

from repro.profiling.collector import AllocEvent, SyncEvent, TraceCollector
from repro.profiling.observer import DeviceObserver
from repro.profiling.export import (
    chrome_trace,
    summary_csv,
    write_chrome_trace,
    write_summary_csv,
)

__all__ = [
    "DeviceObserver",
    "TraceCollector",
    "AllocEvent",
    "SyncEvent",
    "chrome_trace",
    "summary_csv",
    "write_chrome_trace",
    "write_summary_csv",
]
