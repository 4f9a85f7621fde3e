"""Task-timeline profiling and trace export (the paper's Nsight methodology).

The paper validates BrickDL by reading Nsight Compute counters: per-level
transaction counts, atomic traffic, and per-subgraph time breakdowns
(section 4).  This package is the reproduction's equivalent substrate: an
observer API on the simulated :class:`~repro.gpusim.device.Device`, a
default :class:`TraceCollector` that keeps every submitted task with its
structured identity and exact counter attribution, and exporters to Chrome-trace /
Perfetto JSON and CSV.

Typical use::

    from repro.gpusim.device import Device
    from repro.profiling import TraceCollector, write_chrome_trace

    device = Device()
    trace = device.attach(TraceCollector())
    result = engine.run(inputs=None, functional=False, device=device)
    write_chrome_trace(trace, "run.json",
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
