"""The device observer protocol: hook points the simulated GPU announces.

A :class:`~repro.gpusim.device.Device` calls these hooks as execution
proceeds, mirroring what a CUPTI/Nsight callback subscriber sees on real
hardware.  Observers are duck-typed -- the device never imports this module
-- but subclassing :class:`DeviceObserver` documents the contract and
provides no-op defaults so observers implement only what they need.

Hook order for one run::

    on_alloc* / on_scope_begin / on_task_submit* / on_sync* /
    on_scope_end / ... / on_discard* / on_finish

``on_task_submit`` receives the task *after* the device stamped it with its
timeline position, plan entry and the counter delta its accesses produced
(``l1_txns``, ``l2_txns``, ``dram_txns``; the atomics are the task's own),
so per-task attribution needs no label parsing and no bookkeeping.  Counter
growth *outside* any task (the memoized scheduler's bulk conflict-CAS
accounting, the flush write-back) needs none either: an observer snapshots
``device.counter_state()`` in ``on_scope_begin`` / ``on_scope_end`` and
:meth:`on_finish`, and a scope's cost is the growth between its snapshots.

No hook carries values: the device only counts, and outputs come from
``BrickDLEngine.values`` (whose ``screen`` callable observes them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.gpusim.device import Device, RunMetrics
    from repro.gpusim.trace import Buffer, Task

__all__ = ["DeviceObserver"]


class DeviceObserver:
    """No-op base class for device execution observers."""

    def on_alloc(self, device: "Device", buffer: "Buffer") -> None:
        """A buffer was allocated."""

    def on_discard(self, device: "Device", buffer: "Buffer") -> None:
        """A buffer was discarded (dropped without DRAM write-back)."""

    def on_scope_begin(self, device: "Device", subgraph_index: int | None,
                       strategy: str | None) -> None:
        """An attribution scope (one plan subgraph) was entered."""

    def on_scope_end(self, device: "Device", subgraph_index: int | None,
                     strategy: str | None) -> None:
        """The current attribution scope was exited."""

    def on_task_submit(self, device: "Device", task: "Task") -> None:
        """A task ran through the memory hierarchy and joined the timeline."""

    def on_sync(self, device: "Device", time_s: float) -> None:
        """A device-wide synchronization barrier was recorded."""

    def on_finish(self, device: "Device", metrics: "RunMetrics") -> None:
        """The run completed: dirty data flushed, final metrics computed."""
