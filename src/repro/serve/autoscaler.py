"""Autoscaling the simulated device fleet from queue and burn-rate signals.

Two pieces:

* :class:`DevicePool` -- the dynamic replacement for the fixed device list:
  workers are spawned/retired at runtime, an idle FIFO rotation hands the
  scheduler the next free device (``await acquire()`` is the same
  backpressure the size-1 device queues used to provide), and retirement is
  graceful -- a retiring device finishes its in-flight batch, then its loop
  exits on a sentinel.
* :class:`Autoscaler` -- a periodic control loop reading two signals the
  serve path already maintains: admission-queue depth (demand we have not
  started) and the short-window SLO burn rate (harm we are already doing).
  Crossing the scale-up threshold for ``hysteresis_ticks`` consecutive
  ticks -- outside the post-scale ``cooldown_s`` -- grows the fleet by one
  device; a drained queue with an all-idle fleet shrinks it by one.  Every
  decision is recorded as a :class:`ScaleEvent`, counted in the registry
  (``serve_scale_events{direction=...}``), and traced as a root span of
  kind ``scale`` so Perfetto shows exactly when and why the fleet moved.

Hysteresis and cooldown exist for the classic reason: queue depth under
bursty arrivals oscillates, and a controller that reacts to every sample
flaps -- scaling up into the tail of a burst it already absorbed, then
down into the next one.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.metrics.registry import MetricsRegistry
    from repro.obs.tracer import Tracer

__all__ = ["AutoscalerConfig", "ScaleEvent", "DevicePool", "Autoscaler"]

#: Short-window burn rate that means "harm": at or above it the autoscaler
#: wants a device, whatever the queue depth.
SCALE_UP_BURN = 2.0


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop tunables (times on the event-loop clock, so virtual-time
    scenarios scale them with the workload's unit service time)."""

    min_devices: int = 1
    max_devices: int = 8
    interval_s: float = 0.25          # tick period
    scale_up_queue_per_device: float = 4.0   # depth/devices that means "behind"
    scale_down_queue_per_device: float = 0.5
    hysteresis_ticks: int = 2         # consecutive ticks before acting
    cooldown_s: float = 1.0           # quiet period after any scale action
    burn_window_s: float = 5.0        # which burn window to read

    def __post_init__(self) -> None:
        if self.min_devices < 1:
            raise ValueError(f"min_devices must be >= 1, got {self.min_devices}")
        if self.max_devices < self.min_devices:
            raise ValueError(
                f"max_devices ({self.max_devices}) must be >= min_devices "
                f"({self.min_devices})")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")
        if self.hysteresis_ticks < 1:
            raise ValueError(
                f"hysteresis_ticks must be >= 1, got {self.hysteresis_ticks}")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision, as it lands in manifests and traces."""

    time_s: float
    direction: str          # "up" | "down"
    from_devices: int
    to_devices: int
    reason: str             # which signal tripped
    queue_depth: int
    burn: float

    def as_dict(self) -> dict:
        return {
            "time_s": round(self.time_s, 6),
            "direction": self.direction,
            "from": self.from_devices,
            "to": self.to_devices,
            "reason": self.reason,
            "queue_depth": self.queue_depth,
            "burn": round(self.burn, 4),
        }


class DevicePool:
    """Dynamic fleet of device workers with an idle FIFO rotation.

    ``run_device(index, queue)`` is the worker coroutine (the server's
    device loop); it must exit when it reads ``None`` off its queue and
    call :meth:`release` after each served batch.
    """

    def __init__(self, run_device: Callable, name: str = "serve/device") -> None:
        self._run_device = run_device
        self._name = name
        self._queues: dict[int, asyncio.Queue] = {}
        self._tasks: dict[int, asyncio.Task] = {}
        self._idle: asyncio.Queue[int] = asyncio.Queue()
        self._live: list[int] = []       # logically active, spawn order
        self._retiring: set[int] = set()
        self._dead: set[int] = set()     # finalized; stale idle tokens skip
        self._busy: set[int] = set()
        self._next = 0
        self.started = 0
        self.retired = 0

    @property
    def size(self) -> int:
        """Logical fleet size (retired devices leave at the decision)."""
        return len(self._live)

    @property
    def busy(self) -> int:
        return len(self._busy)

    @property
    def idle(self) -> int:
        return len(self._live) - sum(1 for i in self._live if i in self._busy)

    def tasks(self) -> list[asyncio.Task]:
        return list(self._tasks.values())

    def spawn(self) -> int:
        """Start one device worker and add it to the idle rotation."""
        index = self._next
        self._next += 1
        queue: asyncio.Queue = asyncio.Queue(maxsize=1)
        self._queues[index] = queue
        self._tasks[index] = asyncio.create_task(
            self._run_device(index, queue), name=f"{self._name}{index}")
        self._live.append(index)
        self._idle.put_nowait(index)
        self.started += 1
        return index

    def retire_one(self) -> int | None:
        """Gracefully remove the newest device; returns its index.

        LIFO keeps device 0 (straggler-injection target, trace lane 1000)
        stable across scale churn.  The worker exits when it next passes
        through the idle rotation -- an in-flight batch always completes.
        """
        if not self._live:
            return None
        index = self._live.pop()
        self._retiring.add(index)
        self.retired += 1
        if index not in self._busy:
            # Somewhere in the idle queue: acquire() will skip and finalize
            # it.  Nudge the sentinel in now so an idle fleet retires
            # immediately instead of on the next acquire.
            self._finalize(index)
        return index

    async def acquire(self) -> int:
        """Next idle device (FIFO).  Blocks while the whole fleet is busy --
        this is the scheduler's backpressure."""
        while True:
            index = await self._idle.get()
            if index in self._dead:
                continue  # stale token from a device retired while idle
            if index in self._retiring:
                self._finalize(index)
                continue
            self._busy.add(index)
            return index

    def dispatch(self, index: int, item) -> None:
        """Hand an acquired device its work (its queue is empty by
        construction: acquire() only returns idle devices)."""
        self._queues[index].put_nowait(item)

    def release(self, index: int) -> None:
        """Worker callback after serving a batch: rejoin rotation or exit."""
        self._busy.discard(index)
        if index in self._retiring:
            self._finalize(index)
        else:
            self._idle.put_nowait(index)

    def _finalize(self, index: int) -> None:
        self._retiring.discard(index)
        self._dead.add(index)
        queue = self._queues.get(index)
        if queue is not None and queue.empty():
            queue.put_nowait(None)


class Autoscaler:
    """Periodic scale controller over a :class:`DevicePool`.

    ``signals()`` returns ``(queue_depth, burn_rate)``; the pool supplies
    its own busy/idle census.  ``tick()`` is separable from the timer loop
    so tests can drive the control law directly.
    """

    def __init__(
        self,
        config: AutoscalerConfig,
        pool: DevicePool,
        signals: Callable[[], tuple[int, float]],
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.config = config
        self.pool = pool
        self.signals = signals
        self.registry = registry
        self.tracer = tracer
        self.events: list[ScaleEvent] = []
        self.ticks = 0
        self._up_ticks = 0
        self._down_ticks = 0
        self._last_scale_s: float | None = None

    @property
    def scale_ups(self) -> int:
        return sum(1 for e in self.events if e.direction == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for e in self.events if e.direction == "down")

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.interval_s)
            self.tick(loop.time())

    def tick(self, now_s: float) -> ScaleEvent | None:
        cfg = self.config
        depth, burn = self.signals()
        size = self.pool.size
        self.ticks += 1
        queue_hot = depth >= cfg.scale_up_queue_per_device * max(size, 1)
        burn_hot = burn >= SCALE_UP_BURN
        want_up = queue_hot or burn_hot
        want_down = (not want_up
                     and depth <= cfg.scale_down_queue_per_device * max(size, 1)
                     and self.pool.busy == 0
                     and burn < SCALE_UP_BURN)
        self._up_ticks = self._up_ticks + 1 if want_up else 0
        self._down_ticks = self._down_ticks + 1 if want_down else 0
        cooling = (self._last_scale_s is not None
                   and now_s - self._last_scale_s < cfg.cooldown_s)
        if cooling:
            return None
        if (want_up and self._up_ticks >= cfg.hysteresis_ticks
                and size < cfg.max_devices):
            reason = "burn" if burn_hot and not queue_hot else "queue_depth"
            return self._scale(now_s, "up", depth, burn, reason)
        if (want_down and self._down_ticks >= cfg.hysteresis_ticks
                and size > cfg.min_devices):
            return self._scale(now_s, "down", depth, burn, "idle")
        return None

    def _scale(self, now_s: float, direction: str, depth: int, burn: float,
               reason: str) -> ScaleEvent:
        """Move the fleet by one device, ``"up"`` or ``"down"``."""
        before = self.pool.size
        if direction == "up":
            self.pool.spawn()
        else:
            self.pool.retire_one()
        after = self.pool.size
        event = ScaleEvent(now_s, direction, before, after, reason,
                           depth, burn)
        self.events.append(event)
        self._up_ticks = 0
        self._down_ticks = 0
        self._last_scale_s = now_s
        if self.registry is not None:
            self.registry.counter("serve_scale_events",
                                  direction=direction).inc()
            self.registry.gauge("serve_devices").set(after)
        if self.tracer is not None:
            self.tracer.record_span(
                f"scale_{direction}", parent=None, kind="scale",
                start_s=now_s - self.config.interval_s, end_s=now_s,
                **{"from": before, "to": after, "reason": reason,
                   "queue_depth": depth, "burn": round(burn, 4)})
        return event

    def stats(self) -> dict:
        """The ``metrics.serve.autoscaler`` block of the serve manifest."""
        return {
            "enabled": True,
            "devices": self.pool.size,
            "min": self.config.min_devices,
            "max": self.config.max_devices,
            "ticks": self.ticks,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "events": [e.as_dict() for e in self.events],
        }
