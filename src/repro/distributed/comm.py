"""Interconnect model for simulated multi-GPU halo exchange.

Models an NVLink-class intra-node fabric with the standard alpha-beta cost:
``t(message) = latency + bytes / bandwidth``.  Neighbor exchanges in a 1-D
spatial decomposition are pairwise and bidirectional; exchanges of one step
proceed concurrently across rank pairs, so the step cost is the *maximum*
over the messages of the step, accumulated into the total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CommModel", "CommCounters"]


@dataclass
class CommCounters:
    """Totals across a distributed run."""

    messages: int = 0
    bytes: int = 0
    steps: int = 0
    time_s: float = 0.0


@dataclass
class CommModel:
    """Alpha-beta interconnect (defaults: NVLink-3-class).

    ``registry`` optionally points at a
    :class:`~repro.metrics.registry.MetricsRegistry`: when set, every
    exchange step also records halo-exchange counters and a message-size
    histogram there (the distributed runner wires this up).
    """

    latency_s: float = 5e-6
    bandwidth: float = 300e9  # bytes/second per link
    counters: CommCounters = field(default_factory=CommCounters)
    registry: object | None = None

    def message_time(self, nbytes: int) -> float:
        return self.latency_s + nbytes / self.bandwidth

    def exchange_step(self, message_sizes: list[int]) -> float:
        """One neighbor-exchange step: concurrent pairwise messages.

        ``message_sizes`` lists every point-to-point message of the step;
        the step completes when the slowest finishes.
        """
        self.counters.steps += 1
        if self.registry is not None:
            self.registry.inc("halo_exchange_steps")
        if not message_sizes:
            return 0.0
        self.counters.messages += len(message_sizes)
        self.counters.bytes += sum(message_sizes)
        if self.registry is not None:
            self.registry.inc("halo_exchange_messages", len(message_sizes))
            self.registry.inc("halo_exchange_bytes", sum(message_sizes))
            hist = self.registry.histogram("halo_message_bytes")
            for nbytes in message_sizes:
                hist.observe(nbytes)
        step_time = max(self.message_time(b) for b in message_sizes)
        self.counters.time_s += step_time
        return step_time
