"""SLO monitor: objectives, trailing windows, burn-rate alerting.

The serving layer promises a *deadline-attainment* objective ("99% of
requests meet their deadline").  The classic way to alert on such an
objective without paging on every blip is the multi-window **burn rate**
(SRE workbook, ch. 5): the observed error rate divided by the error
budget ``1 - objective``.  A burn rate of 1.0 consumes exactly the budget
over the SLO period; 14.4 consumes a 30-day budget in two hours.  Alerts
fire only when *both* a short and a long trailing window burn above the
threshold -- the short window makes the alert responsive, the long window
keeps a transient spike from paging.

:class:`SLOMonitor` is always on (recording one event per request is two
appends), while the tracer side effects (the ``slo_breach`` event and
flight dump) only exist when a tracer is attached -- a tracing-off server
records burn rates into the registry and nothing else.  Windows default
to seconds (5 s / 30 s) rather than the production 5 m / 1 h, because a
loadgen session lives seconds -- the math is identical, only the horizon
scales.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.metrics.registry import MetricsRegistry
    from repro.obs.tracer import Tracer

__all__ = ["SLOConfig", "BurnAlert", "SLOMonitor", "burn_rate"]


def burn_rate(bad: int, total: int, objective: float) -> float:
    """Error-budget consumption rate: error rate over the budget.

    ``burn_rate(5, 100, 0.99) == 5.0`` -- a 5% error rate burns a 1%
    budget five times faster than sustainable.  Zero traffic burns
    nothing; a zero budget (objective 1.0) burns infinitely fast the
    moment anything fails.
    """
    if total <= 0:
        return 0.0
    budget = 1.0 - objective
    if budget <= 0.0:
        return float("inf") if bad else 0.0
    return (bad / total) / budget


@dataclass(frozen=True)
class SLOConfig:
    """One service-level objective and its alerting policy.

    ``windows`` is a tuple of ``(short_s, long_s)`` pairs; an alert needs
    *both* windows of a pair burning above ``burn_threshold``.
    ``latency_target_s`` optionally tightens "good" beyond deadline
    attainment: a request is good only if it also completed within the
    target (the deterministic objective the CI straggler run trips).  The
    server applies it when it decides ``good``; the monitor only reports it.
    """

    objective: float = 0.99
    windows: tuple[tuple[float, float], ...] = ((5.0, 30.0),)
    burn_threshold: float = 14.4
    min_events: int = 10           # don't alert off a near-empty window
    latency_target_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.objective <= 1.0:
            raise ValueError(f"objective must be in (0, 1], got {self.objective}")
        for short_s, long_s in self.windows:
            if not 0.0 < short_s <= long_s:
                raise ValueError(
                    f"window pair must satisfy 0 < short <= long, "
                    f"got ({short_s}, {long_s})")
        if self.burn_threshold <= 0:
            raise ValueError(f"burn_threshold must be > 0, got {self.burn_threshold}")


@dataclass(frozen=True)
class BurnAlert:
    """One fired multi-window burn-rate alert."""

    time_s: float
    short_window_s: float
    long_window_s: float
    short_burn: float
    long_burn: float
    threshold: float
    attainment: float      # lifetime good/total at fire time

    def as_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "short_burn": round(self.short_burn, 4),
            "long_burn": round(self.long_burn, 4),
            "threshold": self.threshold,
            "attainment": round(self.attainment, 6),
        }


class SLOMonitor:
    """Per-request SLO accounting with multi-window burn-rate alerting.

    Events older than the longest configured window are pruned on every
    observation, so memory is bounded by the traffic inside one horizon.
    Each window *pair* latches: it alerts at most once per monitor lifetime
    (re-arming is a restart decision, not an alerting one).
    """

    def __init__(
        self,
        config: SLOConfig | None = None,
        registry: "MetricsRegistry | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.config = config if config is not None else SLOConfig()
        self.registry = registry
        self.tracer = tracer
        self.alerts: list[BurnAlert] = []
        self.horizon_s = max(long_s for _, long_s in self.config.windows)
        self._events: deque[tuple[float, bool]] = deque()
        self.total = 0
        self.good_total = 0
        self._fired: set[tuple[float, float]] = set()

    @property
    def attainment(self) -> float:
        """Lifetime fraction of good events (1.0 before any traffic)."""
        return self.good_total / self.total if self.total else 1.0

    def window_counts(self, window_s: float, now_s: float) -> tuple[int, int]:
        """``(bad, total)`` inside the trailing ``window_s`` seconds."""
        cutoff = now_s - window_s
        bad = total = 0
        for t, good in reversed(self._events):
            if t < cutoff:
                break
            total += 1
            if not good:
                bad += 1
        return bad, total

    def burn(self, window_s: float, now_s: float) -> float:
        """Burn rate over the trailing ``window_s`` seconds."""
        bad, total = self.window_counts(window_s, now_s)
        return burn_rate(bad, total, self.config.objective)

    def observe(self, now_s: float, good: bool,
                trace_id: str | None = None) -> list[BurnAlert]:
        """Record one request outcome; returns any newly fired alerts.

        ``good`` is the caller's final verdict (deadline attainment and,
        when configured, the latency target).  Each window is scanned once
        per observation: the same burn feeds the ``slo_burn_rate`` gauge
        and the alert test.
        """
        cfg = self.config
        self.total += 1
        if good:
            self.good_total += 1
        self._events.append((now_s, good))
        cutoff = now_s - self.horizon_s
        while self._events and self._events[0][0] < cutoff:
            self._events.popleft()

        fired = []
        for pair in cfg.windows:
            short_s, long_s = pair
            short_bad, short_total = self.window_counts(short_s, now_s)
            short_burn = burn_rate(short_bad, short_total, cfg.objective)
            long_burn = self.burn(long_s, now_s)
            if self.registry is not None:
                self.registry.gauge(
                    "slo_burn_rate", window=f"{short_s:g}s").set(short_burn)
                self.registry.gauge(
                    "slo_burn_rate", window=f"{long_s:g}s").set(long_burn)
            if (pair not in self._fired and short_total >= cfg.min_events
                    and short_burn > cfg.burn_threshold
                    and long_burn > cfg.burn_threshold):
                self._fired.add(pair)
                fired.append(BurnAlert(
                    time_s=now_s, short_window_s=short_s, long_window_s=long_s,
                    short_burn=short_burn, long_burn=long_burn,
                    threshold=cfg.burn_threshold, attainment=self.attainment))
        for alert in fired:
            self.alerts.append(alert)
            if self.registry is not None:
                self.registry.counter("slo_burn_alerts").inc()
            if self.tracer is not None:
                attrs = alert.as_dict()
                self.tracer.event("slo_breach", time_s=attrs.pop("time_s"),
                                  **attrs)
                self.tracer.dump(
                    "slo_breach",
                    detail=(f"burn {alert.short_burn:.1f}x/"
                            f"{alert.long_burn:.1f}x over threshold "
                            f"{alert.threshold:g} "
                            f"({alert.short_window_s:g}s/{alert.long_window_s:g}s)"),
                    trace_id=trace_id, time_s=alert.time_s)
        return fired

    def stats(self) -> dict:
        """The ``metrics.serve.slo`` block of the serving manifest."""
        # Latest event time: stats after the loop closed must not need a
        # live clock on the same basis.
        now_s = self._events[-1][0] if self._events else 0.0
        return {
            "objective": self.config.objective,
            "latency_target_s": self.config.latency_target_s,
            "attainment": self.attainment,
            "events": self.total,
            "burn_rates": {
                f"{short_s:g}s/{long_s:g}s": {
                    "short": round(self.burn(short_s, now_s), 4),
                    "long": round(self.burn(long_s, now_s), 4),
                }
                for short_s, long_s in self.config.windows
            },
            "threshold": self.config.burn_threshold,
            "alerts_fired": len(self._fired),
            "alerts": [a.as_dict() for a in self.alerts],
        }
