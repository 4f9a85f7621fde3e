"""Scenario packs: deterministic fleet-scale traffic, replayed from a seed.

A *scenario* emulates a production traffic shape -- diurnal load, a flash
burst, a heavy-tailed multi-model mix, a straggling device, multi-tenant
contention -- against the serving fleet, entirely in virtual time
(:mod:`repro.serve.vtime`).  Hours of emulated traffic and
millions-of-users arrival processes replay in seconds of wall clock, and
two runs of the same ``(scenario, seed)`` are **bit-identical**: the
arrival process is a seeded non-homogeneous Poisson draw, the event loop
is a discrete-event simulator, and the server executes inline with
simulated durations charged as virtual sleeps.  The run's manifest
fingerprint (sha256 over the canonical manifest minus volatile
provenance) is the replay-regression oracle.

Everything self-scales from one calibration: the simulated service time of
a full batch (``unit_s``, measured by compiling and profile-running each
resident model once).  Arrival rates are expressed as utilization ``rho``
of the baseline fleet capacity ``devices * max_batch / unit_s``, and every
wait, deadline, and autoscaler interval is a multiple of ``unit_s`` -- so
the same scenario stresses the same queueing regimes whether the model
under serve simulates in microseconds or milliseconds.

Each scenario carries *objectives* -- the conformance matrix CI asserts:
per-class p99 SLO attainment, shed-rate bounds, and (for the burst
scenario) that the autoscaler actually scaled up and back down.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ExecutionError
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.loadgen import _request_input, verify_served
from repro.serve.request import QueueSaturatedError, TenantQuotaError
from repro.serve.scheduler import PriorityClass
from repro.serve.server import InferenceServer, ServeConfig
from repro.serve.vtime import run_virtual

__all__ = ["TenantSpec", "Scenario", "ScenarioReport", "SCENARIOS",
           "run_scenario", "manifest_fingerprint"]

# Manifest keys that record provenance, not modeled results; the replay
# fingerprint drops them (mirrors what the manifest differ ignores).
_VOLATILE_MANIFEST_KEYS = ("created", "git_sha")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a scenario: share of traffic, class, deadline, quota."""

    name: str
    weight: float = 1.0            # share of the arrival process
    priority: str = "interactive"  # admission class this tenant rides
    deadline_units: float | None = 12.0   # deadline in units of unit_s
    quota: int | None = None       # in-flight admission quota

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {self.weight}")


# What every scenario runs under (waits in units of the calibrated unit_s);
# ``run_scenario(requests=, batching=)`` override the first two per run.
_REQUESTS = 320
_INTERACTIVE_BATCHING = "edf"
_MAX_BATCH = 8
_BATCH_WAIT_UNITS = 0.75           # coalescing window
_FALLBACK_TIMEOUT_UNITS = 24.0
_SATURATION_POLICY = "reject"
_BURST_FRAC = 0.2                  # burst profile: fraction of T at rho_peak
_MAX_DEVICES = 6                   # autoscaling ceiling

_DEFAULT_TENANTS = (
    TenantSpec("web", weight=0.7, priority="interactive", deadline_units=12.0),
    TenantSpec("pipeline", weight=0.3, priority="batch", deadline_units=60.0),
)


@dataclass(frozen=True)
class Scenario:
    """One deterministic fleet-traffic shape plus its conformance bounds."""

    name: str
    description: str
    devices: int = 2               # baseline fleet (min fleet when autoscaling)
    queue_depth: int = 64
    models: tuple[str, ...] = ("mobilenet_v1",)
    model_weights: tuple[float, ...] = (1.0,)
    tenants: tuple[TenantSpec, ...] = _DEFAULT_TENANTS
    # Arrival process: utilization of baseline capacity over virtual time.
    rho_profile: str = "steady"    # "steady" | "diurnal" | "burst"
    rho_base: float = 0.6
    rho_peak: float = 0.9
    # Autoscaling (burst absorption); devices above is the minimum fleet.
    autoscale: bool = False
    # Fault injection: device 0 straggles by this many units per batch.
    straggler_device: int | None = None
    straggler_delay_units: float = 0.0
    # Conformance matrix: (dotted path into the report summary, "min"|"max",
    # bound).  check() turns violations into failures.
    objectives: tuple[tuple[str, str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.rho_profile not in ("steady", "diurnal", "burst"):
            raise ValueError(f"unknown rho_profile {self.rho_profile!r}")
        if len(self.models) != len(self.model_weights):
            raise ValueError("models and model_weights must align")

    # -- the arrival-rate shape ---------------------------------------------
    def rho(self, t: float, duration: float) -> float:
        """Instantaneous utilization at virtual time ``t`` of ``duration``."""
        if self.rho_profile == "steady":
            return self.rho_base
        if self.rho_profile == "diurnal":
            phase = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / duration))
            return self.rho_base + (self.rho_peak - self.rho_base) * phase
        lo = (0.5 - _BURST_FRAC / 2) * duration
        hi = (0.5 + _BURST_FRAC / 2) * duration
        return self.rho_peak if lo <= t < hi else self.rho_base

    def mean_rho(self) -> float:
        if self.rho_profile == "steady":
            return self.rho_base
        if self.rho_profile == "diurnal":
            return (self.rho_base + self.rho_peak) / 2.0
        return self.rho_base * (1 - _BURST_FRAC) + self.rho_peak * _BURST_FRAC


@dataclass
class ScenarioReport:
    """What one scenario replay produced (and whether it conformed)."""

    scenario: str
    seed: int
    batching: str
    unit_s: float
    duration_s: float              # virtual seconds the session spanned
    requests: int
    completed: int
    shed: int
    verified: int
    fingerprint: str
    stats: dict = field(default_factory=dict)
    shed_by_reason: dict = field(default_factory=dict)
    objectives: tuple = ()

    def summary(self) -> dict:
        """The dotted-lookup namespace objectives are checked against."""
        # Scalars last: the server stats carry their own "requests"
        # breakdown dict, and the scenario's scalar counts must win the
        # collision (the breakdown stays on ``self.stats``).
        return {
            **self.stats,
            "requests": self.requests,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed / self.requests if self.requests else 0.0,
        }

    def check(self) -> list[str]:
        """Evaluate the scenario's objectives; returns violations."""
        summary = self.summary()
        violations = []
        for path, op, bound in self.objectives:
            value = _dig(summary, path)
            if value is None:
                violations.append(f"{path}: not found in report")
            elif op == "min" and value < bound:
                violations.append(f"{path}: {value:.4f} < required {bound}")
            elif op == "max" and value > bound:
                violations.append(f"{path}: {value:.4f} > allowed {bound}")
        return violations

    def render(self) -> str:
        from repro.bench.reporting import format_table

        slo = self.stats.get("slo", {})
        auto = self.stats.get("autoscaler", {})
        rows = [
            ["requests", f"{self.completed}/{self.requests} completed, "
                         f"{self.shed} shed {dict(self.shed_by_reason)}"],
            ["virtual duration", f"{self.duration_s:.3f} s "
                                 f"(unit {self.unit_s * 1e3:.3f} ms)"],
            ["latency p50/p99",
             f"{self.stats['latency_s']['p50'] * 1e3:.2f} / "
             f"{self.stats['latency_s']['p99'] * 1e3:.2f} ms"],
            ["SLO attainment", f"{slo.get('attainment', 0.0):.2%}"],
            ["devices", f"{self.stats['devices']['current']} "
                        f"(+{auto.get('scale_ups', 0)}/"
                        f"-{auto.get('scale_downs', 0)} scale events)"],
            ["verified bit-identical", self.verified],
            ["fingerprint", self.fingerprint[:16]],
        ]
        for name, cls in sorted(self.stats.get("classes", {}).items()):
            rows.append([f"class {name} ({cls['batching']})",
                        f"{cls['completed']} done, shed {cls['shed_rate']:.1%}, "
                        f"attain {cls['attainment']:.2%}, "
                        f"p99 {cls['p99_s'] * 1e3:.2f} ms"])
        for name, ten in sorted(self.stats.get("tenants", {}).items()):
            rows.append([f"tenant {name}",
                        f"{ten['completed']} done, {ten['shed']} shed"])
        violations = self.check()
        rows.append(["conformance",
                     "OK" if not violations else "; ".join(violations)])
        return format_table(["metric", "value"], rows,
                            title=f"scenario: {self.scenario} "
                                  f"(seed {self.seed}, {self.batching})")


def _dig(doc: Mapping, path: str):
    cur = doc
    for part in path.split("."):
        if not isinstance(cur, Mapping) or part not in cur:
            return None
        cur = cur[part]
    return cur if isinstance(cur, (int, float)) else None


def manifest_fingerprint(manifest_doc: Mapping) -> str:
    """sha256 over the canonical manifest JSON, volatile provenance dropped."""
    doc = {k: v for k, v in dict(manifest_doc).items()
           if k not in _VOLATILE_MANIFEST_KEYS}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- the pack ----------------------------------------------------------------
SCENARIOS: dict[str, Scenario] = {}


def _register(s: Scenario) -> Scenario:
    SCENARIOS[s.name] = s
    return s


_register(Scenario(
    name="diurnal",
    description="A day of traffic in miniature: load swings sinusoidally "
                "between a quiet trough and a busy peak.",
    rho_profile="diurnal", rho_base=0.2, rho_peak=0.85,
    objectives=(
        ("classes.interactive.attainment", "min", 0.97),
        ("classes.interactive.shed_rate", "max", 0.02),
        ("shed_rate", "max", 0.05),
    ),
))

_register(Scenario(
    name="burst",
    description="Flash crowd: 10x arrival spike mid-run; the autoscaler "
                "must absorb it and then shrink back.",
    rho_profile="burst", rho_base=0.25, rho_peak=2.5,
    devices=1, autoscale=True,
    queue_depth=96,
    objectives=(
        ("autoscaler.scale_ups", "min", 1),
        ("autoscaler.scale_downs", "min", 1),
        ("classes.interactive.attainment", "min", 0.80),
        ("shed_rate", "max", 0.25),
    ),
))

_register(Scenario(
    name="heavy_tail",
    description="Heavy-tailed multi-model mix: a hot small model dominates "
                "while a cold large one arrives rarely, contending for "
                "devices and cache partitions.",
    models=("mobilenet_v1", "drn26"), model_weights=(0.85, 0.15),
    rho_profile="steady", rho_base=0.6,
    objectives=(
        ("classes.interactive.attainment", "min", 0.90),
        ("shed_rate", "max", 0.10),
    ),
))

_register(Scenario(
    name="straggler",
    description="One slow device: device 0 adds multiple service units to "
                "every batch it serves; EDF + deadlines must keep the "
                "interactive class inside its SLO anyway.",
    rho_profile="steady", rho_base=0.45,
    straggler_device=0, straggler_delay_units=6.0,
    objectives=(
        ("classes.interactive.attainment", "min", 0.85),
        ("shed_rate", "max", 0.10),
    ),
))

_register(Scenario(
    name="multitenant",
    description="Contention: a greedy bulk tenant floods admission beyond "
                "capacity; its quota sheds the flood while the paying "
                "interactive tenant stays inside its SLO.",
    rho_profile="steady", rho_base=1.3,
    tenants=(
        TenantSpec("paying", weight=0.35, priority="interactive",
                   deadline_units=12.0),
        TenantSpec("greedy", weight=0.65, priority="batch",
                   deadline_units=None, quota=8),
    ),
    objectives=(
        ("classes.interactive.attainment", "min", 0.90),
        ("tenants.paying.shed", "max", 0),
        ("tenants.greedy.shed", "min", 1),
    ),
))


# -- running -----------------------------------------------------------------
@dataclass(frozen=True)
class _Arrival:
    index: int
    at_s: float
    model: str
    tenant: TenantSpec


def _plan_arrivals(scenario: Scenario, seed: int, requests: int,
                   capacity_rps: float) -> tuple[list[_Arrival], float]:
    """Draw the seeded non-homogeneous Poisson arrival plan.

    Thinning against ``rho_peak`` gives exact non-homogeneous arrivals; the
    duration estimate from the mean utilization sizes the horizon so about
    ``requests`` arrivals fit (we draw exactly ``requests``, wrapping the
    profile if the tail runs long -- determinism over exact horizon).
    """
    rng = np.random.default_rng(seed)
    rho_max = max(scenario.rho_base, scenario.rho_peak)
    duration = requests / (scenario.mean_rho() * capacity_rps)
    lam = rho_max * capacity_rps
    arrivals: list[_Arrival] = []
    t = 0.0
    model_w = np.asarray(scenario.model_weights, dtype=float)
    model_w /= model_w.sum()
    tenant_w = np.asarray([ten.weight for ten in scenario.tenants], dtype=float)
    tenant_w /= tenant_w.sum()
    while len(arrivals) < requests:
        t += float(rng.exponential(1.0 / lam))
        rho_t = scenario.rho(t % duration, duration)
        if float(rng.random()) * rho_max > rho_t:
            continue
        model = scenario.models[int(rng.choice(len(model_w), p=model_w))]
        tenant = scenario.tenants[int(rng.choice(len(tenant_w), p=tenant_w))]
        arrivals.append(_Arrival(len(arrivals), t, model, tenant))
    return arrivals, duration


def _calibrate(graphs: Mapping[str, object]) -> float:
    """Simulated service seconds of one full batch (max over models)."""
    from repro.core.engine import BrickDLEngine

    unit = 0.0
    for graph in graphs.values():
        result = BrickDLEngine(graph).for_batch(_MAX_BATCH).run()
        unit = max(unit, result.metrics.total_time)
    if unit <= 0:
        raise ExecutionError("calibration produced a non-positive unit time")
    return unit


def build_scenario_config(scenario: Scenario, unit_s: float,
                          batching: str | None = None) -> ServeConfig:
    """The :class:`ServeConfig` one scenario runs under (unit-scaled)."""
    u = unit_s
    interactive = PriorityClass(
        name="interactive", rank=0,
        batching=batching or _INTERACTIVE_BATCHING,
        max_wait_s=_BATCH_WAIT_UNITS * u)
    bulk = PriorityClass(
        name="batch", rank=1, batching="head",
        max_wait_s=4 * _BATCH_WAIT_UNITS * u)
    quotas = {t.name: t.quota for t in scenario.tenants if t.quota is not None}
    return ServeConfig(
        devices=scenario.devices,
        max_batch=_MAX_BATCH,
        max_wait_s=_BATCH_WAIT_UNITS * u,
        queue_depth=scenario.queue_depth,
        saturation_policy=_SATURATION_POLICY,
        functional=False,
        default_timeout_s=_FALLBACK_TIMEOUT_UNITS * u,
        classes=(interactive, bulk),
        default_class="interactive",
        tenant_quotas=quotas or None,
        autoscaler=AutoscalerConfig(
            min_devices=scenario.devices,
            max_devices=_MAX_DEVICES,
            interval_s=2 * u,
            scale_up_queue_per_device=2.0 * _MAX_BATCH,
            scale_down_queue_per_device=0.5,
            hysteresis_ticks=2,
            cooldown_s=6 * u,
            burn_window_s=50 * u,
        ) if scenario.autoscale else None,
        straggler_device=scenario.straggler_device,
        straggler_delay_s=scenario.straggler_delay_units * u,
        slo_latency_target_s=None,
        execution="inline",
    )


def run_scenario(
    scenario: "Scenario | str",
    *,
    seed: int = 0,
    batching: str | None = None,
    requests: int | None = None,
    verify: int = 0,
    reduced: bool = True,
    manifest_path=None,
    trace_path=None,
) -> ScenarioReport:
    """Replay one scenario deterministically; returns its report.

    ``batching`` overrides the interactive class's mode (the CI matrix runs
    each scenario under both ``edf`` and ``head``).  ``verify`` samples that
    many served responses and re-runs them single-shot, asserting
    bit-identical outputs; it is the one thing that serves in functional
    mode, else the fleet profiles.  Everything runs under a virtual-time
    loop: wall cost is simulation only, and the returned
    ``fingerprint`` is stable across replays of the same ``(scenario,
    seed, batching, requests)``.
    """
    if isinstance(scenario, str):
        if scenario not in SCENARIOS:
            raise KeyError(f"unknown scenario {scenario!r} "
                           f"(have {sorted(SCENARIOS)})")
        scenario = SCENARIOS[scenario]
    from repro.models import zoo

    graphs = {name: zoo.build(name, reduced=reduced)
              for name in scenario.models}
    unit_s = _calibrate(graphs)
    n_requests = requests if requests is not None else _REQUESTS
    capacity_rps = scenario.devices * _MAX_BATCH / unit_s
    arrivals, duration = _plan_arrivals(scenario, seed, n_requests,
                                        capacity_rps)
    config = build_scenario_config(scenario, unit_s, batching=batching)
    if verify:
        config = dataclasses.replace(config, functional=True)

    tracer = None
    if trace_path is not None:
        from repro.obs import Tracer

        tracer = Tracer(log_path=trace_path)

    server = InferenceServer(list(graphs.values()), config=config, tracer=tracer)
    responses: dict[int, object] = {}
    shed_by_reason: dict[str, int] = {}

    async def _drive() -> float:
        loop = asyncio.get_running_loop()
        async with server:
            if tracer is not None:
                tracer.clock = loop.time  # span times on the virtual axis
            t0 = loop.time()

            async def one(arrival: _Arrival) -> None:
                x = (_request_input(graphs[arrival.model], arrival.index, seed)
                     if config.functional else None)
                timeout = (arrival.tenant.deadline_units * unit_s
                           if arrival.tenant.deadline_units is not None
                           else None)
                try:
                    responses[arrival.index] = await server.submit(
                        x, timeout_s=timeout, model=arrival.model,
                        tenant=arrival.tenant.name,
                        priority=arrival.tenant.priority)
                except TenantQuotaError:
                    shed_by_reason["quota"] = shed_by_reason.get("quota", 0) + 1
                except QueueSaturatedError:
                    shed_by_reason["saturated"] = (
                        shed_by_reason.get("saturated", 0) + 1)

            tasks = []
            for arrival in arrivals:
                delay = t0 + arrival.at_s - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                tasks.append(asyncio.create_task(one(arrival)))
            await asyncio.gather(*tasks)
            return loop.time() - t0

    elapsed = run_virtual(_drive())
    if tracer is not None:
        tracer.close()

    verified = 0
    if verify and config.functional:
        # Every step-th non-degraded response, in arrival order.
        candidates = [a.index for a in arrivals if a.index in responses
                      and not responses[a.index].degraded]
        step = max(len(candidates) // verify, 1)
        verified = verify_served(
            server, [(i, responses[i]) for i in candidates[::step][:verify]],
            seed)

    stats = server.stats()
    manifest = server.manifest(label=f"scenario-{scenario.name}")
    if manifest_path is not None:
        manifest.save(manifest_path)
    return ScenarioReport(
        scenario=scenario.name,
        seed=seed,
        batching=batching or _INTERACTIVE_BATCHING,
        unit_s=unit_s,
        duration_s=elapsed,
        requests=len(arrivals),
        completed=len(responses),
        shed=sum(shed_by_reason.values()),
        verified=verified,
        fingerprint=manifest_fingerprint(manifest.as_dict()),
        stats=stats,
        shed_by_reason=shed_by_reason,
        objectives=scenario.objectives,
    )
