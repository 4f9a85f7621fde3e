"""Run manifests: the versioned JSON record one benchmarked execution leaves.

A :class:`RunManifest` is the unit of the repo's performance trajectory:
the bench harness writes one per recorded run (``BENCH_<model>.json``), CI
records fresh ones and diffs them against committed baselines
(:mod:`repro.metrics.diff`), and future scaling PRs justify themselves by
the delta between two manifests rather than by vibes.

A manifest pins everything needed to interpret its numbers later:

* **provenance** -- schema version, model name and build arguments, scale
  preset, creation time, git SHA of the working tree;
* **spec** -- the simulated-device parameters the run used (cost-model
  constants included, so a calibration change shows up as a context
  mismatch, not a silent "regression");
* **plan** -- per-subgraph strategy/brick decisions plus a digest of the
  whole plan, so a diff can tell "the same plan got slower" apart from
  "the compiler chose a different plan";
* **metrics** -- the full :class:`~repro.gpusim.device.RunMetrics` dump,
  the hierarchical registry dump, and the bottleneck attribution.

Volatile fields (``created``, ``git_sha``) are metadata: the differ ignores
them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.metrics.attribute import attribute_run, attribute_subgraphs

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.engine import EngineResult
    from repro.gpusim.spec import GPUSpec

__all__ = ["MANIFEST_VERSION", "RunManifest", "manifest_from_result",
           "manifest_from_serve", "plan_digest", "spec_dict", "git_sha",
           "bench_manifest_path"]

MANIFEST_VERSION = 1

# GPUSpec fields worth pinning: geometry plus every calibrated cost-model
# constant (a calibration change must surface as a context mismatch).
_SPEC_FIELDS = ("name", "num_sms", "l1_bytes", "l2_bytes", "dram_bandwidth",
                "transaction_bytes", "l1_sector_bytes", "l2_sector_bytes",
                "sm_gflops_effective", "call_overhead_s", "atomic_time_s",
                "sync_time_s", "memo_visit_s", "overlap_efficiency",
                "spin_interval_s", "dram_txn_rate")


@functools.cache
def git_sha() -> str | None:
    """HEAD of the repository containing this package, if resolvable
    (one ``git rev-parse`` per process, not per manifest)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def spec_dict(spec: "GPUSpec") -> dict:
    return {f: getattr(spec, f) for f in _SPEC_FIELDS}


def _plan_entries(plan) -> list[dict]:
    entries = []
    for sub in plan.subgraphs:
        entries.append({
            "index": sub.index,
            "strategy": sub.strategy.value,
            "brick": list(sub.brick_shape),
            "num_ops": len(sub.subgraph),
            "node_ids": list(sub.subgraph.node_ids),
            "delta": round(sub.delta, 6),
            "rho": round(sub.rho, 3),
            "footprint_bytes": sub.footprint_bytes,
            "reason": sub.reason,
        })
    return entries


def plan_digest(plan) -> str:
    """Stable digest of the compiled plan's decisions (not its timings)."""
    doc = {"graph": plan.graph.name, "subgraphs": _plan_entries(plan)}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _metrics_dict(metrics) -> dict:
    m, a, t = metrics.memory, metrics.atomics, metrics.time
    return {
        "memory": {
            "l1_txns": m.l1_txns,
            "l2_txns": m.l2_txns,
            "dram_read_txns": m.dram_read_txns,
            "dram_write_txns": m.dram_write_txns,
            "dram_txns": m.dram_txns,
            "dram_bytes": m.dram_bytes,
        },
        "atomics": {"compulsory": a.compulsory, "conflict": a.conflict},
        "time": {k: getattr(t, k) for k in (
            "total", "dram", "idle", "compute",
            "atomics_compulsory", "atomics_conflict", "other")},
        "num_tasks": metrics.num_tasks,
        "total_flops": metrics.total_flops,
    }


@dataclass
class RunManifest:
    """One recorded run, ready to serialize / diff / re-load."""

    model: str
    label: str = ""
    version: int = MANIFEST_VERSION
    created: str = ""
    git_sha: str | None = None
    scale: str | None = None
    build_args: dict = field(default_factory=dict)
    spec: dict = field(default_factory=dict)
    plan: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    registry: dict = field(default_factory=dict)
    bottleneck: dict = field(default_factory=dict)
    # Host-side wall-clock observations (simulator runtime).  Like
    # ``created``/``git_sha`` these are provenance, not modeled results: the
    # differ only compares ``metrics``, so wall times never gate CI.
    wall: dict = field(default_factory=dict)
    # Graph-rewrite provenance (RewriteReport.manifest_dict(): rules fired,
    # nodes removed/fused, validation level).  Empty when the run used the
    # graph as built.  Provenance only -- the differ ignores it.
    rewrite: dict = field(default_factory=dict)

    # -- serialization -------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "version": self.version,
            "model": self.model,
            "label": self.label,
            "created": self.created,
            "git_sha": self.git_sha,
            "scale": self.scale,
            "build_args": self.build_args,
            "spec": self.spec,
            "plan": self.plan,
            "metrics": self.metrics,
            "registry": self.registry,
            "bottleneck": self.bottleneck,
            "wall": self.wall,
            "rewrite": self.rewrite,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunManifest":
        version = int(payload.get("version", 0))
        if version > MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {version} is newer than supported "
                f"({MANIFEST_VERSION}); upgrade the tooling")
        return cls(
            model=payload["model"],
            label=payload.get("label", ""),
            version=version,
            created=payload.get("created", ""),
            git_sha=payload.get("git_sha"),
            scale=payload.get("scale"),
            build_args=dict(payload.get("build_args", {})),
            spec=dict(payload.get("spec", {})),
            plan=dict(payload.get("plan", {})),
            metrics=dict(payload.get("metrics", {})),
            registry=dict(payload.get("registry", {})),
            bottleneck=dict(payload.get("bottleneck", {})),
            wall=dict(payload.get("wall", {})),
            rewrite=dict(payload.get("rewrite", {})),
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "RunManifest":
        return cls.from_dict(json.loads(pathlib.Path(path).read_text()))

    # -- reporting -----------------------------------------------------------
    def summary(self) -> str:
        t = self.metrics.get("time", {})
        mem = self.metrics.get("memory", {})
        bound = self.bottleneck.get("run", {}).get("bound", "?")
        return (f"{self.model}{f' [{self.label}]' if self.label else ''}: "
                f"{t.get('total', 0.0) * 1e3:.3f} ms, "
                f"{mem.get('dram_txns', 0)} DRAM txns "
                f"({mem.get('dram_read_txns', 0)} r / {mem.get('dram_write_txns', 0)} w), "
                f"{self.metrics.get('num_tasks', 0)} tasks, {bound}-bound")


def manifest_from_result(
    model: str,
    result: "EngineResult",
    spec: "GPUSpec",
    label: str = "",
    scale: str | None = None,
    build_args: Mapping | None = None,
    wall: Mapping | None = None,
    rewrite: Mapping | None = None,
) -> RunManifest:
    """Build the manifest for one engine execution."""
    plan = result.plan
    registry = getattr(result, "registry", None)
    reports = {"run": attribute_run(result.metrics, spec, label=model).as_dict()}
    if result.per_subgraph:
        reports["subgraphs"] = [
            r.as_dict() for r in attribute_subgraphs(result.per_subgraph, spec, plan)
        ]
    return RunManifest(
        model=model,
        label=label,
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_sha=git_sha(),
        scale=scale,
        build_args=dict(build_args or {}),
        spec=spec_dict(spec),
        plan={"digest": plan_digest(plan), "subgraphs": _plan_entries(plan)},
        metrics=_metrics_dict(result.metrics),
        registry=registry.as_dict() if registry is not None else {},
        bottleneck=reports,
        wall=dict(wall or {}),
        rewrite=dict(rewrite or {}),
    )


def manifest_from_serve(
    model: str,
    registry,
    spec: "GPUSpec",
    cached_plans: Sequence[Mapping] = (),
    serve_stats: Mapping | None = None,
    label: str = "serve",
    scale: str | None = None,
) -> RunManifest:
    """Build the manifest for one serving session.

    Unlike :func:`manifest_from_result` (one engine execution), a serving
    manifest aggregates many batched executions: its ``metrics`` carry the
    serve-path rollup (request counts, latency quantiles, cache hit ratio),
    its ``plan`` lists every plan-cache entry (keyed digest + the plan digest
    per batch bucket), and its ``registry`` is the server's registry
    dump -- so a loadgen run leaves the same kind of diffable record a
    benchmark run does.
    """
    return RunManifest(
        model=model,
        label=label,
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_sha=git_sha(),
        scale=scale,
        spec=spec_dict(spec),
        plan={"cached": [dict(p) for p in cached_plans]},
        metrics={"serve": dict(serve_stats or {})},
        registry=registry.as_dict() if registry is not None else {},
        bottleneck={},
    )


def bench_manifest_path(model: str, out_dir: str | pathlib.Path = ".",
                        label: str = "") -> pathlib.Path:
    """The trajectory filename convention: ``BENCH_<model>[__<label>].json``."""
    stem = f"BENCH_{model}" + (f"__{label}" if label else "")
    return pathlib.Path(out_dir) / f"{stem}.json"
