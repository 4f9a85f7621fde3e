"""Manifest diffing: the perf-regression gate.

Compares two :class:`~repro.metrics.manifest.RunManifest` objects metric by
metric under per-metric *relative* tolerances.  All gated metrics here are
"higher is worse" (transactions, atomics, modeled time, task counts), which
matches how the paper argues: every figure is a cost that merged execution
drives *down*.

Semantics:

* a metric **regresses** when ``new > base * (1 + tol)`` (or grows at all
  from a zero baseline);
* it **improves** when ``new < base * (1 - tol)`` -- reported, never fatal;
* metrics without a configured tolerance are informational: listed when
  they moved, never gating (so adding a new counter cannot break CI until a
  tolerance is assigned to it);
* context mismatches (different model, spec constants, or plan digest) are
  *warnings*: the numbers are still compared, but the report says why they
  might legitimately differ.

``DiffReport.ok`` is False iff at least one gated metric regressed -- that is
what the CLI turns into a nonzero exit code and CI turns into a red build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.metrics.manifest import RunManifest

__all__ = ["DEFAULT_TOLERANCES", "MetricDelta", "DiffReport",
           "diff_manifests", "flatten_metrics"]

# Relative tolerances for the gated metrics (all higher-is-worse).  The
# simulation is deterministic, so the slack only needs to absorb benign
# modeling churn: counter-exact metrics get a tight 5%, conflict atomics --
# which depend on issue-order interleaving details -- get a loose 25%, and
# derived times sit in between.  Exact-count invariants (task count, flops)
# get zero slack: a change there means the plan or the executors changed.
DEFAULT_TOLERANCES: dict[str, float] = {
    "memory.dram_txns": 0.05,
    "memory.dram_read_txns": 0.05,
    "memory.dram_write_txns": 0.05,
    "memory.dram_bytes": 0.05,
    "memory.l1_txns": 0.05,
    "memory.l2_txns": 0.05,
    "atomics.compulsory": 0.05,
    "atomics.conflict": 0.25,
    "time.total": 0.10,
    "time.dram": 0.10,
    "num_tasks": 0.0,
    "total_flops": 0.0,
}


def flatten_metrics(tree: Mapping, prefix: str = "") -> dict[str, float]:
    """Dotted-path view of a nested metrics dict, numeric leaves only."""
    flat: dict[str, float] = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, prefix=f"{path}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = float(value)
    return flat


@dataclass(frozen=True)
class MetricDelta:
    """One metric's base -> new movement under its tolerance."""

    name: str
    base: float
    new: float
    tolerance: float | None      # None: informational, never gates

    @property
    def rel_change(self) -> float:
        if self.base:
            return (self.new - self.base) / abs(self.base)
        return 0.0 if self.new == self.base else float("inf")

    @property
    def regressed(self) -> bool:
        if self.tolerance is None:
            return False
        if self.base == 0:
            return self.new > 0
        return self.new > self.base * (1.0 + self.tolerance)

    @property
    def improved(self) -> bool:
        if self.tolerance is None:
            return False
        return self.new < self.base * (1.0 - self.tolerance)

    def render(self) -> str:
        change = self.rel_change
        arrow = ("=" if self.new == self.base
                 else "+" if self.new > self.base else "-")
        pct = "inf" if change == float("inf") else f"{change:+.1%}"
        flag = ("REGRESSION" if self.regressed
                else "improved" if self.improved
                else "ok" if self.tolerance is not None else "info")
        tol = f"tol {self.tolerance:.0%}" if self.tolerance is not None else "untracked"
        return (f"  [{arrow}] {self.name}: {self.base:g} -> {self.new:g} "
                f"({pct}, {tol}) {flag}")


@dataclass
class DiffReport:
    """Outcome of comparing two manifests."""

    base_label: str
    new_label: str
    deltas: list[MetricDelta] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.improved]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, verbose: bool = False) -> str:
        lines = [f"manifest diff: {self.base_label} -> {self.new_label}"]
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        shown = [d for d in self.deltas
                 if verbose or d.regressed or d.improved or d.new != d.base]
        for d in shown:
            lines.append(d.render())
        if not shown:
            lines.append("  (no metric moved)")
        verdict = ("FAIL: {} regression(s)".format(len(self.regressions))
                   if not self.ok else
                   f"OK ({len(self.improvements)} improvement(s))"
                   if self.improvements else "OK")
        lines.append(verdict)
        return "\n".join(lines)


def _context_warnings(base: "RunManifest", new: "RunManifest") -> list[str]:
    warnings = []
    if base.model != new.model:
        warnings.append(f"model mismatch: {base.model!r} vs {new.model!r}")
    if base.version != new.version:
        warnings.append(f"manifest version mismatch: {base.version} vs {new.version}")
    spec_diff = sorted(k for k in set(base.spec) | set(new.spec)
                       if base.spec.get(k) != new.spec.get(k))
    if spec_diff:
        warnings.append("spec constants differ: " + ", ".join(spec_diff))
    bdig = base.plan.get("digest")
    ndig = new.plan.get("digest")
    if bdig != ndig:
        warnings.append(f"plan digest changed ({bdig} -> {ndig}): "
                        "the compiler made different decisions, so metric "
                        "deltas reflect the new plan, not a pure regression")
    if base.scale != new.scale:
        warnings.append(f"scale preset mismatch: {base.scale!r} vs {new.scale!r}")
    return warnings


def diff_manifests(base: "RunManifest", new: "RunManifest",
                   tolerances: Mapping[str, float] | None = None) -> DiffReport:
    """Compare two manifests; ``tolerances`` overrides/extends the defaults."""
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)

    report = DiffReport(
        base_label=base.summary().split(":")[0],
        new_label=new.summary().split(":")[0],
        warnings=_context_warnings(base, new),
    )
    flat_base = flatten_metrics(base.metrics)
    flat_new = flatten_metrics(new.metrics)
    for name in sorted(set(flat_base) | set(flat_new)):
        if name not in flat_base:
            report.warnings.append(f"metric {name} only in new manifest")
            continue
        if name not in flat_new:
            report.warnings.append(f"metric {name} only in base manifest")
            continue
        report.deltas.append(MetricDelta(
            name=name, base=flat_base[name], new=flat_new[name],
            tolerance=tols.get(name)))
    return report
