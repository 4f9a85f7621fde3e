"""Rule batches and the validating runner.

A :class:`RuleBatch` groups rules under a scheduling policy -- :class:`Once`
(single sweep) or :class:`FixedPoint` (iterate until no rule fires, with a
hard iteration bound so a buggy rule pair cannot ping-pong forever).  The
:class:`RuleRunner` threads a graph through its batches and, after **every
individual rule application**, hands the before/after pair to the
translation validator (:func:`repro.analysis.validate_rewrite`) -- so a
violation is pinned to the exact rule and step that introduced it, not to
the whole pipeline.  The aggregate :class:`RewriteReport` is the currency
the engine, CLI, and metrics manifest consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.diagnostics import AnalysisReport
from repro.errors import ReproError
from repro.graph.ir import Graph
from repro.rewrite.rule import Rewrite, Rule
from repro.rewrite.rules import (
    RULES,
    FoldConvBatchNorm,
    FusePointwiseChains,
    LayoutAwareCSE,
    PruneDeadNodes,
    PruneIdentityOps,
)

__all__ = [
    "Once",
    "FixedPoint",
    "RuleBatch",
    "RewriteStep",
    "RewriteReport",
    "RuleRunner",
    "default_batches",
    "batches_from_names",
]

#: Validation levels: "static" re-derives structure and provenance, "full"
#: additionally discharges the differential obligation through the
#: reference executor.  Every rule application is validated.
VALIDATE_LEVELS = ("static", "full")


@dataclass(frozen=True)
class Once:
    """Run each rule in the batch exactly one time, in order."""


@dataclass(frozen=True)
class FixedPoint:
    """Iterate the batch until no rule fires, at most ``limit`` rounds."""

    limit: int = 4


@dataclass(frozen=True)
class RuleBatch:
    name: str
    policy: Once | FixedPoint
    rules: tuple[Rule, ...]


def default_batches() -> tuple[RuleBatch, ...]:
    """The seed pipeline: canonicalize, fuse to a fixed point, clean up."""
    return (
        RuleBatch("canonicalize", Once(),
                  (LayoutAwareCSE(), PruneIdentityOps(), PruneDeadNodes())),
        RuleBatch("fuse", FixedPoint(4),
                  (FoldConvBatchNorm(), FusePointwiseChains())),
        RuleBatch("cleanup", Once(), (PruneDeadNodes(),)),
    )


def batches_from_names(names: Iterable[str]) -> tuple[RuleBatch, ...]:
    """Build a single fixed-point batch from registry names (CLI ``--rules``)."""
    rules = []
    for name in names:
        cls = RULES.get(name)
        if cls is None:
            raise ReproError(
                f"unknown rewrite rule {name!r}; known: {', '.join(sorted(RULES))}")
        rules.append(cls())
    if not rules:
        raise ReproError("no rewrite rules selected")
    return (RuleBatch("selected", FixedPoint(4), tuple(rules)),)


@dataclass
class RewriteStep:
    """One rule application, with its own validation verdict."""

    batch: str
    iteration: int
    rule: str
    nodes_before: int
    nodes_after: int
    rewrite: Rewrite
    validation: AnalysisReport

    @property
    def ok(self) -> bool:
        return self.validation.ok


@dataclass
class RewriteReport:
    """Everything one :meth:`RuleRunner.run` did, and whether it was sound."""

    graph: Graph
    nodes_before: int
    validated: str
    steps: list[RewriteStep] = field(default_factory=list)
    validation: AnalysisReport = field(default_factory=AnalysisReport)

    @property
    def nodes_after(self) -> int:
        return len(self.graph)

    @property
    def ok(self) -> bool:
        return self.validation.ok

    @property
    def nodes_removed(self) -> int:
        return sum(s.rewrite.nodes_removed for s in self.steps)

    @property
    def nodes_fused(self) -> int:
        return sum(s.rewrite.nodes_fused for s in self.steps)

    def rules_fired(self) -> dict[str, int]:
        fired: dict[str, int] = {}
        for step in self.steps:
            fired[step.rule] = fired.get(step.rule, 0) + 1
        return fired

    def manifest_dict(self) -> dict:
        """JSON-ready provenance block for the metrics manifest."""
        return {
            "validated": self.validated,
            "ok": self.ok,
            "nodes_before": self.nodes_before,
            "nodes_after": self.nodes_after,
            "nodes_removed": self.nodes_removed,
            "nodes_fused": self.nodes_fused,
            "rules_fired": self.rules_fired(),
            "steps": [
                {
                    "batch": s.batch,
                    "iteration": s.iteration,
                    "rule": s.rule,
                    "nodes_before": s.nodes_before,
                    "nodes_after": s.nodes_after,
                    "detail": s.rewrite.detail,
                }
                for s in self.steps
            ],
        }

    def summary(self) -> str:
        lines = [
            f"rewrite: {self.nodes_before} -> {self.nodes_after} nodes "
            f"({self.nodes_removed} removed, {self.nodes_fused} fused), "
            f"validation={self.validated} "
            f"[{'ok' if self.ok else 'FAILED'}]"
        ]
        for step in self.steps:
            verdict = "ok" if step.ok else "UNSOUND"
            lines.append(
                f"  [{step.batch}#{step.iteration}] {step.rule}: "
                f"{step.nodes_before} -> {step.nodes_after} nodes"
                + (f" ({step.rewrite.detail})" if step.rewrite.detail else "")
                + f" [{verdict}]")
        if not self.steps:
            lines.append("  (no rule fired)")
        for diag in self.validation.errors:
            lines.append(f"  {diag.render()}")
        return "\n".join(lines)


class RuleRunner:
    """Run rule batches over a graph, validating every application.

    ``validate`` is ``"static"`` or ``"full"`` (static
    checks plus the differential obligation, run for each seed in
    ``seeds``).  The runner never raises on an unsound rewrite -- it keeps
    the diagnostics in the report (``report.ok``) so callers choose the
    policy; the engine raises :class:`~repro.errors.RewriteError`, the CLI
    exits nonzero.  The final graph in the report is the last *validated*
    state: a step that fails validation is excluded, and its batch is
    abandoned rather than iterated on an unsound graph.
    """

    def __init__(self, batches: Sequence[RuleBatch] | None = None,
                 validate: str = "static", seeds: Sequence[int] = (0,)) -> None:
        if validate not in VALIDATE_LEVELS:
            raise ReproError(
                f"validate must be one of {VALIDATE_LEVELS}, got {validate!r}")
        self.batches = tuple(batches) if batches is not None else default_batches()
        self.validate = validate
        self.seeds = tuple(seeds)

    def run(self, graph: Graph) -> RewriteReport:
        from repro.analysis.rewrite_validate import validate_rewrite

        if self.validate == "full":
            # The differential obligation compares before/after executions;
            # both must draw from one weight stream, fixed up front.
            graph.init_weights()
        report = RewriteReport(graph=graph, nodes_before=len(graph),
                               validated=self.validate)
        current = graph
        step_index = 0
        for batch in self.batches:
            rounds = 1 if isinstance(batch.policy, Once) else max(1, batch.policy.limit)
            abandoned = False
            for iteration in range(rounds):
                fired = False
                for rule in batch.rules:
                    rewrite = rule.apply(current)
                    if rewrite is None:
                        continue
                    verdict = validate_rewrite(
                        current, rewrite, rule, step=step_index,
                        differential=self.validate == "full", seeds=self.seeds)
                    step = RewriteStep(batch.name, iteration, rule.name,
                                       len(current), len(rewrite.graph), rewrite,
                                       verdict)
                    report.validation.extend(verdict)
                    report.steps.append(step)
                    step_index += 1
                    if not step.ok:
                        abandoned = True
                        break
                    current = rewrite.graph
                    fired = True
                if abandoned or not fired:
                    break
            if abandoned:
                break
        report.graph = current
        return report
