"""Static analysis & verification passes over graphs, plans, and traces.

Three passes behind one :class:`Diagnostic`/:class:`AnalysisReport` API:

* :func:`lint_graph` -- structural, shape/dtype, op-contract, and
  serialization round-trip checks on a :class:`~repro.graph.Graph`;
* :func:`verify_plan` -- independently re-derives every invariant a
  compiled :class:`~repro.core.plan.ExecutionPlan` is supposed to satisfy
  (convexity, L2 budget, halo coverage, strategy-model consistency);
* the memoization-protocol checkers -- :func:`explore_protocol`
  exhaustively model-checks the 0->1->2 CAS tag automaton on a small brick
  grid, and :func:`replay_trace` validates a real run's task trace for
  exactly-once and happens-before;
* :func:`validate_rewrite` -- translation validation for graph rewrites:
  re-derives well-formedness, interface preservation, removal/fusion
  provenance, dataflow, and (optionally) a bit-identical differential run
  for every :class:`~repro.rewrite.Rewrite`;
* :func:`analyze_effects` -- schedule-independent effect analysis: per
  (subgraph, node, brick) read/write region summaries proving race freedom
  over all interleavings and exactly-once write coverage, plus static
  DRAM/L2 traffic bounds (:func:`check_manifest_bracket` asserts they
  bracket a measured manifest, :func:`effect_prune` uses them to skip
  dominated tuning candidates without simulation).

The *dynamic* counterpart lives in :mod:`repro.sanitize`: an
:class:`ExecutionSanitizer` device observer (re-exported here) that checks
shadow memory, happens-before races, and numeric health of live runs,
reporting through the same currency.
"""

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.effects import (
    EffectMutation,
    EffectReport,
    analyze_effects,
    check_manifest_bracket,
    effect_prune,
)
from repro.analysis.graph_lint import lint_graph
from repro.analysis.plan_verify import verify_plan
from repro.analysis.protocol import GridModel, ProtocolModel, explore_protocol
from repro.analysis.replay import (
    replay_tasks_from_chrome_trace,
    replay_trace,
)
from repro.analysis.rewrite_validate import validate_rewrite


def __getattr__(name: str) -> object:
    # Lazy re-export: repro.sanitize itself imports repro.analysis.diagnostics
    # (which executes this package __init__ first), so an eager import here
    # would be circular.
    if name == "ExecutionSanitizer":
        from repro.sanitize import ExecutionSanitizer

        return ExecutionSanitizer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "lint_graph",
    "verify_plan",
    "EffectMutation",
    "EffectReport",
    "analyze_effects",
    "check_manifest_bracket",
    "effect_prune",
    "GridModel",
    "ProtocolModel",
    "explore_protocol",
    "replay_trace",
    "replay_tasks_from_chrome_trace",
    "validate_rewrite",
    "ExecutionSanitizer",
]
