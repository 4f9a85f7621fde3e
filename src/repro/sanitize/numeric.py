"""Numeric sanitizer: NaN/Inf/denormal screening of kernel outputs.

Screens every array a values pass computes -- ``BrickDLEngine.values`` calls
:meth:`NumericSanitizer.screen` per brick (or per fallback group output) --
and attributes the *first origin* of each anomaly class to the (node,
subgraph, brick, batch) that produced it.  Downstream nodes that merely
inherit a poisoned input are demoted to informational "derived" findings, so
one NaN-producing kernel yields one error naming the true origin rather than
an error per consumer.

NaN and Inf are errors (a finite-input DNN forward pass should never
produce either); denormals are warnings (they are numerically valid but
flush-to-zero hardware disagrees with NumPy about them, and a flood of
denormals usually signals vanishing activations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["NumericFinding", "NumericSanitizer"]

_PASS = "sanitize"


@dataclass
class NumericFinding:
    """First occurrence of one anomaly class at one node."""

    kind: str                       # "nan" | "inf" | "denormal"
    node_id: int | None
    subgraph_index: int | None
    brick: tuple[int, ...] | None
    batch_index: int | None
    label: str
    count: int = 1                  # total offending elements at this node
    derived: bool = False           # inherited from a poisoned predecessor


class NumericSanitizer:
    """Accumulates numeric findings from a values pass's ``screen`` calls."""

    def __init__(self, graph=None) -> None:
        self.graph = graph
        self.findings: dict[tuple[str, int | None], NumericFinding] = {}
        self._poisoned: set[int] = set()  # node ids that saw NaN/Inf

    def screen(self, node_id: int | None, values, subgraph_index: int | None,
               brick: tuple[int, ...] | None, batch_index: int | None, label: str) -> None:
        """A :data:`repro.core.bricktask.Screen`: one computed array of
        ``node_id``, named by the task that counts it."""
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.floating) or arr.size == 0:
            return
        finite = np.isfinite(arr)
        nan_count = int(np.isnan(arr).sum())
        inf_count = int(arr.size - finite.sum()) - nan_count
        mag = np.abs(arr)
        denormal_count = int(((mag > 0) & (mag < np.finfo(arr.dtype).tiny)).sum())
        for kind, count in (("nan", nan_count), ("inf", inf_count),
                            ("denormal", denormal_count)):
            if count:
                self._record(NumericFinding(kind, node_id, subgraph_index, brick,
                                            batch_index, label, count))
        if (nan_count or inf_count) and node_id is not None:
            self._poisoned.add(node_id)

    def _record(self, finding: NumericFinding) -> None:
        key = (finding.kind, finding.node_id)
        existing = self.findings.get(key)
        if existing is not None:
            existing.count += finding.count
            return
        finding.derived = finding.kind != "denormal" and self._inherited(finding.node_id)
        self.findings[key] = finding

    def _inherited(self, node_id: int | None) -> bool:
        """True when a predecessor of ``node_id`` already produced NaN/Inf,
        so this node is propagation, not origin."""
        if self.graph is None or node_id is None:
            return False
        try:
            node = self.graph.node(node_id)
        except Exception:
            return False
        return any(pred in self._poisoned for pred in node.inputs)

    def diagnostics(self) -> list[Diagnostic]:
        out = []
        names = {}
        if self.graph is not None:
            names = {n.node_id: n.name for n in self.graph.nodes}
        for finding in self.findings.values():
            where = names.get(finding.node_id, finding.label)
            loc = ""
            if finding.brick is not None:
                loc = f" brick {finding.brick}"
                if finding.batch_index is not None:
                    loc += f" (batch {finding.batch_index})"
            if finding.kind == "denormal":
                severity, code = Severity.WARNING, "sanitize.numeric-denormal"
                what = f"{finding.count} denormal output value(s)"
            elif finding.derived:
                severity, code = Severity.INFO, "sanitize.numeric-derived"
                what = (f"{finding.count} non-finite value(s) inherited from a "
                        f"poisoned input ({finding.kind} propagation)")
            else:
                severity = Severity.ERROR
                code = f"sanitize.numeric-{finding.kind}"
                what = f"{finding.count} {finding.kind} output value(s)"
            out.append(Diagnostic(
                pass_name=_PASS, code=code, severity=severity,
                message=f"{where!r}{loc}: {what}; first seen in task "
                        f"{finding.label!r}",
                node_id=finding.node_id,
                subgraph_index=finding.subgraph_index,
                detail={"kind": finding.kind, "count": finding.count,
                        "brick": finding.brick, "batch": finding.batch_index},
            ))
        return out
