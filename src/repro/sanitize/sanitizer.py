"""The execution sanitizer: a device observer validating every run.

:class:`ExecutionSanitizer` attaches to a :class:`~repro.gpusim.device.Device`
through the standard observer API and cross-checks the executed task stream
against three dynamic-analysis models:

* **shadow memory** (:mod:`repro.sanitize.shadow`) -- which bytes of which
  buffer have been written, by whom.  Reads of never-written bytes are
  uninitialized reads (the concrete symptom of a skipped halo write);
  accesses outside a buffer's bounds or after its discard are flagged.
* **happens-before** (:mod:`repro.sanitize.vclock`) -- vector clocks built
  from lane program order, ``synchronize()`` barriers, and the
  release/acquire tokens executors stamp on tasks.  A read whose writer is
  not happens-before-ordered against it is a race (the symptom of a missing
  memoized dependency edge); so is a write-after-write between unordered
  tasks (an exactly-once violation).
* **numeric screening** (:mod:`repro.sanitize.numeric`) -- NaN/Inf/denormal
  checks with first-origin attribution.  No value reaches the device, so a
  functional run hands ``self.numeric.screen`` to ``BrickDLEngine.values``.

The first two need no values: they check the *schedule*, in profile mode as
in functional (a brick placed before its producers reads unwritten or
unordered bytes).

Findings are reported in the same :class:`AnalysisReport` currency as the
static passes, so ``repro lint --sanitize``, strict mode, and CI all consume
them unchanged.

Approximate accesses: an access wider than the expansion cap reports a
conservative hull (see :meth:`Access.byte_intervals`).  Hull *writes* are
recorded (over-approximating coverage); hull *reads* skip the uninitialized
and race checks -- the sanitizer never reports a finding it cannot prove.
"""

from __future__ import annotations

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.profiling.observer import DeviceObserver
from repro.sanitize.numeric import NumericSanitizer
from repro.sanitize.shadow import ShadowMemory, WriteRecord
from repro.sanitize.vclock import HBState

__all__ = ["ExecutionSanitizer"]

_PASS = "sanitize"


class ExecutionSanitizer(DeviceObserver):
    """Validates a live run; produces an :class:`AnalysisReport`.

    Parameters
    ----------
    graph:
        Optional :class:`~repro.graph.core.Graph` for node-name rendering
        and derived-NaN demotion.  The sanitizer works without it.
    max_per_code:
        Diagnostic cap per code; further findings of the same code are
        counted but suppressed (a single root cause floods otherwise).
    """

    def __init__(self, graph=None, max_per_code: int = 25) -> None:
        self.graph = graph
        self.max_per_code = max_per_code
        self.shadow = ShadowMemory()
        self.hb = HBState()
        self.numeric = NumericSanitizer(graph)
        self.counts: dict[str, int] = {}
        self._diags: list[Diagnostic] = []
        self._seq = 0
        self._scopes: list[int | None] = []

    # -- diagnostics ---------------------------------------------------------
    def _emit(self, code: str, severity: Severity, message: str,
              node_id: int | None = None, subgraph_index: int | None = None,
              detail=None) -> None:
        n = self.counts.get(code, 0) + 1
        self.counts[code] = n
        if n > self.max_per_code:
            return
        self._diags.append(Diagnostic(
            pass_name=_PASS, code=code, severity=severity, message=message,
            node_id=node_id, subgraph_index=subgraph_index, detail=detail))

    def report(self) -> AnalysisReport:
        """Finalize: the full report, including numeric findings and
        suppression notes for capped codes."""
        report = AnalysisReport(list(self._diags))
        report.diagnostics.extend(self.numeric.diagnostics())
        for code, n in sorted(self.counts.items()):
            if n > self.max_per_code:
                report.add(Diagnostic(
                    pass_name=_PASS, code=code + ".suppressed",
                    severity=Severity.INFO,
                    message=f"{n - self.max_per_code} further {code} "
                            f"finding(s) suppressed (cap {self.max_per_code})",
                ))
        return report

    # -- observer hooks ------------------------------------------------------
    def on_alloc(self, device, buffer) -> None:
        self.shadow.register(buffer)

    def on_discard(self, device, buffer) -> None:
        where = (f"subgraph {self._scopes[-1]}"
                 if self._scopes and self._scopes[-1] is not None else "run")
        self.shadow.discard(buffer, by=where)

    def on_scope_begin(self, device, subgraph_index, strategy) -> None:
        self._scopes.append(subgraph_index)

    def on_scope_end(self, device, subgraph_index, strategy) -> None:
        if self._scopes:
            self._scopes.pop()

    def on_sync(self, device, time_s) -> None:
        self.hb.barrier()

    def on_task_submit(self, device, task) -> None:
        self.shadow.saw_task = True
        seq = self._seq
        self._seq += 1
        lane = task.worker if task.worker is not None else 0
        clock = self.hb.begin_task(lane, task.acquires)
        epoch = clock.get(lane)
        me = WriteRecord(seq=seq, lane=lane, epoch=epoch, label=task.label)

        for access in task.accesses:
            shadow = self.shadow.lookup(access.buffer)
            intervals, exact = access.byte_intervals()
            kind = "write" if access.write else "read"

            if shadow.discarded_by is not None:
                self._emit(
                    "sanitize.use-after-discard", Severity.ERROR,
                    f"task {task.label!r} {kind}s buffer {shadow.name!r} "
                    f"after it was discarded ({shadow.discarded_by})",
                    node_id=task.node_id, subgraph_index=task.subgraph_index,
                    detail={"buffer": shadow.name, "task": task.label})

            for lo, hi in intervals:
                if lo < 0 or hi > shadow.nbytes:
                    self._emit(
                        "sanitize.oob-access", Severity.ERROR,
                        f"task {task.label!r} {kind}s [{lo}, {hi}) of buffer "
                        f"{shadow.name!r} ({shadow.nbytes} bytes)",
                        node_id=task.node_id,
                        subgraph_index=task.subgraph_index,
                        detail={"buffer": shadow.name, "range": (lo, hi)})
                    continue
                if access.write:
                    if exact:
                        for s, e, w in shadow.overlapping(lo, hi):
                            if w.seq != seq and not clock.dominates(w.lane, w.epoch):
                                self._emit(
                                    "sanitize.race-write", Severity.ERROR,
                                    f"unordered write-after-write on buffer "
                                    f"{shadow.name!r} [{s}, {e}): "
                                    f"{task.label!r} overwrites {w.label!r} "
                                    f"with no happens-before edge",
                                    node_id=task.node_id,
                                    subgraph_index=task.subgraph_index,
                                    detail={"buffer": shadow.name,
                                            "range": (s, e),
                                            "prior": w.label})
                    shadow.record_write(lo, hi, me)
                elif exact:
                    gaps = shadow.uncovered(lo, hi)
                    if gaps:
                        g0, g1 = gaps[0]
                        self._emit(
                            "sanitize.uninit-read", Severity.ERROR,
                            f"task {task.label!r} reads "
                            f"{sum(b - a for a, b in gaps)} uninitialized "
                            f"byte(s) of buffer {shadow.name!r} (first gap "
                            f"[{g0}, {g1})): no task ever wrote them",
                            node_id=task.node_id,
                            subgraph_index=task.subgraph_index,
                            detail={"buffer": shadow.name, "gaps": gaps})
                    for s, e, w in shadow.overlapping(lo, hi):
                        if w.seq != seq and not clock.dominates(w.lane, w.epoch):
                            self._emit(
                                "sanitize.race-read", Severity.ERROR,
                                f"racy read of buffer {shadow.name!r} "
                                f"[{s}, {e}): {task.label!r} reads bytes "
                                f"written by {w.label!r} with no "
                                f"happens-before edge (missing dependency?)",
                                node_id=task.node_id,
                                subgraph_index=task.subgraph_index,
                                detail={"buffer": shadow.name,
                                        "range": (s, e),
                                        "writer": w.label})

        for token in task.releases:
            self.hb.release(token, clock)
