"""Execution sanitizers for the brick runtime (dynamic analysis).

Where :mod:`repro.analysis` checks models of execution (graph, plan,
protocol state machine, recorded trace), this package validates *live* runs:
an :class:`ExecutionSanitizer` attached to the device observes every
allocation, task and barrier as it happens, screens every array the engine's
values pass computes, and reports shadow-memory violations, happens-before
races, and numeric anomalies in the shared
:class:`~repro.analysis.diagnostics.AnalysisReport` currency.
"""

from repro.sanitize.numeric import NumericFinding, NumericSanitizer
from repro.sanitize.sanitizer import ExecutionSanitizer
from repro.sanitize.shadow import BufferShadow, ShadowMemory, WriteRecord
from repro.sanitize.vclock import HBState, VectorClock

__all__ = [
    "ExecutionSanitizer",
    "ShadowMemory",
    "BufferShadow",
    "WriteRecord",
    "HBState",
    "VectorClock",
    "NumericSanitizer",
    "NumericFinding",
]
