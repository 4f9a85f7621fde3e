"""Request/response currency of the serving layer.

A request enters the admission queue, rides a dynamic batch through a
simulated device, and resolves its future with an
:class:`InferenceResponse` that records how it was served: which batch and
batch bucket it rode, whether the compiled plan came from the cache,
whether it degraded to the cuDNN-fallback path, and both wall-clock latency
(queueing + execution as the event loop saw it) and the simulated device
time of its batch.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

__all__ = ["InferenceRequest", "InferenceResponse", "QueueSaturatedError",
           "TenantQuotaError", "ServerClosedError"]


class QueueSaturatedError(RuntimeError):
    """Admission rejected: the queue is full and the saturation policy is
    ``reject`` (the client is expected to back off and retry).

    Carries the offending request's stable identity so clients, log lines,
    and flight-recorder dumps can name it instead of shedding anonymously.
    """

    def __init__(self, message: str = "admission queue full",
                 request_id: int | None = None,
                 trace_id: str | None = None) -> None:
        super().__init__(message)
        self.request_id = request_id
        self.trace_id = trace_id


class TenantQuotaError(QueueSaturatedError):
    """Admission rejected by the *tenant's* in-flight quota, not global
    saturation: one tenant flooding the fleet is shed by name while other
    tenants keep admitting.  Subclasses :class:`QueueSaturatedError` so
    clients that only know "back off and retry" handle both the same way.
    """

    def __init__(self, message: str = "tenant quota exhausted",
                 tenant: str | None = None,
                 request_id: int | None = None,
                 trace_id: str | None = None) -> None:
        super().__init__(message, request_id=request_id, trace_id=trace_id)
        self.tenant = tenant


class ServerClosedError(RuntimeError):
    """Submitted to a server that is not running."""


@dataclass
class InferenceRequest:
    """One admitted inference request, waiting for its batch."""

    request_id: int
    # Input activation (``None`` on a profile-mode server: access streams
    # and timing only, no NumPy arithmetic).
    input: np.ndarray | None
    # Absolute event-loop deadline; a request still queued past it is
    # diverted to the fallback path instead of riding a merged batch.
    deadline_s: float | None
    enqueued_s: float
    future: "asyncio.Future[InferenceResponse]" = field(repr=False, default=None)
    # Root span of this request's trace (``repro.obs``); ``None`` on an
    # untraced server.
    trace: object | None = field(repr=False, default=None)
    # When the dynamic batcher pulled this request into a batch (event-loop
    # clock); ``None`` until batched (or never, on the saturation path).
    batched_s: float | None = None
    # Fleet identity: which resident model serves this request, which tenant
    # submitted it, and which priority class admitted it.  Single-model
    # servers fill these with their defaults, so the fields are always set.
    model: str = ""
    tenant: str = "default"
    priority: str = "standard"

    def expired(self, now_s: float) -> bool:
        return self.deadline_s is not None and now_s > self.deadline_s

    @property
    def trace_id(self) -> str | None:
        return self.trace.trace_id if self.trace is not None else None


@dataclass(frozen=True, slots=True)
class InferenceResponse:
    """How one request was served."""

    request_id: int
    # Primary graph output for this request (its slice of the batch): the
    # first entry of ``outputs``, the same view, or ``None`` on a
    # profile-mode server.
    output: np.ndarray | None
    # All graph outputs by name (same slicing), or ``None`` in profile mode.
    outputs: dict[str, np.ndarray] | None
    batch_size: int          # how many requests actually rode the batch
    batch_bucket: int        # padded batch size the plan was compiled for
    cache_hit: bool          # plan came from the cache (no recompile)
    degraded: bool           # served by the cuDNN-fallback baseline path
    timed_out: bool          # deadline passed while queued
    device: int              # simulated device index that ran the batch
    latency_s: float         # wall latency: admission -> completion
    sim_time_s: float        # simulated device time of the whole batch
    # Observability (all optional so hand-built responses stay valid):
    trace_id: str | None = None      # this request's trace, when traced
    deadline_met: bool = True        # completed within the deadline (if any)
    admitted_s: float = 0.0          # event-loop time of admission
    batched_s: float | None = None   # when the batcher picked it up
    completed_s: float = 0.0         # event-loop time of resolution
    # Fleet identity (mirrors the request; defaults keep hand-built
    # responses and single-model servers valid).
    model: str = ""
    tenant: str = "default"
    priority: str = "standard"
