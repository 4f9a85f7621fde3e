"""Virtual-time event loop: deterministic discrete-event serving.

Scenario packs emulate hours of diurnal traffic and millions-of-users
bursts; running them against the wall clock would make CI both slow and
flaky (every ``await`` races the OS scheduler).  :class:`VirtualTimeLoop`
replaces the loop clock with a virtual one that *jumps* to the next
scheduled timer whenever no callback is ready -- the classic discrete-event
simulation step.  Under it:

* ``loop.time()`` is virtual seconds since the loop started (begins at 0);
* ``asyncio.sleep(t)`` costs no wall time but advances every timestamp the
  serve path records (admission, batching deadlines, autoscaler cooldowns,
  latency histograms) by exactly ``t``;
* the interleaving of coroutines is a pure function of the program and its
  timers -- two runs of the same seeded scenario execute the same event
  sequence and produce bit-identical manifests.

The one rule: code running under a virtual loop must not block on *real*
concurrency (``asyncio.to_thread``, executors, sockets) -- a thread's wall
progress is invisible to the virtual clock, so the loop would jump past
it.  The server's ``execution="inline"`` mode exists for exactly this:
simulation runs synchronously on the loop, and its simulated duration is
charged as a virtual ``sleep``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Coroutine

__all__ = ["VirtualTimeLoop", "run_virtual"]


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector loop whose clock advances by timer-jumping, not waiting."""

    def __init__(self) -> None:
        super().__init__()
        self._vnow = 0.0

    def time(self) -> float:
        return self._vnow

    def _run_once(self) -> None:
        # Discrete-event step: with nothing runnable now, jump straight to
        # the earliest timer instead of sleeping until it.  The base
        # _run_once then computes a zero timeout and fires it immediately.
        if not self._ready and self._scheduled:
            when = self._scheduled[0]._when
            if when > self._vnow:
                self._vnow = when
        super()._run_once()


def run_virtual(coro: Coroutine[Any, Any, Any]) -> Any:
    """``asyncio.run`` on a fresh :class:`VirtualTimeLoop`."""
    loop = VirtualTimeLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(coro)
    finally:
        try:
            _cancel_all(loop)
        finally:
            asyncio.set_event_loop(None)
            loop.close()


def _cancel_all(loop: asyncio.AbstractEventLoop) -> None:
    tasks = [t for t in asyncio.all_tasks(loop) if not t.done()]
    for t in tasks:
        t.cancel()
    if tasks:
        loop.run_until_complete(
            asyncio.gather(*tasks, return_exceptions=True))
