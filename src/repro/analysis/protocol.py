"""Small-model checker for the memoized 3-state CAS tag protocol (§3.2.2).

``core/memoized.py`` simulates the paper's runtime: every brick carries a
tag (0 not-started, 1 in-progress, 2 complete), workers acquire bricks with
a CAS 0->1, compute, and release with a CAS 1->2; observers of tag 1 either
find other state-0 work or stall.  The correctness claims -- every brick is
computed **exactly once**, every consumer reads a **completed** brick, and
the schedule always **terminates** -- are protocol properties, not
properties of any single run.  This module model-checks them: it builds a
tiny abstract brick grid (a few layers, a few bricks, halo-overlapping
dependencies, 2-3 workers), and exhaustively explores *every* worker
interleaving of the scheduler's step function, reporting

* ``protocol.double-compute`` -- two workers acquired the same brick,
* ``protocol.lost-release`` -- a brick left in-progress after its owner
  finished (the release CAS never landed),
* ``protocol.stall-deadlock`` -- a reachable state where every worker
  stalls forever,
* ``protocol.incomplete`` -- a terminal state where some goal brick never
  completed.

The protocol semantics are injectable via :class:`ProtocolModel` so tests
can *mutate* them (drop the release CAS, split the acquire into a
non-atomic read-then-write) and assert the explorer catches the bug a real
lost tag transition would introduce -- the checker's own test coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity

__all__ = ["ProtocolModel", "GridModel", "explore_protocol"]

_NOT_STARTED, _IN_PROGRESS, _COMPLETE = 0, 1, 2


@dataclass(frozen=True)
class ProtocolModel:
    """Injectable tag-protocol semantics (the default is §3.2.2's CAS pair).

    ``atomic_acquire=False`` splits the acquire CAS into a read step and a
    later write step, opening the classic check-then-act race window.
    ``release=False`` drops the 1->2 release CAS entirely: owners finish
    but the tag never reaches COMPLETE.
    """

    atomic_acquire: bool = True
    release: bool = True


@dataclass(frozen=True)
class GridModel:
    """The small model: ``layers`` stacked layers of ``bricks`` bricks each.

    Brick ``i`` of layer ``l > 0`` depends on bricks ``[i-halo, i+halo]``
    of layer ``l-1`` (the halo-overlap sharing that makes workers collide).
    Goals are the last layer's bricks, chunked across ``workers`` like the
    executor's clustered assignment.
    """

    layers: int = 2
    bricks: int = 3
    workers: int = 2
    halo: int = 1
    compute_turns: int = 1

    def deps(self, node: tuple[int, int]) -> tuple[tuple[int, int], ...]:
        layer, i = node
        if layer == 0:
            return ()
        return tuple((layer - 1, j) for j in
                     range(max(0, i - self.halo), min(self.bricks, i + self.halo + 1)))

    def num_nodes(self) -> int:
        return self.layers * self.bricks

    def index(self, node: tuple[int, int]) -> int:
        return node[0] * self.bricks + node[1]

    def goals(self) -> list[list[tuple[int, int]]]:
        top = [(self.layers - 1, i) for i in range(self.bricks)]
        per = -(-len(top) // self.workers)
        return [top[w * per:(w + 1) * per] for w in range(self.workers)]


# A worker is (goals, stack, busy, computing, intent):
#   goals    -- remaining exit bricks, tuple of nodes;
#   stack    -- recursion stack, tuple of (node, blocked-deps-tuple);
#   busy     -- compute turns remaining;
#   computing-- the node being computed (busy > 0);
#   intent   -- node read as state-0 but not yet written to 1 (only with
#               atomic_acquire=False: the race window between the two steps).
_IDLE = ((), (), 0, None, None)


def _step(grid: GridModel, protocol: ProtocolModel, tags: tuple, owns: tuple,
          workers: tuple, w: int) -> tuple:
    """One deterministic scheduler turn for worker ``w``.

    Returns ``(tags, owns, workers, event)`` where ``event`` is None or one
    of ``"double-compute"`` (this acquire is the second owner).  Mirrors
    one worker turn of ``MemoizedBrickExecutor.schedule``: finish compute,
    else pull goals, else scan the top frame's dependencies.
    """
    goals, stack, busy, computing, intent = workers[w]
    tags = list(tags)
    owns = list(owns)

    def acquire(node: tuple[int, int]) -> str | None:
        idx = grid.index(node)
        tags[idx] = _IN_PROGRESS
        owns[idx] += 1
        return "double-compute" if owns[idx] > 1 else None

    def put(state: tuple) -> tuple:
        ws = list(workers)
        ws[w] = state
        return tuple(tags), tuple(owns), tuple(ws)

    # Second half of a non-atomic acquire: write the tag we read as 0.
    if intent is not None:
        event = acquire(intent)
        frame = (intent, None)
        return *put((goals, stack + (frame,), 0, None, None)), event

    if busy > 0:
        busy -= 1
        if busy == 0:
            if protocol.release:
                tags[grid.index(computing)] = _COMPLETE
            return *put((goals, stack[:-1], 0, None, None)), None
        return *put((goals, stack, busy, computing, None)), None

    if not stack:
        goals = list(goals)
        while goals:
            node = goals.pop(0)
            tag = tags[grid.index(node)]
            if tag == _COMPLETE:
                continue
            if tag == _NOT_STARTED:
                if not protocol.atomic_acquire:
                    return *put((tuple(goals), stack, 0, None, node)), None
                event = acquire(node)
                frame = (node, None)
                return *put((tuple(goals), stack + (frame,), 0, None, None)), event
            # In progress elsewhere: spin on our exit brick.
            goals.insert(0, node)
            return *put((tuple(goals), stack, 0, None, None)), None
        return *put(_IDLE), None

    node, blocked = stack[-1]
    pending = grid.deps(node) if blocked is None else blocked
    keep = []
    for i, dep in enumerate(pending):
        tag = tags[grid.index(dep)]
        if tag == _COMPLETE:
            continue
        if tag == _IN_PROGRESS:
            keep.append(dep)
            continue
        # state 0: descend into this dependency.
        rest = tuple(keep) + tuple(pending[i + 1:])
        new_stack = stack[:-1] + ((node, rest),)
        if not protocol.atomic_acquire:
            return *put((goals, new_stack, 0, None, dep)), None
        event = acquire(dep)
        return *put((goals, new_stack + ((dep, None),), 0, None, None)), event
    if keep:
        # Stall: every pending dependency is in progress elsewhere.
        return *put((goals, stack[:-1] + ((node, tuple(keep)),), 0, None, None)), None
    # All dependencies complete: compute.
    return *put((goals, stack, grid.compute_turns, node, None)), None


def explore_protocol(
    grid: GridModel = GridModel(),
    protocol: ProtocolModel = ProtocolModel(),
    max_states: int = 500_000,
) -> AnalysisReport:
    """Exhaustively explore every interleaving; report protocol violations.

    Each distinct violation code is reported once, with the shortest-first
    counterexample interleaving (the sequence of worker indices stepped) in
    ``Diagnostic.detail``.
    """
    report = AnalysisReport()
    seen_codes: set[str] = set()

    def add(code: str, message: str, path: tuple[int, ...]) -> None:
        if code in seen_codes:
            return
        seen_codes.add(code)
        report.add(Diagnostic(
            pass_name="protocol", code=f"protocol.{code}", severity=Severity.ERROR,
            message=f"{message} (grid {grid.layers}x{grid.bricks}, "
                    f"{grid.workers} workers; interleaving {list(path)})",
            detail=list(path)))

    n = grid.num_nodes()
    init = (tuple([_NOT_STARTED] * n), tuple([0] * n),
            tuple((tuple(g), (), 0, None, None) for g in grid.goals()))
    visited = {init}
    stack: list[tuple[tuple, tuple[int, ...]]] = [(init, ())]
    truncated = False

    while stack:
        (tags, owns, workers), path = stack.pop()
        active = [w for w in range(grid.workers) if workers[w] != _IDLE]
        if not active:
            # Terminal state: check completeness and exactly-once.
            for node in ((l, i) for l in range(grid.layers) for i in range(grid.bricks)):
                idx = grid.index(node)
                if owns[idx] and tags[idx] != _COMPLETE:
                    add("lost-release",
                        f"brick L{node[0]}/{node[1]} was owned but never released "
                        f"to COMPLETE (tag {tags[idx]})", path)
            for i in range(grid.bricks):
                if tags[grid.index((grid.layers - 1, i))] != _COMPLETE:
                    add("incomplete",
                        f"terminal state reached with goal brick {i} not complete", path)
            continue

        progressed = False
        for w in active:
            nxt_tags, nxt_owns, nxt_workers, event = _step(
                grid, protocol, tags, owns, workers, w)
            nxt = (nxt_tags, nxt_owns, nxt_workers)
            if event == "double-compute":
                node = next(node for node, blocked in nxt_workers[w][1][-1:])
                add("double-compute",
                    f"worker {w} acquired brick L{node[0]}/{node[1]} that another "
                    f"worker already owns", path + (w,))
            if nxt == (tags, owns, workers):
                continue  # a pure stall turn; not a new state
            progressed = True
            if nxt not in visited:
                if len(visited) >= max_states:
                    truncated = True
                    continue
                visited.add(nxt)
                stack.append((nxt, path + (w,)))
        if not progressed:
            # Work remains but no interleaving can change the state again.
            stalled = [w for w in active]
            bricks = sorted((l, i) for l in range(grid.layers)
                            for i in range(grid.bricks)
                            if tags[grid.index((l, i))] == _IN_PROGRESS)
            add("stall-deadlock",
                f"workers {stalled} spin forever on in-progress bricks "
                f"{[f'L{l}/{i}' for l, i in bricks]}", path)

    if truncated:
        report.add(Diagnostic(
            pass_name="protocol", code="protocol.truncated", severity=Severity.WARNING,
            message=f"state space exceeded max_states={max_states}; "
                    f"exploration incomplete"))
    return report
