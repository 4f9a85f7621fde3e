"""Graph linter + typed structural validation (repro.analysis.graph_lint)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis import Severity, lint_graph
from repro.errors import GraphError
from repro.models import MODELS, build
from testlib import residual_graph, small_chain_graph

ALL = sorted(MODELS)


class TestZooClean:
    @pytest.mark.parametrize("name", ALL)
    def test_every_zoo_model_lints_clean(self, name):
        report = lint_graph(build(name, reduced=True))
        assert report.ok, report.summary(name)
        assert not report.warnings, report.summary(name)


class TestTypedValidate:
    """graph.validate() raises a GraphError naming the offender (satellite 2)."""

    def test_dangling_edge(self):
        g = small_chain_graph()
        victim = g.node(3)
        victim.inputs = victim.inputs[:-1] + (9999,)
        with pytest.raises(GraphError, match=rf"{victim.name!r}.*dangling.*9999"):
            g.validate()

    def test_arity_mismatch(self):
        g = residual_graph()
        add = next(n for n in g.nodes if n.op.kind == "add")
        add.inputs = add.inputs[:1]
        with pytest.raises(GraphError, match=rf"{add.name!r}.*expects 2 inputs, has 1"):
            g.validate()

    def test_topological_order_violation(self):
        g = small_chain_graph()
        victim = g.node(2)
        victim.inputs = (5,)
        with pytest.raises(GraphError, match="violates\\s+topological order"):
            g.validate()

    def test_stale_name_index(self):
        g = small_chain_graph()
        g.node(2).name = g.node(3).name
        with pytest.raises(GraphError, match="different node"):
            g.validate()

    def test_bad_output_id(self):
        g = small_chain_graph()
        g._outputs.append(4242)
        with pytest.raises(GraphError, match="output id 4242"):
            g.validate()

    def test_consumer_list_mismatch(self):
        g = small_chain_graph()
        g._consumers[1].append(0)
        with pytest.raises(GraphError, match="consumer list"):
            g.validate()

    def test_structural_errors_reports_all(self):
        g = small_chain_graph()
        g.node(3).inputs = g.node(3).inputs[:-1] + (9999,)
        g._outputs.append(4242)
        errors = g.structural_errors()
        assert len(errors) >= 2
        assert all(isinstance(e, GraphError) for e in errors)


class TestLintFindsSeededDefects:
    def test_linter_reuses_structural_errors(self):
        g = small_chain_graph()
        g.node(3).inputs = g.node(3).inputs[:-1] + (9999,)
        report = lint_graph(g)
        structural = report.by_code("graph.structure")
        assert len(structural) == len(g.structural_errors())
        # Structural breakage suppresses the downstream passes entirely.
        assert {d.code for d in report.diagnostics} == {"graph.structure"}

    def test_shape_mismatch(self):
        g = small_chain_graph()
        victim = next(n for n in g.nodes if n.op.kind == "conv")
        victim.spec = replace(victim.spec, channels=victim.spec.channels + 1)
        report = lint_graph(g)
        codes = {d.code for d in report.errors}
        assert "graph.shape-mismatch" in codes
        assert any(d.node_id == victim.node_id
                   for d in report.by_code("graph.shape-mismatch"))

    def test_dtype_mismatch(self):
        g = small_chain_graph()
        victim = g.node(2)
        victim.spec = replace(victim.spec, dtype="float64")
        report = lint_graph(g)
        assert report.by_code("graph.dtype-mismatch")

    def test_unreachable_node_is_warning_only(self):
        g = small_chain_graph()
        from repro.graph.ops import Activation

        g.add(Activation("relu"), [g.node(1)], name="orphan")
        report = lint_graph(g)
        assert report.ok  # warnings don't fail
        unreachable = report.by_code("graph.unreachable")
        assert unreachable and unreachable[0].severity is Severity.WARNING

    def test_roundtrip_checked(self):
        report = lint_graph(residual_graph())
        assert report.ok
        assert not report.by_code("graph.roundtrip-unstable")
