"""Result export tests and property-based random-DAG equivalence."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import figures
from repro.bench.export import figure_to_csv, figure_to_json, write_figure
from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.core.reference import ReferenceExecutor


@pytest.fixture(scope="module")
def small_figure():
    return figures.fig11_brick_size(scale="small", bricks=(8,))


class TestExport:
    def test_csv_structure(self, small_figure):
        text = figure_to_csv(small_figure)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "group" and "total" in rows[0]
        assert len(rows) == 1 + sum(len(r) for r in small_figure.groups.values())

    def test_json_roundtrip(self, small_figure):
        payload = json.loads(figure_to_json(small_figure))
        assert payload["name"] == small_figure.name
        group = next(iter(payload["groups"].values()))
        assert group[0]["label"] == "cudnn"

    def test_write_files(self, small_figure, tmp_path):
        c = write_figure(small_figure, tmp_path / "fig.csv")
        j = write_figure(small_figure, tmp_path / "fig.json")
        assert c.exists() and j.exists()
        with pytest.raises(ValueError):
            write_figure(small_figure, tmp_path / "fig.xlsx")


# The random-DAG corpus is shared with the rewrite property tests.
from testlib import random_dag  # noqa: E402


class TestRandomDagEquivalence:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_dag(), st.sampled_from([Strategy.PADDED, Strategy.MEMOIZED]))
    def test_merged_equals_naive_on_dags(self, graph, strategy):
        graph.init_weights()
        x = np.random.default_rng(0).standard_normal(graph.input_nodes[0].spec.shape).astype(np.float32)
        ref = ReferenceExecutor(graph).run(x)
        res = BrickDLEngine(graph, strategy_override=strategy, brick_override=4,
                            layer_schedule=(4,)).run(x)
        for k in ref:
            np.testing.assert_allclose(res.outputs[k], ref[k], atol=1e-3, rtol=1e-3)
