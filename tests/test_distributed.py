"""Distributed (spatial model parallel) execution tests."""

import numpy as np
import pytest

from repro.core.engine import BrickDLEngine
from repro.core.reference import ReferenceExecutor
from repro.distributed import CommModel, DistributedRunner
from repro.errors import ExecutionError
from repro.graph.builder import GraphBuilder
from repro.graph.tensorspec import TensorSpec
from repro.stencil import build_heat_graph, build_vcycle_graph, reference_heat, reference_vcycle

from testlib import input_for


def conv_trunk(size=24, batch=1):
    b = GraphBuilder("trunk", TensorSpec(batch, 3, (size, size)))
    b.conv_bn_relu(8, 3, prefix="c1")
    b.conv_bn_relu(8, 3, prefix="c2")
    b.conv(8, 3, stride=2, padding=1, name="down")
    b.conv_bn_relu(8, 3, prefix="c3")
    return b.finish()


def _counted_values(runner, x):
    """A distributed run's outputs: the runner only counts (halo rows,
    messages, per-rank flops); the values are the engine's."""
    assert runner.run().num_ranks == runner.num_ranks
    return BrickDLEngine(runner.graph).values(x)


class TestEquivalence:
    # Batch-1 cases keep plain rank ids.
    @pytest.mark.parametrize("ranks, batch", [
        pytest.param(ranks, batch, id=str(ranks) if batch == 1 else f"{ranks}-batch{batch}")
        for batch in (1, 2) for ranks in (1, 2, 3, 4)])
    def test_conv_trunk(self, ranks, batch):
        """Every sample of a batch comes back."""
        g = conv_trunk(batch=batch)
        g.init_weights()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        got = _counted_values(DistributedRunner(conv_trunk(batch=batch), num_ranks=ranks), x)
        for k in ref:
            assert got[k].shape == ref[k].shape
            np.testing.assert_allclose(got[k], ref[k], atol=1e-4, rtol=1e-4)

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_heat_chain(self, ranks):
        u0 = np.random.default_rng(0).standard_normal((32, 32)).astype(np.float32)
        got = _counted_values(DistributedRunner(build_heat_graph(6, 32), num_ranks=ranks), u0[None, None])
        out = list(got.values())[0][0, 0]
        np.testing.assert_allclose(out, reference_heat(u0, 6), atol=1e-5)

    def test_multigrid_vcycle(self):
        """A branchy graph with restriction and prolongation still splits."""
        n = 32
        rng = np.random.default_rng(1)
        f = rng.standard_normal((n, n)).astype(np.float32)
        u0 = np.zeros((n, n), np.float32)
        got = _counted_values(DistributedRunner(build_vcycle_graph(n), num_ranks=4), np.stack([u0, f])[None])
        np.testing.assert_allclose(got["u_out"][0, 0], reference_vcycle(u0, f), atol=1e-4)

    def test_uneven_partition(self):
        """Extents not divisible by ranks still reassemble exactly."""
        g = conv_trunk(size=26)
        g.init_weights()
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        got = _counted_values(DistributedRunner(conv_trunk(size=26), num_ranks=4), x)
        for k in ref:
            np.testing.assert_allclose(got[k], ref[k], atol=1e-4, rtol=1e-4)


class TestValidation:
    def test_global_ops_rejected(self):
        from testlib import small_chain_graph

        with pytest.raises(ExecutionError, match="global"):
            DistributedRunner(small_chain_graph(), num_ranks=2)

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ExecutionError, match="extent"):
            DistributedRunner(conv_trunk(size=24), num_ranks=16)  # 12-row layer

    def test_kernel_below_stride_deconv_outputs_are_the_engine_values(self):
        """The runner counts this graph, and its outputs are the engine's
        values: the engine plans it onto the fallback path and computes it
        exactly (merged execution refuses it, see ``tests/test_engine.py``)."""
        b = GraphBuilder("holes", TensorSpec(1, 4, (8, 8)))
        b.conv(4, 3, padding=1, name="conv")
        b.deconv(4, 1, stride=2, name="up")
        runner = DistributedRunner(b.finish(), num_ranks=2)
        x = input_for(runner.graph)
        got = _counted_values(runner, x)
        want = BrickDLEngine(runner.graph).values(x)
        assert got.keys() == want.keys()
        for name, ref in ReferenceExecutor(runner.graph).run(x).items():
            assert got[name].tobytes() == want[name].tobytes(), name
            np.testing.assert_allclose(got[name], ref, atol=1e-4, rtol=1e-4, err_msg=name)
        assert runner.run().compute_time_s > 0


class TestCommunication:
    def test_single_rank_no_comm(self):
        res = DistributedRunner(build_heat_graph(2, 16), num_ranks=1).run()
        assert res.comm.messages == 0 and res.comm.bytes == 0

    def test_deeper_merges_fewer_messages_same_volume(self):
        results = {}
        for sched in ((1,), (3,), (6,)):
            r = DistributedRunner(build_heat_graph(6, 32), num_ranks=4, layer_schedule=sched)
            results[sched] = r.run()
        # Message count scales with exchange steps (one per subgraph)...
        assert results[(1,)].comm.messages > results[(3,)].comm.messages > results[(6,)].comm.messages
        # ...while total halo volume is the telescoped same.
        assert results[(1,)].comm.bytes == results[(6,)].comm.bytes
        # Latency-dominated comm time drops with merging.
        assert results[(6,)].comm.time_s < results[(1,)].comm.time_s

    def test_redundant_compute_grows_with_depth(self):
        shallow = DistributedRunner(build_heat_graph(6, 32), num_ranks=4, layer_schedule=(1,)).run()
        deep = DistributedRunner(build_heat_graph(6, 32), num_ranks=4, layer_schedule=(6,)).run()
        assert sum(deep.per_rank_flops) > sum(shallow.per_rank_flops)

    def test_comm_model_costing(self):
        m = CommModel(latency_s=1e-6, bandwidth=1e9)
        t = m.exchange_step([1000, 2000])
        assert t == pytest.approx(1e-6 + 2000 / 1e9)
        assert m.counters.messages == 2 and m.counters.bytes == 3000

    def test_result_accounting(self):
        res = DistributedRunner(build_heat_graph(4, 32), num_ranks=2).run()
        assert res.total_time_s == pytest.approx(res.compute_time_s + res.comm.time_s)
        assert res.load_imbalance >= 0
        assert len(res.per_rank_flops) == 2
