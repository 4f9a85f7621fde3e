"""Model zoo tests: all seven networks build, shape-check, and (reduced)
run identically under the reference executor, BrickDL and the baseline."""


import numpy as np
import pytest

from repro.baselines import CudnnBaseline
from repro.core import BrickDLEngine, ReferenceExecutor
from repro.core.plan import Strategy
from repro.errors import ReproError
from repro.models import MODELS, build

from testlib import input_for

ALL = sorted(MODELS)


class TestConstruction:
    @pytest.mark.parametrize("name", ALL)
    def test_full_scale_builds(self, name):
        g = build(name)
        g.validate()
        assert len(g) > 20

    @pytest.mark.parametrize("name", ALL)
    def test_reduced_builds(self, name):
        g = build(name, reduced=True)
        g.validate()

    def test_unknown_model(self):
        with pytest.raises(ReproError):
            build("alexnet")

    def test_flop_sanity_full_scale(self):
        """Known ballpark figures (2x MACs) for the classic models."""
        assert 25e9 < build("vgg16").total_flops() < 40e9
        assert 6e9 < build("resnet50").total_flops() < 11e9
        assert 10e9 < build("darknet53").total_flops() < 20e9

    def test_classifier_outputs(self):
        for name in ("vgg16", "resnet50", "darknet53", "drn26", "inception_v4", "resnet3d34"):
            g = build(name, reduced=True)
            out = g.output_nodes[0]
            assert out.spec.spatial == ()  # class vector

    def test_deepcam_is_dense_prediction(self):
        g = build("deepcam", reduced=True)
        out = g.output_nodes[0]
        inp = g.input_nodes[0]
        assert out.spec.spatial == inp.spec.spatial  # per-pixel map

    def test_resnet50_has_projection_and_identity_skips(self):
        g = build("resnet50", reduced=True)
        names = [n.name for n in g.nodes]
        assert "stage1/block1/proj" in names
        assert "stage1/block2/add" in names and "stage1/block2/proj" not in names

    def test_drn_has_dilated_convs(self):
        g = build("drn26", reduced=True)
        dilated = [n for n in g.nodes if getattr(n.op, "dilation", None) and max(n.op.dilation) > 1]
        assert dilated

    def test_inception_has_concats(self):
        g = build("inception_v4", reduced=True)
        assert any(n.op.kind == "concat" for n in g.nodes)

    def test_deepcam_has_deconvs(self):
        g = build("deepcam", reduced=True)
        assert any(n.op.kind == "convtranspose" for n in g.nodes)

    def test_resnet3d_is_3d(self):
        g = build("resnet3d34", reduced=True)
        assert g.input_nodes[0].spec.spatial_ndim == 3


@pytest.mark.parametrize("name", ALL)
class TestFunctionalEquivalence:
    def test_brickdl_matches_reference(self, name):
        g = build(name, reduced=True)
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(build(name, reduced=True)).run(x)
        for key, expected in ref.items():
            np.testing.assert_allclose(res.outputs[key], expected, atol=2e-3, rtol=1e-2)

    def test_cudnn_baseline_matches_reference(self, name):
        g = build(name, reduced=True)
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        got = CudnnBaseline(build(name, reduced=True)).values(x)
        for key, expected in ref.items():
            np.testing.assert_allclose(got[key], expected, atol=2e-3, rtol=1e-2)


class TestForcedStrategies:
    """The merged strategies must stay correct on branchy reduced models."""

    @pytest.mark.parametrize("name", ["resnet50", "inception_v4", "deepcam"])
    @pytest.mark.parametrize("strategy", [Strategy.PADDED, Strategy.MEMOIZED])
    def test_forced(self, name, strategy):
        g = build(name, reduced=True)
        x = input_for(g)
        ref = ReferenceExecutor(g).run(x)
        res = BrickDLEngine(build(name, reduced=True), strategy_override=strategy).run(x)
        for key, expected in ref.items():
            np.testing.assert_allclose(res.outputs[key], expected, atol=2e-3, rtol=1e-2)
