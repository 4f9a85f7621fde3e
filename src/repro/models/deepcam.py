"""DeepCAM -- climate-segmentation network (Kurth et al., SC'18).

Encoder-decoder segmentation architecture: a strided-convolution encoder, an
ASPP (atrous/asymmetric spatial pyramid pooling) bottleneck of parallel
dilated convolutions concatenated channel-wise, and a transposed-convolution
decoder restoring full resolution for the per-pixel class map.  Exercises
the two operator types unique to this model in the paper's mix:
deconvolutions (transposed convs) and multi-rate dilated branches.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.graph.ir import Graph, Node
from repro.models.common import scaled
from repro.graph.tensorspec import TensorSpec

__all__ = ["build_deepcam"]


# Dilation rates of the ASPP's parallel 3x3 branches.
_ASPP_RATES = (1, 2, 4)


def _enc_block(b: GraphBuilder, channels: int, stride: int, prefix: str) -> Node:
    b.conv(channels, 3, stride=stride, padding=1, bias=False, name=f"{prefix}/conv")
    b.batchnorm(name=f"{prefix}/bn")
    return b.relu(name=f"{prefix}/relu")


def build_deepcam(
    image_size: int = 192,
    in_channels: int = 16,
    num_classes: int = 3,
    width_scale: float = 1.0,
    batch: int = 1,
) -> Graph:
    """DeepCAM-style segmenter.

    The real DeepCAM consumes 16-channel climate fields (768x1152); the
    default here keeps the channel structure with a GPU-friendly square
    input.  ``num_classes`` per-pixel classes (background / TC / AR).
    """
    b = GraphBuilder("deepcam", TensorSpec(batch, in_channels, (image_size, image_size)))
    c64 = scaled(64, width_scale)
    c128 = scaled(128, width_scale)
    c256 = scaled(256, width_scale)

    # Encoder: 1/2 -> 1/4 -> 1/8 resolution.
    _enc_block(b, c64, 1, "enc1a")
    _enc_block(b, c64, 2, "enc1b")
    _enc_block(b, c128, 1, "enc2a")
    _enc_block(b, c128, 2, "enc2b")
    _enc_block(b, c256, 1, "enc3a")
    bottom = _enc_block(b, c256, 2, "enc3b")

    # ASPP: parallel dilated 3x3 branches + 1x1 branch, concatenated.
    branches = []
    b.conv(c64, 1, bias=False, src=bottom, name="aspp/point")
    b.batchnorm(name="aspp/point_bn")
    branches.append(b.relu(name="aspp/point_relu"))
    for rate in _ASPP_RATES:
        b.conv(c64, 3, padding=rate, dilation=rate, bias=False, src=bottom, name=f"aspp/rate{rate}")
        b.batchnorm(name=f"aspp/rate{rate}_bn")
        branches.append(b.relu(name=f"aspp/rate{rate}_relu"))
    b.concat(branches, name="aspp/concat")
    b.conv(c256, 1, bias=False, name="aspp/fuse")
    b.batchnorm(name="aspp/fuse_bn")
    b.relu(name="aspp/fuse_relu")

    # Decoder: three stride-2 deconvolutions back to full resolution.
    b.deconv(c128, 4, stride=2, padding=1, name="dec1/deconv")
    b.batchnorm(name="dec1/bn")
    b.relu(name="dec1/relu")
    b.deconv(c64, 4, stride=2, padding=1, name="dec2/deconv")
    b.batchnorm(name="dec2/bn")
    b.relu(name="dec2/relu")
    b.deconv(c64, 4, stride=2, padding=1, name="dec3/deconv")
    b.batchnorm(name="dec3/bn")
    b.relu(name="dec3/relu")

    # Per-pixel classifier head.
    b.conv(num_classes, 1, name="head/conv")
    b.softmax(name="head/softmax")
    return b.finish()
