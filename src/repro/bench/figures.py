"""Experiment drivers: one function per evaluation figure of the paper.

Each driver returns structured results and can render the same rows/series
the paper plots:

* :func:`fig7_end_to_end`   -- seven models x {cuDNN, BrickDL, TorchScript,
  XLA}, normalized execution time with memory/compute split (Fig. 7);
* :func:`fig8_resnet_case_study` -- ResNet-50 subgraphs x {cuDNN, padded,
  memoized} full time breakdowns (Fig. 8);
* :func:`fig9_data_movement` -- the same subgraphs' L1/L2/DRAM transactions
  relative to cuDNN (Fig. 9);
* :func:`fig10_subgraph_size` -- 6-layer proxy, merge configurations
  2+2+2 / 3+3 / 4+2 / 6 for both strategies (Fig. 10);
* :func:`fig11_brick_size` -- 3-layer proxy, brick sizes 4^3..32^3 for both
  strategies (Fig. 11);
* ablation drivers for the design constants (delta threshold, tau, L2).
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

from repro.baselines.cudnn import CudnnBaseline
from repro.baselines.torchscript import TorchScriptBaseline
from repro.baselines.xla import XlaBaseline
from repro.bench.harness import run_brickdl, run_conventional, scale_preset
from repro.bench.proxies import six_layer_proxy, three_layer_proxy
from repro.bench.reporting import BreakdownRow, format_breakdowns, format_table
from repro.core.engine import BrickDLEngine
from repro.core.perfmodel import PerfModelConfig
from repro.core.plan import Strategy
from repro.graph.traversal import materialize_subgraph
from repro.gpusim.spec import A100, GPUSpec
from repro.models import zoo

__all__ = [
    "fig7_end_to_end",
    "fig8_resnet_case_study",
    "fig9_data_movement",
    "fig10_subgraph_size",
    "fig11_brick_size",
    "ablation_delta_threshold",
    "ablation_tau",
    "ablation_l2_capacity",
    "ablation_cross_architecture",
]

# Paper order of the Fig. 7 x-axis.
FIG7_MODEL_ORDER = ("resnet50", "drn26", "resnet3d34", "darknet53", "vgg16", "deepcam", "inception_v4")

_IMAGE_SIZE = {"small": 96, "half": 160, "full": 224}
_CLIP_SIZE = {"small": (8, 48, 48), "half": (12, 80, 80), "full": (16, 112, 112)}
# The ResNet-50 case study needs enough spatial extent for ~7 merged
# subgraphs before the tiny-layer fallback kicks in.
_FIG8_SIZE = {"small": 160, "half": 224, "full": 224}
_FIG10_SIZE = {"small": 56, "half": 112, "full": 112}
# The brick-size sweep is only meaningful when a 32^3 brick still leaves a
# usable grid; 112^3 is the smallest faithful size (the paper uses 224^3).
_FIG11_SIZE = {"small": 112, "half": 112, "full": 224}


def _manifest_path(manifest_dir: "str | os.PathLike | None",
                   stem: str) -> pathlib.Path | None:
    """Per-run manifest destination inside a figure's output directory.

    The drivers persist one :class:`~repro.metrics.RunManifest` per BrickDL
    configuration so every plotted bar carries plan/spec provenance; ``None``
    (no directory) disables recording.
    """
    if manifest_dir is None:
        return None
    directory = pathlib.Path(manifest_dir)
    directory.mkdir(parents=True, exist_ok=True)
    safe = stem.replace("+", "-").replace("/", "_").replace(" ", "_")
    return directory / f"{safe}.manifest.json"


def _model_kwargs(name: str, scale: str) -> dict:
    if name == "resnet3d34":
        return {"clip": _CLIP_SIZE[scale]}
    if name == "deepcam":
        return {"image_size": _IMAGE_SIZE[scale]}
    return {"image_size": _IMAGE_SIZE[scale]}


@dataclass
class FigureResult:
    """Rows of one figure, grouped for rendering."""

    name: str
    groups: dict[str, list[BreakdownRow]]

    def render(self) -> str:
        parts = [f"== {self.name} =="]
        for group, rows in self.groups.items():
            base = rows[0]
            parts.append(format_breakdowns(rows, title=f"-- {group} --", relative_to=base))
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Fig. 7: end-to-end model inference
# ---------------------------------------------------------------------------

def fig7_end_to_end(
    models: tuple[str, ...] = FIG7_MODEL_ORDER,
    spec: GPUSpec = A100,
    scale: str | None = None,
    manifest_dir: "str | os.PathLike | None" = None,
) -> FigureResult:
    """Seven models under cuDNN / BrickDL / TorchScript / XLA."""
    scale = scale or scale_preset()
    groups: dict[str, list[BreakdownRow]] = {}
    for name in models:
        graph_for = lambda: zoo.MODELS[name](**_model_kwargs(name, scale))
        rows = [run_conventional(CudnnBaseline, graph_for(), spec=spec)]
        brick_row, _ = run_brickdl(graph_for(), spec=spec, label="brickdl",
                                   manifest=_manifest_path(manifest_dir, f"fig7__{name}__brickdl"))
        rows.append(brick_row)
        rows.append(run_conventional(TorchScriptBaseline, graph_for(), spec=spec))
        rows.append(run_conventional(XlaBaseline, graph_for(), spec=spec))
        groups[name] = rows
    return FigureResult(name=f"Fig. 7 end-to-end inference (scale={scale})", groups=groups)


def fig7_summary_table(result: FigureResult) -> str:
    """The headline normalized numbers: execution time relative to cuDNN."""
    headers = ["model", "cudnn", "brickdl", "torchscript", "xla",
               "speedup vs cudnn", "dram-time vs cudnn"]
    rows = []
    for model, bars in result.groups.items():
        base = bars[0]
        norm = {r.label: r.total / base.total for r in bars}
        brick = next(r for r in bars if r.label == "brickdl")
        rows.append([
            model,
            "1.000",
            f"{norm['brickdl']:.3f}",
            f"{norm['torchscript']:.3f}",
            f"{norm['xla']:.3f}",
            f"{(1 - brick.total / base.total) * 100:+.1f}%",
            f"{(1 - brick.dram / base.dram) * 100:+.1f}%" if base.dram else "n/a",
        ])
    return format_table(headers, rows, title=result.name)


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 9: ResNet-50 case study
# ---------------------------------------------------------------------------

def fig8_resnet_case_study(
    spec: GPUSpec = A100,
    scale: str | None = None,
    num_subgraphs: int = 7,
    manifest_dir: "str | os.PathLike | None" = None,
) -> FigureResult:
    """First ``num_subgraphs`` merged ResNet-50 subgraphs under
    cuDNN / padded / memoized (each subgraph run in isolation)."""
    scale = scale or scale_preset()
    graph = zoo.MODELS["resnet50"](image_size=_FIG8_SIZE[scale])
    plan = BrickDLEngine(graph, spec=spec).compile()
    merged = [s for s in plan.subgraphs if s.is_merged][:num_subgraphs]

    groups: dict[str, list[BreakdownRow]] = {}
    for i, sub in enumerate(merged, start=1):
        sub_model = materialize_subgraph(sub.subgraph, name=f"resnet50/sub{i}")
        brick = max(sub.brick_shape) if sub.brick_shape else None
        rows = [run_conventional(CudnnBaseline, sub_model, spec=spec)]
        for strategy in (Strategy.PADDED, Strategy.MEMOIZED):
            row, _ = run_brickdl(
                materialize_subgraph(sub.subgraph, name=f"resnet50/sub{i}"),
                spec=spec,
                strategy=strategy,
                brick=brick,
                layer_schedule=(len(sub.subgraph),),
                label=strategy.value,
                manifest=_manifest_path(manifest_dir, f"fig8__sub{i}__{strategy.value}"),
            )
            rows.append(row)
        chosen = sub.strategy.value
        groups[f"subgraph {i} ({len(sub.subgraph)} ops, delta={sub.delta:.0%}, model chose {chosen})"] = rows
    return FigureResult(name=f"Fig. 8 ResNet-50 case study (scale={scale})", groups=groups)


def fig9_data_movement(fig8: FigureResult) -> str:
    """Fig. 9's normalized transaction counts, derived from the Fig. 8 runs.

    DRAM traffic is reported both folded and split read/write: the paper's
    Fig. 9 separates the two, and merged execution moves them differently
    (reads drop with reuse, writes with on-device intermediate death).
    """
    headers = ["subgraph", "strategy", "L1 vs cudnn", "L2 vs cudnn", "DRAM vs cudnn",
               "DRAM rd vs cudnn", "DRAM wr vs cudnn"]

    def fmt(x: float) -> str:
        return "n/a" if x != x else f"{x:.3f}"  # NaN: zero-count baseline

    rows = []
    for group, bars in fig8.groups.items():
        base = bars[0]
        for r in bars[1:]:
            n = r.normalized_to(base)
            rows.append([group.split(" (")[0], r.label,
                         fmt(n["l1_txns"]), fmt(n["l2_txns"]), fmt(n["dram_txns"]),
                         fmt(n["dram_read_txns"]), fmt(n["dram_write_txns"])])
    return format_table(headers, rows, title="Fig. 9 ResNet-50 data movement (relative to cuDNN)")


# ---------------------------------------------------------------------------
# Fig. 10: merge-depth sweep on the 6-layer proxy
# ---------------------------------------------------------------------------

MERGE_CONFIGS: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("2+2+2", (2, 2, 2)),
    ("3+3", (3, 3)),
    ("4+2", (4, 2)),
    ("6", (6,)),
)


def fig10_subgraph_size(
    spec: GPUSpec = A100,
    scale: str | None = None,
    brick: int = 8,
    manifest_dir: "str | os.PathLike | None" = None,
) -> FigureResult:
    scale = scale or scale_preset()
    size = _FIG10_SIZE[scale]
    rows: list[BreakdownRow] = [
        run_conventional(CudnnBaseline, six_layer_proxy(size=size), spec=spec)
    ]
    for label, schedule in MERGE_CONFIGS:
        for strategy in (Strategy.PADDED, Strategy.MEMOIZED):
            row, _ = run_brickdl(
                six_layer_proxy(size=size),
                spec=spec,
                strategy=strategy,
                brick=brick,
                layer_schedule=schedule,
                label=f"{label} {strategy.value}",
                manifest=_manifest_path(manifest_dir, f"fig10__{label}__{strategy.value}"),
            )
            rows.append(row)
    return FigureResult(
        name=f"Fig. 10 six-layer proxy, merge-depth sweep (size={size}^3, brick={brick}^3)",
        groups={"6-layer CNN proxy": rows},
    )


# ---------------------------------------------------------------------------
# Fig. 11: brick-size sweep on the 3-layer proxy
# ---------------------------------------------------------------------------

def fig11_brick_size(
    spec: GPUSpec = A100,
    scale: str | None = None,
    bricks: tuple[int, ...] = (4, 8, 16, 32),
    manifest_dir: "str | os.PathLike | None" = None,
) -> FigureResult:
    scale = scale or scale_preset()
    size = _FIG11_SIZE[scale]
    rows: list[BreakdownRow] = [
        run_conventional(CudnnBaseline, three_layer_proxy(size=size), spec=spec)
    ]
    for brick in bricks:
        for strategy in (Strategy.PADDED, Strategy.MEMOIZED):
            row, _ = run_brickdl(
                three_layer_proxy(size=size),
                spec=spec,
                strategy=strategy,
                brick=brick,
                layer_schedule=(3,),
                label=f"B{brick} {strategy.value}",
                manifest=_manifest_path(manifest_dir, f"fig11__B{brick}__{strategy.value}"),
            )
            rows.append(row)
    return FigureResult(
        name=f"Fig. 11 three-layer proxy, brick-size sweep (size={size}^3)",
        groups={"3-layer CNN proxy": rows},
    )


# ---------------------------------------------------------------------------
# Ablations of the design constants (DESIGN.md section 5)
# ---------------------------------------------------------------------------

# The candidate values each ablation sweeps.
_DELTA_THRESHOLDS = (0.05, 0.10, 0.15, 0.25, 0.50)
_TAUS = (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14)
_L2_SIZES_MB = (10, 20, 40, 80)


def ablation_delta_threshold(
    spec: GPUSpec = A100,
    scale: str | None = None,
    num_subgraphs: int = 5,
) -> str:
    """How often does the delta rule pick the measured-faster strategy?

    Runs the ResNet-50 case-study subgraphs once, then evaluates each
    candidate threshold against the measured padded/memoized times.
    """
    fig8 = fig8_resnet_case_study(spec=spec, scale=scale, num_subgraphs=num_subgraphs)
    deltas: list[float] = []
    padded_faster: list[bool] = []
    for group, bars in fig8.groups.items():
        delta = float(group.split("delta=")[1].split("%")[0]) / 100.0
        padded = next(r for r in bars if r.label == "padded")
        memo = next(r for r in bars if r.label == "memoized")
        deltas.append(delta)
        padded_faster.append(padded.total <= memo.total)
    headers = ["threshold", "agreement", "detail"]
    rows = []
    for th in _DELTA_THRESHOLDS:
        agree = sum(1 for d, pf in zip(deltas, padded_faster) if (d <= th) == pf)
        rows.append([f"{th:.0%}", f"{agree}/{len(deltas)}",
                     " ".join("P" if pf else "M" for pf in padded_faster)])
    return format_table(headers, rows, title="Ablation: delta threshold vs measured best strategy")


def ablation_tau(spec: GPUSpec = A100, scale: str | None = None) -> str:
    """Brick side chosen by the tau model vs the measured-fastest brick."""
    from repro.core.perfmodel import choose_brick_size

    fig11 = fig11_brick_size(spec=spec, scale=scale)
    rows_by_brick: dict[int, float] = {}
    for r in fig11.groups["3-layer CNN proxy"][1:]:
        brick = int(r.label.split()[0][1:])
        rows_by_brick[brick] = min(rows_by_brick.get(brick, float("inf")), r.total)
    best_measured = min(rows_by_brick, key=rows_by_brick.get)
    size = _FIG11_SIZE[scale or scale_preset()]
    headers = ["tau", "model brick", "measured best"]
    rows = []
    for tau in _TAUS:
        cfg = PerfModelConfig(tau=tau)
        decision = choose_brick_size((size,) * 3, cfg, kernel_extent=3)
        rows.append([tau, decision.brick, best_measured])
    return format_table(headers, rows, title=f"Ablation: tau vs measured-best brick (size={size}^3)")


def ablation_l2_capacity(spec: GPUSpec = A100, scale: str | None = None) -> str:
    """Effect of L2 capacity on the best Fig. 10 merge configuration."""
    scale = scale or scale_preset()
    size = _FIG10_SIZE[scale]
    headers = ["L2 (MB)", "config", "strategy", "total (ms)", "dram txns"]
    rows = []
    for mb in _L2_SIZES_MB:
        dspec = spec.with_l2(mb * 1024 * 1024)
        best = None
        for label, schedule in MERGE_CONFIGS:
            for strategy in (Strategy.PADDED, Strategy.MEMOIZED):
                row, _ = run_brickdl(
                    six_layer_proxy(size=size), spec=dspec, strategy=strategy,
                    brick=8, layer_schedule=schedule, label=f"{label} {strategy.value}",
                )
                if best is None or row.total < best.total:
                    best = row
        rows.append([mb, best.label.split()[0], best.label.split()[1],
                     f"{best.total * 1e3:.3f}", best.dram_txns])
    return format_table(headers, rows, title="Ablation: L2 capacity vs best merge configuration")


def ablation_cross_architecture(
    scale: str | None = None,
    num_subgraphs: int = 4,
) -> str:
    """The delta rule across GPU architectures (section 3.3.2: the 15 %
    threshold "has been validated on multiple NVIDIA and AMD GPU
    architectures").  Runs the ResNet-50 case-study subgraphs on the A100
    and MI100-class presets and reports the padded/memoized winner per
    subgraph on each."""
    from repro.gpusim.spec import A100 as _A100, MI100

    headers = ["subgraph", "delta"]
    winners: dict[str, list[str]] = {}
    deltas: list[str] = []
    for spec in (_A100, MI100):
        fig8 = fig8_resnet_case_study(spec=spec, scale=scale, num_subgraphs=num_subgraphs)
        headers.append(f"{spec.name} winner")
        col = []
        for group, bars in fig8.groups.items():
            padded = next(r for r in bars if r.label == "padded")
            memo = next(r for r in bars if r.label == "memoized")
            col.append("padded" if padded.total <= memo.total else "memoized")
            if spec is _A100:
                deltas.append(group.split("delta=")[1].split(",")[0])
        winners[spec.name] = col
    rows = []
    for i in range(len(deltas)):
        rows.append([f"subgraph {i + 1}", deltas[i]] + [winners[n][i] for n in winners])
    return format_table(headers, rows,
                        title="Ablation: measured-best strategy across GPU architectures")
