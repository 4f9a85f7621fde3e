"""Empirical plan tuning: sweep strategies and brick sizes per subgraph.

BrickDL chooses its merged-execution strategy and brick size with *static*
models (sections 3.3.2-3.3.3).  The paper's microbenchmark study closes by
noting that the optimal choice "depends on the problem specifications and
hardware characteristics" -- which is an invitation to tune empirically.
This module does exactly that, in the spirit of the autotuning systems the
paper cites (Ansor, FlexTensor): each merged subgraph is profiled in
isolation under every candidate (strategy x brick) configuration on the
simulated device, and the plan is rewritten with the measured-best choice.

The tuner doubles as the validation harness for the static models: the
``agreement`` report says how often the delta-threshold and tau models pick
the measured winner (see ``benchmarks/bench_tuner.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import BrickDLEngine
from repro.core.perfmodel import DEFAULT_CONFIG, PerfModelConfig
from repro.core.plan import ExecutionPlan, Strategy, SubgraphPlan
from repro.graph.ir import Graph
from repro.graph.traversal import materialize_subgraph
from repro.gpusim.spec import A100, GPUSpec

__all__ = ["TunedChoice", "TuningReport", "tune_plan"]

MERGED_STRATEGIES = (Strategy.PADDED, Strategy.MEMOIZED, Strategy.WAVEFRONT)

@dataclass(frozen=True)
class TunedChoice:
    """Measured-best configuration for one subgraph."""

    index: int
    strategy: Strategy
    brick: int
    time: float
    model_strategy: Strategy
    model_brick: int
    model_time: float

    @property
    def model_agrees_strategy(self) -> bool:
        return self.strategy is self.model_strategy

    @property
    def model_agrees_brick(self) -> bool:
        return self.brick == self.model_brick

    @property
    def gain_over_model(self) -> float:
        """Fractional time saved by tuning vs the static-model choice."""
        if self.model_time <= 0:
            return 0.0
        return 1.0 - self.time / self.model_time


@dataclass
class TuningReport:
    """Outcome of tuning a whole plan."""

    choices: list[TunedChoice] = field(default_factory=list)
    # Candidates skipped without simulation by ``effect_prune``.
    pruned: int = 0

    @property
    def strategy_agreement(self) -> float:
        if not self.choices:
            return 1.0
        return sum(c.model_agrees_strategy for c in self.choices) / len(self.choices)

    @property
    def brick_agreement(self) -> float:
        if not self.choices:
            return 1.0
        return sum(c.model_agrees_brick for c in self.choices) / len(self.choices)

    def summary(self) -> str:
        pruned = f", {self.pruned} candidates pruned without simulation" if self.pruned else ""
        lines = [
            f"Tuned {len(self.choices)} subgraphs: strategy agreement "
            f"{self.strategy_agreement:.0%}, brick agreement {self.brick_agreement:.0%}"
            f"{pruned}"
        ]
        for c in self.choices:
            mark = "=" if c.model_agrees_strategy and c.model_agrees_brick else "!"
            lines.append(
                f"  [{mark}] subgraph {c.index}: tuned {c.strategy.value}/B{c.brick} "
                f"({c.time * 1e3:.3f} ms) vs model {c.model_strategy.value}/B{c.model_brick} "
                f"({c.model_time * 1e3:.3f} ms, tuning gain {c.gain_over_model:+.1%})"
            )
        return "\n".join(lines)


def _profile_subgraph(
    sub: SubgraphPlan,
    strategy: Strategy,
    brick: int,
    spec: GPUSpec,
    config: PerfModelConfig,
) -> float | None:
    """Simulated time of one subgraph under one configuration (None = inapplicable)."""
    from repro.core.wavefront import is_chain_subgraph

    if strategy is Strategy.WAVEFRONT and not is_chain_subgraph(sub.subgraph):
        return None
    model = materialize_subgraph(sub.subgraph, name=f"tune/sub{sub.index}")
    engine = BrickDLEngine(
        model, spec=spec, config=config,
        strategy_override=strategy, brick_override=brick,
        layer_schedule=(len(sub.subgraph),),
    )
    return engine.run().metrics.total_time


def tune_plan(
    graph: Graph,
    spec: GPUSpec = A100,
    config: PerfModelConfig = DEFAULT_CONFIG,
    bricks: tuple[int, ...] | None = None,
    strategies: tuple[Strategy, ...] = MERGED_STRATEGIES,
    prune: bool = True,
) -> tuple[ExecutionPlan, TuningReport]:
    """Compile ``graph`` and replace each merged subgraph's configuration
    with the measured-best (strategy, brick); returns the tuned plan and a
    report comparing against the static models.

    With ``prune`` (the default) a candidate is skipped unsimulated when its
    static effect-analysis time lower bound already meets the incumbent's
    measured time (:func:`repro.analysis.effect_prune` -- provably
    winner-preserving: the incumbent is replaced only on a strictly smaller
    measured time); ``prune=False`` simulates every candidate.
    """
    # Imported lazily: repro.analysis depends on repro.core.
    from repro.analysis.effects import effect_prune

    bricks = bricks if bricks is not None else config.brick_candidates
    base_plan = BrickDLEngine(graph, spec=spec, config=config).compile()
    report = TuningReport()

    tuned_subgraphs: list[SubgraphPlan] = []
    for sub in base_plan.subgraphs:
        if not sub.is_merged:
            tuned_subgraphs.append(sub)
            continue
        model_brick = max(sub.brick_shape)
        model_time = _profile_subgraph(sub, sub.strategy, model_brick, spec, config)
        best = (sub.strategy, model_brick, model_time)
        for strategy in strategies:
            for brick in bricks:
                if brick < max(1, min(sub.brick_shape)) // 4:
                    continue
                if (strategy, brick) == (sub.strategy, model_brick):
                    continue
                if prune and effect_prune(sub, strategy, brick, spec, config, best[2]):
                    report.pruned += 1
                    continue
                t = _profile_subgraph(sub, strategy, brick, spec, config)
                if t is not None and t < best[2]:
                    best = (strategy, brick, t)
        strategy, brick, time = best
        report.choices.append(TunedChoice(
            index=sub.index, strategy=strategy, brick=brick, time=time,
            model_strategy=sub.strategy, model_brick=model_brick, model_time=model_time,
        ))
        exit_spec = graph.node(sub.subgraph.exit_ids[-1]).spec
        tuned_subgraphs.append(SubgraphPlan(
            index=sub.index, subgraph=sub.subgraph, strategy=strategy,
            brick_shape=tuple(min(brick, e) for e in exit_spec.spatial),
            delta=sub.delta, rho=sub.rho, footprint_bytes=sub.footprint_bytes,
            reason=f"tuned (model said {sub.strategy.value}/B{model_brick})",
        ))

    return ExecutionPlan(graph, tuned_subgraphs), report
