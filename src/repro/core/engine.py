"""The BrickDL engine: compile a graph, execute the plan.

``compile`` runs the static analyses of section 3.3 in order: graph
partitioning (L2-footprint + reduction/global boundaries), the brick-size
model (``rho <= tau``), and the padded-vs-memoized strategy model
(``delta > 15 %``), producing an :class:`~repro.core.plan.ExecutionPlan`.

``run`` executes the plan on a simulated device: merged subgraphs go through
the padded- or memoized-brick executors on brick-layout activations; global
operators and insufficient-parallelism subgraphs fall back to the tiled
vendor-library path (section 3.3.3).  Activations crossing representation
boundaries are converted explicitly -- the paper's "cost of creating bricks",
which the metrics include.

Every product has one producer.  The simulated run only counts: access
streams, timing, attribution.  ``values`` computes the outputs (numerics
checkable against :class:`~repro.core.reference.ReferenceExecutor`) with no
device at all; a functional ``run`` is ``values`` followed by the same counted
run a profile-mode one does.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.core.bricked import bricked_nbytes
from repro.core.bricktask import BrickTasks, Screen, screen_bricks
from repro.core.geometry import SubgraphGeometry
from repro.core.halo import padding_growth
from repro.core.handles import BrickedHandle, DenseHandle
from repro.core.memoized import MemoizedBrickExecutor
from repro.core.padded import PaddedBrickExecutor
from repro.core.partition import merged_footprint_bytes, partition_graph
from repro.core.perfmodel import (
    DEFAULT_CONFIG,
    PerfModelConfig,
    choose_brick_size,
    choose_strategy,
    parallelism,
)
from repro.core.plan import ExecutionPlan, Strategy, SubgraphPlan, adapt_sectors
from repro.errors import ExecutionError, PlanError
from repro.graph.ir import Graph, Node
from repro.graph.regions import Region
from repro.graph.ops import Conv, ConvTranspose, FusedOp, Pool
from repro.graph.traversal import SubgraphView
from repro.gpusim.device import Device, RunMetrics
from repro.gpusim.spec import A100, GPUSpec
from repro.gpusim.trace import Task, buffer_token
from repro.kernels import apply_node_full

__all__ = ["BrickDLEngine", "EngineResult"]


@dataclass
class EngineResult:
    """Outputs and metrics of one engine execution.

    ``per_subgraph`` attributes counter growth to each plan entry (the
    automatic analogue of the paper's ResNet-50 case study): a list aligned
    with ``plan.subgraphs`` of dicts with ``dram_txns``, ``flops``,
    ``atomics_*``, ``num_tasks``, ``dram_time_s`` etc., rolled up from the
    run's :class:`~repro.profiling.TraceCollector` (``trace``), which also
    holds the full per-task timeline for export.
    """

    outputs: dict[str, np.ndarray] | None
    metrics: RunMetrics
    plan: ExecutionPlan
    spec: GPUSpec   # of the device the run was counted on
    per_subgraph: list[dict] = field(default_factory=list)
    trace: "TraceCollector | None" = None
    # When the engine ran with ``sanitize=True``: the execution sanitizer's
    # AnalysisReport (shadow memory, happens-before, numeric screening).
    sanitizer_report: "AnalysisReport | None" = None
    # The device's hierarchical metrics registry for the run (labels:
    # model/strategy/brick/subgraph/node), consumed by run manifests and the
    # exporters in :mod:`repro.metrics`.
    registry: "MetricsRegistry | None" = None

    @property
    def total_time(self) -> float:
        return self.metrics.total_time

    def attribution_table(self) -> str:
        """A readable per-subgraph cost table."""
        from repro.bench.reporting import format_table

        rows = []
        for sub, d in zip(self.plan.subgraphs, self.per_subgraph):
            rows.append([
                sub.index, sub.strategy.value, len(sub.subgraph),
                d["num_tasks"], f"{d['flops'] / 1e9:.3f}",
                d["dram_txns"], f"{d['dram_time_s'] * 1e3:.3f}",
                d["atomics_compulsory"] + d["atomics_conflict"],
            ])
        return format_table(
            ["subgraph", "strategy", "ops", "tasks", "GFLOP", "DRAM txns",
             "DRAM ms", "atomics"], rows,
            title=f"per-subgraph attribution: {self.plan.graph.name}")

    def node_attribution_table(self) -> str:
        """A readable per-node cost table from the collected trace."""
        from repro.bench.reporting import format_table

        if self.trace is None:
            return "(no trace collected)"
        names = {n.node_id: n.name for n in self.plan.graph.nodes}
        rows = []
        for nid, d in self.trace.per_node().items():
            rows.append([
                "-" if nid is None else nid,
                names.get(nid, d["label"]),
                "/".join(sorted(d["strategies"])) or "-",
                d["num_tasks"], f"{d['flops'] / 1e9:.3f}",
                d["dram_txns"], f"{d['dram_time_s'] * 1e3:.3f}",
                d["atomics_compulsory"] + d["atomics_conflict"],
            ])
        return format_table(
            ["node", "name", "strategy", "tasks", "GFLOP", "DRAM txns",
             "DRAM ms", "atomics"], rows,
            title=f"per-node attribution: {self.plan.graph.name}")


def _max_kernel_extent(graph: Graph, node_ids) -> int:
    """Largest *effective* kernel extent among member ops: the brick side
    must be at least the filter footprint (section 3.3.4).  Dilation widens
    the footprint -- a rate-4 dilated 3x3 spans 9 elements, and bricks
    smaller than that drown in neighbor dependencies."""
    k = 1
    for nid in node_ids:
        op = graph.node(nid).op
        if isinstance(op, FusedOp):
            op = op.primary  # pointwise epilogues never widen the footprint
        if isinstance(op, (Conv, ConvTranspose, Pool)):
            dil = getattr(op, "dilation", (1,) * len(op.kernel))
            k = max(k, max((kk - 1) * d + 1 for kk, d in zip(op.kernel, dil)))
    return k


def _executor_cls(sub: SubgraphPlan) -> type[BrickTasks]:
    """The executor a merged plan entry runs under."""
    from repro.core.wavefront import WavefrontBrickExecutor, is_chain_subgraph

    if sub.strategy is Strategy.PADDED:
        return PaddedBrickExecutor
    if sub.strategy is Strategy.WAVEFRONT and is_chain_subgraph(sub.subgraph):
        return WavefrontBrickExecutor
    return MemoizedBrickExecutor  # branches need the dynamic runtime


def _bind_input(node: Node, inputs: Mapping[str, np.ndarray] | np.ndarray | None) -> np.ndarray:
    """The array a functional run feeds graph input ``node``."""
    if inputs is None:
        raise ExecutionError("functional run requires input arrays")
    arr = inputs if isinstance(inputs, np.ndarray) else inputs[node.name]
    arr = np.asarray(arr, dtype=node.spec.dtype)
    if arr.shape != node.spec.shape:
        raise ExecutionError(f"input {node.name!r}: expected {node.spec.shape}, got {arr.shape}")
    return arr


def _screen_rows(sub: SubgraphPlan, screen: Screen) -> Callable[[int, np.ndarray], None]:
    """``screen`` per member value of plan entry ``sub``, as the tasks that
    count it see it: a fallback entry's fusion-group outputs whole, labelled
    ``"(fallback kernel)"``; a merged entry's members brick by brick and
    sample by sample (:func:`~repro.core.bricktask.screen_bricks`)."""
    if sub.strategy is not Strategy.CUDNN:
        geom = SubgraphGeometry(sub.subgraph, sub.brick_shape)
        return functools.partial(screen_bricks, geom, _executor_cls(sub).strategy, screen, sub.index)
    from repro.baselines.fusion import fuse_members

    outputs = {group.output.node_id for group in fuse_members(sub.subgraph.graph, sub.subgraph.node_ids)}

    def rows(nid: int, value: np.ndarray) -> None:
        if nid in outputs:
            screen(nid, value, sub.index, None, None, "(fallback kernel)")
    return rows


class BrickDLEngine:
    """Compile-and-run facade for BrickDL merged execution."""

    def __init__(
        self,
        graph: Graph,
        spec: GPUSpec = A100,
        config: PerfModelConfig = DEFAULT_CONFIG,
        strategy_override: Strategy | None = None,
        brick_override: int | None = None,
        layer_schedule: tuple[int, ...] | None = None,
        strict: bool = False,
        sanitize: bool = False,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.spec = spec
        self.config = config
        self.strategy_override = strategy_override
        self.brick_override = brick_override
        self.layer_schedule = layer_schedule
        self.strict = strict
        self.sanitize = sanitize
        # Set by ``compile(optimize=True)``: the rewrite runner's report
        # (rules fired, per-step validation), consumed by run manifests.
        self.rewrite_report: "RewriteReport | None" = None

    def for_batch(self, batch: int) -> "BrickDLEngine":
        """An engine over this graph rebatched to ``batch`` samples.

        The serving layer's dynamic batcher compiles one plan per batch
        bucket: batch size changes activation volumes, which moves the
        L2-footprint partitioning and therefore the whole plan (section 3.3).
        Weights are shared with the base graph, so batched outputs stay
        bit-identical to single-shot runs of the original.
        """
        from repro.graph.transforms import rebatch_graph

        return BrickDLEngine(
            rebatch_graph(self.graph, batch),
            spec=self.spec,
            config=self.config,
            strategy_override=self.strategy_override,
            brick_override=self.brick_override,
            layer_schedule=self.layer_schedule,
            strict=self.strict,
            sanitize=self.sanitize,
        )

    # -- compilation -----------------------------------------------------------
    def compile(self, optimize: bool = False, rules=None) -> ExecutionPlan:
        """Compile the (optionally rewritten) graph into an execution plan.

        ``optimize=True`` first runs the :mod:`repro.rewrite` rule batches
        (``rules`` overrides the default :class:`~repro.rewrite.RuleRunner`)
        and swaps in the rewritten graph.  Every rule application is
        translation-validated -- statically always, and differentially
        (original vs rewritten through the reference executor) in strict
        mode -- and an unsound rewrite aborts compilation.
        """
        if optimize:
            self._optimize_graph(rules)
        views = partition_graph(self.graph, self.spec, self.config, self.layer_schedule)
        plan = ExecutionPlan(self.graph)
        for index, view in enumerate(views):
            plan.subgraphs.append(self._decide(index, view))
        if self.strict:
            self._strict_check_plan(plan)
        return plan

    def _optimize_graph(self, rules) -> None:
        """Run the rewrite rule batches; adopt the validated result."""
        # Imported lazily: repro.rewrite's validator depends on this module.
        from repro.errors import RewriteError
        from repro.rewrite import RuleRunner, default_batches

        if isinstance(rules, RuleRunner):
            runner = rules
        else:
            runner = RuleRunner(rules if rules is not None else default_batches(),
                                validate="full" if self.strict else "static")
        report = runner.run(self.graph)
        if not report.ok:
            raise RewriteError(
                "graph rewriting failed translation validation:\n"
                + "\n".join(d.render() for d in report.validation.errors))
        self.rewrite_report = report
        self.graph = report.graph

    def _strict_check_plan(self, plan: ExecutionPlan) -> None:
        """Strict mode: run the analysis passes over the freshly compiled
        plan and refuse to hand out one that fails its own invariants."""
        # Imported lazily: repro.analysis depends on this module.
        from repro.analysis import analyze_effects, lint_graph, verify_plan

        report = lint_graph(self.graph)
        report.extend(verify_plan(
            plan, self.spec, self.config,
            strategy_override=self.strategy_override,
            brick_override=self.brick_override,
            layer_schedule=self.layer_schedule,
        ))
        # Schedule-independent proofs: race freedom over all interleavings
        # and exactly-once write coverage for the plan about to be handed out.
        # They presume a well-formed plan, so they run only if lint and verify pass.
        if report.ok:
            report.extend(analyze_effects(plan, self.spec, self.config))
        if not report.ok:
            raise PlanError(
                "strict compile failed verification:\n"
                + "\n".join(d.render() for d in report.errors)
            )

    def _decide(self, index: int, view: SubgraphView) -> SubgraphPlan:
        graph = self.graph
        only = graph.node(view.node_ids[0]) if len(view) == 1 else None
        if only is not None and (only.op.is_global or not only.op.is_local):
            return SubgraphPlan(index=index, subgraph=view, strategy=Strategy.CUDNN,
                                reason="global operator")

        exit_id = view.exit_ids[-1]
        exit_spec = graph.node(exit_id).spec
        if not exit_spec.spatial:
            return SubgraphPlan(index=index, subgraph=view, strategy=Strategy.CUDNN,
                                reason="no spatial dims")
        # Parallelism is judged on the *narrowest* member activation: a
        # subgraph is only worth bricking if even its smallest layer still
        # offers enough brick-level parallelism ("towards the end of a DNN
        # graph, tiny layer sizes do not benefit from merged execution",
        # section 3.3.3).
        narrowest = min(
            (graph.node(nid).spec.spatial for nid in view.node_ids
             if graph.node(nid).spec.spatial_ndim == exit_spec.spatial_ndim),
            key=lambda sp: math.prod(sp),
        )
        kernel_extent = _max_kernel_extent(graph, view.node_ids)
        if self.brick_override is not None:
            brick = self.brick_override
            rho = parallelism(narrowest, brick)
            fallback = False
        else:
            decision = choose_brick_size(narrowest, self.config, kernel_extent)
            brick, rho, fallback = decision.brick, decision.rho, decision.fallback
        if fallback:
            return SubgraphPlan(index=index, subgraph=view, strategy=Strategy.CUDNN,
                                rho=rho, reason="insufficient brick parallelism")

        brick_shape = tuple(min(brick, e) for e in exit_spec.spatial)
        delta = padding_growth(view, None, brick_shape)
        strategy = self.strategy_override or choose_strategy(delta, self.config)
        footprint = merged_footprint_bytes(graph, view.node_ids, view.entry_ids, brick_shape)
        reason = f"delta {'>' if delta > self.config.delta_threshold else '<='} {self.config.delta_threshold:.0%}"
        return SubgraphPlan(
            index=index, subgraph=view, strategy=strategy, brick_shape=brick_shape,
            delta=delta, rho=rho, footprint_bytes=footprint, reason=reason,
        )

    # -- execution ----------------------------------------------------------
    def run(
        self,
        inputs: Mapping[str, np.ndarray] | np.ndarray | None = None,
        functional: bool | None = None,
        device: Device | None = None,
        plan: ExecutionPlan | None = None,
    ) -> EngineResult:
        """Simulate ``plan`` (compiled if None) on ``device``, by default a
        fresh one whose L2 sector matches the plan's bricks
        (:func:`~repro.core.plan.adapt_sectors`).  ``functional`` (default:
        ``inputs`` were given): the result also carries :meth:`values`'
        outputs, computed first, so a graph they refuse or a bad input fails
        before the first task; the counted run is the same either way."""
        # Imported here: repro.baselines also consumes repro.core (handles),
        # so the engine pulls the shared tiled machinery in lazily.
        from repro.baselines.tiled import allocate_weights
        from repro.profiling import TraceCollector

        graph = self.graph
        plan = plan if plan is not None else self.compile()
        if device is None:
            device = Device(adapt_sectors(self.spec, plan))
        device.metrics_registry.set_base(model=graph.name)
        collector = next((o for o in device.observers if isinstance(o, TraceCollector)), None)
        if collector is None:
            collector = device.attach(TraceCollector())
        sanitizer = None
        if self.sanitize:
            from repro.sanitize import ExecutionSanitizer

            sanitizer = next((o for o in device.observers
                              if isinstance(o, ExecutionSanitizer)), None)
            if sanitizer is None:
                sanitizer = device.attach(ExecutionSanitizer(graph))
        screen = sanitizer.numeric.screen if sanitizer is not None else None
        if functional is None:
            functional = inputs is not None
        outputs = self.values(inputs, plan, screen) if functional else None

        boundary: dict[int, DenseHandle | BrickedHandle] = {}
        for node in graph.input_nodes:
            buf = device.allocate(f"{graph.name}/{node.name}", node.spec.nbytes)
            boundary[node.node_id] = DenseHandle(node.spec, buf)

        weight_buffers = allocate_weights(device, graph)
        remaining = self._consumer_counts()
        for sub in plan.subgraphs:
            brick = "x".join(str(b) for b in sub.brick_shape) or None
            with device.scope(subgraph_index=sub.index, strategy=sub.strategy.value,
                              brick=brick):
                for nid in sub.subgraph.node_ids:
                    wb = weight_buffers.get(nid)
                    if wb is not None:
                        device.memory.pin(wb)
                if sub.strategy is Strategy.CUDNN:
                    self._run_fallback(device, sub, boundary, weight_buffers)
                else:
                    self._run_merged(device, sub, boundary, weight_buffers)
                for nid in sub.subgraph.node_ids:
                    wb = weight_buffers.get(nid)
                    if wb is not None:
                        device.memory.unpin(wb)
                # Release boundary buffers whose consumers have all executed.
                for eid in self._retired(sub, remaining):
                    if eid in boundary and boundary[eid].buffer.transient:
                        device.discard(boundary[eid].buffer)

        # Graph outputs are materialized densely (and charged).
        for node in graph.output_nodes:
            self._ensure_dense(device, node.node_id, boundary)
        metrics = device.finish()
        if self.strict:
            from repro.analysis import replay_trace

            report = replay_trace(plan, collector.records)
            if not report.ok:
                raise ExecutionError(
                    "strict run failed trace replay:\n"
                    + "\n".join(d.render() for d in report.errors)
                )
        san_report = sanitizer.report() if sanitizer is not None else None
        if self.strict and san_report is not None and not san_report.ok:
            raise ExecutionError(
                "strict run failed sanitizer checks:\n"
                + "\n".join(d.render() for d in san_report.errors)
            )
        return EngineResult(outputs=outputs, metrics=metrics, plan=plan,
                            per_subgraph=collector.per_subgraph(len(plan.subgraphs)),
                            trace=collector, sanitizer_report=san_report,
                            registry=device.metrics_registry, spec=device.spec)

    def values(self, inputs: Mapping[str, np.ndarray] | np.ndarray,
               plan: ExecutionPlan | None = None,
               screen: Screen | None = None) -> dict[str, np.ndarray]:
        """The graph outputs of ``plan`` (compiled if None) on ``inputs``,
        without simulating: no device, no task, no scheduler.

        The counters of a plan do not depend on the values flowing through
        it, so this is the only producer of outputs (a functional ``run``
        calls it).  A strategy decides where and when a brick is computed,
        not what it computes, so this is one layer-by-layer sweep: the
        members of the plan entries in order, each one whole-tensor kernel
        call over dense ``(N, C, *S)`` arrays, an array dropped once its
        last consumer has run.  The plan only names what ``screen`` sees
        (see :func:`_screen_rows`).
        """
        graph = self.graph
        plan = plan if plan is not None else self.compile()
        graph.init_weights()
        dense = {n.node_id: _bind_input(n, inputs) for n in graph.input_nodes}
        remaining = self._consumer_counts()
        for sub in plan.subgraphs:
            rows = _screen_rows(sub, screen) if screen is not None else None
            for node in map(graph.node, sub.subgraph.node_ids):
                dense[node.node_id] = out = apply_node_full(
                    node.op, [dense[pred] for pred in node.inputs], node.weights)
                if rows is not None:
                    rows(node.node_id, out)
                for pred in node.inputs:
                    remaining[pred] -= 1
                    if not remaining[pred]:
                        del dense[pred]
        return {n.name: dense[n.node_id] for n in graph.output_nodes}

    # -- merged subgraphs ---------------------------------------------------
    def _run_merged(self, device, sub: SubgraphPlan, boundary, weight_buffers) -> None:
        entries: dict[int, BrickedHandle | DenseHandle] = {}
        for eid in sub.subgraph.entry_ids:
            handle = boundary[eid]
            if isinstance(handle, DenseHandle):
                # Dense entries (graph inputs) are consumed directly: brick
                # tasks stream their regions out of the row-major tensor, so
                # no separate layout-conversion pass is charged.
                entries[eid] = handle
            else:
                entries[eid] = self._ensure_bricked(device, eid, sub.brick_shape, boundary)
        executor = _executor_cls(sub)(sub.subgraph, sub.brick_shape, device, entries, weight_buffers)
        exits = executor.run()
        # Interior memo tensors die with the subgraph: discard without
        # write-back (they never leave L2 -- the merged-execution payoff).
        # Padded stores nothing but its exits.
        for nid, handle in executor.stored.items():
            if nid not in exits:
                device.discard(handle.buffer)
        boundary.update(exits)

    # -- vendor-library fallback ------------------------------------------------
    def _run_fallback(self, device, sub: SubgraphPlan, boundary, weight_buffers) -> None:
        """Un-bricked execution of a subgraph via tiled vendor-library calls,
        with the same conv+pointwise fusion the cuDNN baseline enjoys."""
        from repro.baselines.fusion import fuse_members
        from repro.baselines.tiled import adaptive_tiles, run_group

        graph = self.graph
        for group in fuse_members(graph, sub.subgraph.node_ids):
            node = group.output
            group_ids = {n.node_id for n in group.nodes}
            handles = {pred: self._ensure_dense(device, pred, boundary)
                       for gnode in group.nodes for pred in gnode.inputs if pred not in group_ids}
            out_buf = device.allocate(f"{graph.name}/{node.name}", node.spec.nbytes)
            out_handle = DenseHandle(node.spec, out_buf)
            run_group(device, graph, group, handles, out_handle,
                      lambda extents: adaptive_tiles(extents, 16 if len(extents) >= 3 else 32,
                                                     device.spec.num_sms),
                      weight_buffers, label="fallback")
            device.synchronize()
            for gnode in group.nodes:
                boundary[gnode.node_id] = out_handle

    # -- representation management ------------------------------------------------
    def _ensure_bricked(self, device, nid: int, brick_shape, boundary) -> BrickedHandle:
        handle = boundary[nid]
        if isinstance(handle, BrickedHandle) and handle.grid.brick_shape == tuple(brick_shape):
            return handle
        node = self.graph.node(nid)
        shape = tuple(min(b, e) for b, e in zip(brick_shape, node.spec.spatial))
        buf = device.allocate(f"{node.name}/bricked", bricked_nbytes(node.spec, shape),
                              transient=True)
        new = BrickedHandle.create(node.spec, shape, buf)
        # Brick creation cost (the paper notes it is minimal): one sweep of
        # the source plus per-brick writes so the brick-class residency model
        # sees the new layout.
        task = Task(label=f"to-bricks/{node.name}", node_id=nid)
        task.read(handle.buffer, 0, handle.buffer.nbytes, dense=True)
        task.acquire(buffer_token(handle.buffer))
        whole = Region.from_extents(new.grid.extents)
        for n in range(node.spec.batch):
            task.write_batch(buf, new.region_offsets(n, whole), new.brick_nbytes)
        # No barrier separates this conversion from the consuming brick
        # tasks: the whole-buffer token is the launch-ordering edge the
        # executors acquire.
        task.release(buffer_token(buf))
        device.submit(task)
        boundary[nid] = new
        return new

    def _ensure_dense(self, device, nid: int, boundary) -> DenseHandle:
        handle = boundary[nid]
        if isinstance(handle, DenseHandle):
            return handle
        node = self.graph.node(nid)
        # Graph outputs must survive the run (and be charged at flush);
        # intermediate dense copies die with their consumers.
        is_output = nid in {n.node_id for n in self.graph.output_nodes}
        buf = device.allocate(f"{node.name}/dense", node.spec.nbytes, transient=not is_output)
        task = Task(label=f"from-bricks/{node.name}", node_id=nid)
        whole = Region.from_extents(handle.grid.extents)
        for n in range(node.spec.batch):
            task.read_batch(handle.buffer, handle.region_offsets(n, whole), handle.brick_nbytes)
        task.acquire(buffer_token(handle.buffer))
        task.write(buf, 0, node.spec.nbytes, dense=True)
        task.release(buffer_token(buf))
        device.submit(task)
        new = DenseHandle(node.spec, buf)
        boundary[nid] = new
        return new

    def _consumer_counts(self) -> dict[int, int]:
        """Per node, the consumers still to run (a graph output has one more:
        the caller)."""
        remaining = {n.node_id: len(self.graph.consumers(n.node_id)) for n in self.graph.nodes}
        for n in self.graph.output_nodes:
            remaining[n.node_id] += 1
        return remaining

    def _retired(self, sub: SubgraphPlan, remaining: dict[int, int]) -> list[int]:
        """Count ``sub``'s reads off ``remaining``; the entries nothing reads
        any more."""
        members = set(sub.subgraph.node_ids)
        retired = []
        for eid in sub.subgraph.entry_ids:
            remaining[eid] -= sum(1 for nid in members for i in self.graph.node(nid).inputs if i == eid)
            if remaining[eid] <= 0:
                retired.append(eid)
        return retired
