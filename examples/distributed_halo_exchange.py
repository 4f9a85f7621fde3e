#!/usr/bin/env python
"""Spatial model parallelism with merged halo exchanges (paper section 5.2).

Splits a stencil time-stepping workload across simulated GPUs and sweeps
the merge depth, showing the communication-avoiding tradeoff: merging more
layers per subgraph exchanges the *same* halo volume in *fewer, wider*
messages (latency win) at the price of redundant halo recomputation.

    python examples/distributed_halo_exchange.py
"""

import numpy as np

from repro.bench.reporting import format_table
from repro.core.engine import BrickDLEngine
from repro.distributed import CommModel, DistributedRunner
from repro.stencil import build_heat_graph, reference_heat


def main() -> None:
    steps, size, ranks = 12, 96, 4
    rng = np.random.default_rng(0)
    u0 = rng.standard_normal((size, size)).astype(np.float32)
    expected = reference_heat(u0, steps)

    print(f"{steps}-step heat equation on a {size}x{size} grid over {ranks} simulated GPUs\n")

    rows = []
    for depth in (1, 2, 3, 4, 6, 12):
        schedule = (depth,)
        runner = DistributedRunner(build_heat_graph(steps, size), num_ranks=ranks,
                                   layer_schedule=schedule, comm=CommModel())
        res = runner.run()  # counts only; the values are the engine's
        out = list(BrickDLEngine(runner.graph).values(u0[None, None]).values())[0][0, 0]
        err = np.abs(out - expected).max()
        assert err < 1e-4, err
        rows.append([
            depth,
            res.num_subgraphs,
            res.comm.messages,
            f"{res.comm.bytes / 1024:.0f} KiB",
            f"{res.comm.time_s * 1e6:.1f}",
            f"{sum(res.per_rank_flops) / 1e6:.1f}",
            f"{res.total_time_s * 1e6:.1f}",
            f"{err:.1e}",
        ])
    print(format_table(
        ["merge depth", "exchanges", "messages", "halo volume", "comm us",
         "total MFLOP", "total us", "max err"],
        rows,
        title="merge depth vs halo-exchange cost (same total halo volume; "
              "fewer messages, more redundant compute)",
    ))

    print("\nScaling ranks at fixed merge depth 3:")
    rows = []
    for r in (1, 2, 4, 8):
        runner = DistributedRunner(build_heat_graph(steps, size), num_ranks=r,
                                   layer_schedule=(3,), comm=CommModel())
        res = runner.run()
        rows.append([r, res.comm.messages, f"{res.comm.time_s * 1e6:.1f}",
                     f"{max(res.per_rank_flops) / 1e6:.1f}", f"{res.load_imbalance:.1%}"])
    print(format_table(["ranks", "messages", "comm us", "max rank MFLOP", "imbalance"], rows))


if __name__ == "__main__":
    main()
