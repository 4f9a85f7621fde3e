"""Extension bench: merged halo exchange for spatial model parallelism
(paper section 5.2's proposed extension).

Measures, on the 6-layer 3-D proxy distributed over 4 simulated GPUs, how
merge depth trades exchange count (latency) against redundant halo compute
-- while total halo volume telescopes to the same bytes.
"""

import numpy as np

from benchlib import run_once

from repro.bench.harness import scale_preset
from repro.bench.proxies import six_layer_proxy
from repro.bench.reporting import format_table
from repro.distributed import CommModel, DistributedRunner

_SIZE = {"small": 40, "half": 64, "full": 112}


def test_distributed_merge_depth(benchmark):
    size = _SIZE[scale_preset()]

    def experiment():
        results = {}
        for depth in (1, 2, 3, 6):
            runner = DistributedRunner(six_layer_proxy(size=size), num_ranks=4,
                                       layer_schedule=(depth,), comm=CommModel())
            results[depth] = runner.run()
        return results

    results = run_once(benchmark, experiment)

    rows = []
    for depth, res in results.items():
        rows.append([depth, res.num_subgraphs, res.comm.messages,
                     f"{res.comm.bytes / 1e6:.1f}", f"{res.comm.time_s * 1e6:.1f}",
                     f"{sum(res.per_rank_flops) / 1e9:.2f}"])
    print()
    print(format_table(
        ["merge depth", "exchanges", "messages", "halo MB", "comm us", "GFLOP"],
        rows, title=f"6-layer 3-D proxy @ {size}^3 over 4 ranks"))

    # The section-5.2 tradeoff, asserted:
    assert results[1].comm.messages > results[3].comm.messages > results[6].comm.messages
    assert results[6].comm.time_s < results[1].comm.time_s
    assert sum(results[6].per_rank_flops) > sum(results[1].per_rank_flops)
    # Halo volume nearly telescopes: deeper merges concentrate the exchange
    # on the (larger) early layers of the shrinking chain, so bytes grow
    # mildly while message count drops 4x.
    assert results[6].comm.bytes <= 1.4 * results[1].comm.bytes
