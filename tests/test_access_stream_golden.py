"""Golden access streams: the merged executors emit what they always emitted.

Counter digests (``benchmarks/baselines``, the benchmark's
``counter_digest``) cannot see synchronization tokens or the order of a
task's access rows.  This test pins the whole stream: for the ten reduced
zoo models under each forced merged strategy, a sha256 over every submitted
task's identity, flops, access rows (in order) and acquire/release tokens.
``tests/data/access_stream_digests.json`` was recorded on the commit
*before* the executors moved to per-axis geometry tables
(``python tests/test_access_stream_golden.py --record`` rewrites it), so a
refactor of the geometry layer that claims a bit-identical stream has to
reproduce these hashes.  There is one count-only emitter: a functional run
computes its outputs in a device-free values pass first and then counts
exactly what a profile-mode run counts, which its case here pins.
"""

import functools
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.gpusim.device import Device
from repro.models import zoo
from repro.profiling import DeviceObserver

_GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "access_stream_digests.json"
_BATCH = 2
STRATEGIES = ("padded", "memoized", "wavefront")
CONFIGS = [(model, strategy) for model in sorted(zoo.MODELS) for strategy in STRATEGIES]


class _BufferNames(DeviceObserver):
    """buffer id -> name, so tokens hash the same in every process."""

    def __init__(self) -> None:
        self.names: dict[int, str] = {}

    def on_alloc(self, device, buffer) -> None:
        self.names[buffer.buffer_id] = buffer.name


def _token(token: tuple, names: dict[int, str]) -> list:
    return [token[0], names[token[1]], *token[2:]]


@functools.lru_cache(maxsize=1)
def _compiled(model: str, strategy: str):
    """One (graph, engine, plan) per config: the profile and the functional
    case of a config run back to back, so one slot serves both."""
    graph = zoo.build(model, reduced=True, batch=_BATCH)
    engine = BrickDLEngine(graph, strategy_override=Strategy(strategy))
    return graph, engine, engine.compile()


def stream_digest(model: str, strategy: str, functional: bool) -> str:
    graph, engine, plan = _compiled(model, strategy)
    device = Device(engine.spec)
    names = device.attach(_BufferNames()).names
    inputs = None
    if functional:
        spec = graph.input_nodes[0].spec
        inputs = np.random.default_rng(0).standard_normal(spec.shape).astype(np.float32)
    engine.run(inputs, functional=functional, device=device, plan=plan)
    digest = hashlib.sha256()
    for task in device.tasks:
        row = [
            task.label, task.node_id, task.brick, task.batch_index, task.worker,
            float(task.flops), task.calls,
            [[a.buffer.name, a.offset, a.nbytes, a.write, a.reps, a.dense,
              a.on_chip, a.assume_l2] for a in task.accesses],
            [_token(t, names) for t in task.acquires],
            [_token(t, names) for t in task.releases],
        ]
        digest.update(json.dumps(row, separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(_GOLDEN.read_text())


@pytest.mark.parametrize("functional", [False, True], ids=["profile", "functional"])
@pytest.mark.parametrize("model, strategy", CONFIGS)
def test_access_stream_matches_recorded_digest(golden, model, strategy, functional):
    assert stream_digest(model, strategy, functional) == golden[f"{model}/{strategy}"]


def test_golden_file_covers_every_config(golden):
    assert sorted(golden) == sorted(f"{m}/{s}" for m, s in CONFIGS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_access_stream_golden.py --record")
    recorded = {f"{model}/{strategy}": stream_digest(model, strategy, functional=False)
                for model, strategy in CONFIGS}
    _GOLDEN.parent.mkdir(exist_ok=True)
    _GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests to {_GOLDEN}")
