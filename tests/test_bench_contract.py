"""The benchmark's patch points still exist where it looks for them.

``benchmarks/perf/perf_trace.py`` attributes host time to layers by
replacing the functions named in its ``TARGETS`` table.  A refactor that
moves, renames or turns one of them into an inherited attribute makes
``python3 benchmarks/perf/run.py --trace 1`` fail before it measures
anything -- this test makes that a tier-1 failure instead.
"""

import ast
import asyncio
import dataclasses
import importlib
import importlib.util
import pathlib

import pytest

_PERF_TRACE = (pathlib.Path(__file__).resolve().parent.parent
               / "benchmarks" / "perf" / "perf_trace.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_perf_trace_contract", _PERF_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, path, span", _targets())
def test_target_resolves_the_way_the_recorder_installs_it(module_name, path, span):
    """Mirror of ``Recorder.install``: import the module, walk the parents
    with ``getattr``, then read the attribute from the owner's own
    ``__dict__`` (so an inherited method does not count)."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is not defined on its owner"
    assert callable(owner.__dict__[attr])


# ---------------------------------------------------------------------------
# What the workloads import, construct and read without going through TARGETS
# ---------------------------------------------------------------------------

_PERF_FILES = sorted(_PERF_TRACE.parent.glob("*.py"))
_CONFIG_CLASSES = ("ServeConfig", "PriorityClass", "AutoscalerConfig")


def _perf_trees():
    return [(path.name, ast.parse(path.read_text())) for path in _PERF_FILES]


def _repro_imports():
    """Every ``import repro.x`` / ``from repro.x import y`` in the benchmark
    (most sit inside functions, so nothing fails until a workload runs)."""
    found = set()
    for filename, tree in _perf_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update((filename, a.name, "") for a in node.names
                             if a.name.split(".")[0] == "repro")
            elif (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                found.update((filename, node.module, a.name) for a in node.names)
    return sorted(found)


@pytest.mark.parametrize("filename, module_name, attr", _repro_imports())
def test_benchmark_import_resolves(filename, module_name, attr):
    module = importlib.import_module(module_name)
    if attr and not hasattr(module, attr):
        # ``from package import submodule``
        importlib.import_module(f"{module_name}.{attr}")


def test_benchmark_config_keywords_are_dataclass_fields():
    from repro.serve.autoscaler import AutoscalerConfig
    from repro.serve.scheduler import PriorityClass
    from repro.serve.server import ServeConfig

    fields = {cls.__name__: {f.name for f in dataclasses.fields(cls)}
              for cls in (ServeConfig, PriorityClass, AutoscalerConfig)}
    seen = set()
    for filename, tree in _perf_trees():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _CONFIG_CLASSES):
                continue
            seen.add(node.func.id)
            for kw in node.keywords:
                assert kw.arg in fields[node.func.id], (
                    f"{filename}:{node.lineno}: {node.func.id} has no "
                    f"field {kw.arg!r}")
    assert seen == set(_CONFIG_CLASSES)   # the scan still finds the calls


# ``stats()`` paths and response fields the serve workloads read
# (wl_serve_vtime.measure, wl_serve_closed.measure, perf_common.response_metrics).
_STATS_PATHS = (
    "requests.degraded", "requests.timed_out", "requests.rejected",
    "stages.compile_total_s", "sim_time_s", "batches.preemptions",
    "autoscaler.scale_ups", "autoscaler.scale_downs", "autoscaler.events",
)
_RESPONSE_FIELDS = (
    "admitted_s", "batched_s", "completed_s", "batch_size", "batch_bucket",
    "cache_hit", "degraded", "timed_out", "deadline_met", "outputs",
)


def test_serve_session_exposes_what_the_workloads_read():
    from repro.serve.server import InferenceServer, ServeConfig
    from testlib import small_chain_graph

    server = InferenceServer(
        small_chain_graph(name="bench_contract"),
        config=ServeConfig(devices=1, max_batch=2, max_wait_s=0.001,
                           functional=False))

    async def session():
        async with server:
            return await asyncio.gather(*[server.submit(None) for _ in range(3)])

    responses = asyncio.run(session())
    stats = server.stats()
    for path in _STATS_PATHS:
        node = stats
        for part in path.split("."):
            assert part in node, f"stats() lost {path!r}"
            node = node[part]
        assert isinstance(node, (int, float, list)), path
    for name in ("degraded", "timed_out", "rejected"):
        assert type(stats["requests"][name]) is int   # the JSON stays integral
    for field in _RESPONSE_FIELDS:
        assert all(hasattr(r, field) for r in responses), field
