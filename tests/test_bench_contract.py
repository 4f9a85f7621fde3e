"""The benchmark's patch points still exist where it looks for them.

``benchmarks/perf/perf_trace.py`` attributes host time to layers by
replacing the functions named in its ``TARGETS`` table.  A refactor that
moves, renames or turns one of them into an inherited attribute makes
``python3 benchmarks/perf/run.py --trace 1`` fail before it measures
anything -- this test makes that a tier-1 failure instead.
"""

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
