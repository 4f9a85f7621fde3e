"""Golden effect reports: the static analysis derives what it always derived.

``tests/data/effects_golden.json`` was recorded on the commit *before* the
analysis moved from one N-D ``Region`` walk per brick to per-axis rows
(``python tests/test_effects_golden.py --record`` rewrites it), so a rewrite
of ``analysis/effects.py`` that claims identical bounds, counts, proofs and
diagnostics has to reproduce it.  The only rows re-recorded since are
``deepcam``'s ``num_tasks`` / ``task_time_sum`` / ``effects.bounds`` (and the
whole-list hashes of its mutants): its output is a bricked exit, and the tail
``from-bricks`` task used to be charged but not counted.

* ``full``: the ten zoo models at full scale x {planned, padded, memoized,
  wavefront} -- every integer field of the report, ``total_flops``,
  ``task_time_max``, ``task_time_sum``, each ``SubgraphEffects`` row, the
  ``effects.bounds`` line and a sha256 of every other rendered diagnostic;
* ``mutants``: the ten reduced models x {padded, memoized, wavefront} x the
  seeded ``EffectMutation``s -- every rendered error, capped samples and
  "... and N more" counts included, plus a sha256 of the whole rendered list;
* ``sets``: reduced x 4 settings with ``collect_sets=True`` -- a digest of
  every ``EffectSet.intervals()``.

Integers, flops and text compare exactly; task times -- float sums whose
order of summation is not part of the contract -- at 1e-12 relative.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from repro.analysis.effects import EffectMutation, analyze_effects
from repro.core.engine import BrickDLEngine
from repro.core.plan import Strategy
from repro.models import zoo

_GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "effects_golden.json"
SETTINGS = ("planned", "padded", "memoized", "wavefront")
MUTANTS = ("drop_dep_edge", "shrink_halo", "skip_member", "skip_exit")
FULL = [f"{m}/{s}" for m in sorted(zoo.MODELS) for s in SETTINGS]
MUTANT_CONFIGS = [f"{m}/{s}/{mut}" for m in sorted(zoo.MODELS)
                  for s in SETTINGS[1:] for mut in MUTANTS]
_INT_FIELDS = ("dram_read_lb", "dram_read_ub", "dram_write_lb", "dram_write_ub",
               "l2_lb", "l2_ub", "sync_count", "num_tasks")
_TIME_REL = 1e-12


def _plan(model: str, setting: str, reduced: bool):
    strategy = None if setting == "planned" else Strategy(setting)
    graph = zoo.build(model, reduced=reduced)
    return BrickDLEngine(graph, strategy_override=strategy).compile()


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def full_record(config: str) -> dict:
    model, setting = config.split("/")
    report = analyze_effects(_plan(model, setting, reduced=False))
    rendered = [d.render() for d in report.diagnostics]
    return {
        **{name: getattr(report, name) for name in _INT_FIELDS},
        "total_flops": report.total_flops,
        "task_time_sum": report.task_time_sum,
        "task_time_max": report.task_time_max,
        "proven": report.proven,
        "subgraphs": [
            [s.index, s.strategy, s.num_tasks, s.sync_count, s.flops,
             s.dram_read_lb, s.dram_read_ub, s.dram_write_ub,
             s.race_free, s.write_exact, s.read_covered,
             s.task_time_sum, s.task_time_max]
            for s in report.subgraphs],
        "bounds": [r for r in rendered if ": effects.bounds" in r],
        "diagnostics_sha256": _sha(r for r in rendered if ": effects.bounds" not in r),
    }


def _mutation(plan, kind: str) -> EffectMutation | None:
    """Targets as ``test_effects._mutation_targets`` picks them: the first
    merged subgraph whose first exit reads a member."""
    if kind == "shrink_halo":
        return EffectMutation(shrink_halo=1)
    for sub in plan.subgraphs:
        if not sub.is_merged:
            continue
        exit_id = sub.subgraph.exit_ids[0]
        members = set(sub.subgraph.node_ids)
        pred = next((i for i in plan.graph.node(exit_id).inputs if i in members), None)
        if pred is not None:
            return {"drop_dep_edge": EffectMutation(drop_dep_edge=(exit_id, pred)),
                    "skip_member": EffectMutation(skip_writer=(pred, 0)),
                    "skip_exit": EffectMutation(skip_writer=(exit_id, 0))}[kind]
    return None


def mutant_record(config: str) -> dict | None:
    model, setting, kind = config.split("/")
    plan = _plan(model, setting, reduced=True)
    mutation = _mutation(plan, kind)
    if mutation is None:
        return None
    rendered = [d.render() for d in analyze_effects(plan, mutation=mutation).diagnostics]
    return {"errors": [r for r in rendered if r.startswith("error: ")],
            "sha256": _sha(rendered)}


def sets_record(config: str) -> str:
    model, setting = config.split("/")
    report = analyze_effects(_plan(model, setting, reduced=True), collect_sets=True)
    return _sha(f"{name} {report.effect_sets[name].intervals()}"
                for name in sorted(report.effect_sets))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(_GOLDEN.read_text())


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= _TIME_REL * abs(want)


@pytest.mark.parametrize("config", FULL)
def test_full_scale_report_matches_golden(golden, config):
    got, want = full_record(config), dict(golden["full"][config])
    for record in (got, want):
        record["subgraphs"] = [list(row) for row in record["subgraphs"]]
    for key in ("task_time_sum", "task_time_max"):
        assert _close(got.pop(key), want.pop(key)), key
    for g, w in zip(got["subgraphs"], want["subgraphs"]):
        assert _close(g.pop(), w.pop()) and _close(g.pop(), w.pop()), (config, g[0])
    assert got == want


@pytest.mark.parametrize("config", MUTANT_CONFIGS)
def test_mutant_diagnostics_match_golden(golden, config):
    assert mutant_record(config) == golden["mutants"][config]


@pytest.mark.parametrize("config", FULL)
def test_effect_sets_match_golden(golden, config):
    assert sets_record(config) == golden["sets"][config]


def test_golden_file_covers_every_config(golden):
    assert sorted(golden["full"]) == sorted(golden["sets"]) == sorted(FULL)
    assert sorted(golden["mutants"]) == sorted(MUTANT_CONFIGS)
    # Every targeted mutant (a model with a merged subgraph to corrupt) is rejected.
    assert all(record["errors"] for config, record in golden["mutants"].items()
               if record is not None and not config.endswith("/shrink_halo"))


def _dumps(recorded: dict) -> str:
    """One line per config, so a re-record diffs config by config."""
    sections = []
    for section, rows in sorted(recorded.items()):
        body = ",\n".join(
            f"  {json.dumps(config)}: "
            + json.dumps(row, sort_keys=True, separators=(",", ":"))
            for config, row in sorted(rows.items()))
        sections.append(f" {json.dumps(section)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_effects_golden.py --record")
    recorded = {
        "full": {c: full_record(c) for c in FULL},
        "mutants": {c: mutant_record(c) for c in MUTANT_CONFIGS},
        "sets": {c: sets_record(c) for c in FULL},
    }
    _GOLDEN.parent.mkdir(exist_ok=True)
    _GOLDEN.write_text(_dumps(recorded))
    print(f"recorded {len(FULL)} full-scale reports, {len(MUTANT_CONFIGS)} mutant "
          f"diagnostic lists and {len(FULL)} effect-set digests to {_GOLDEN}")
