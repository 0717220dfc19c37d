"""The check registry is the one list of checks: order, names, layers, replays."""

import ast
import dataclasses
import importlib
import json
from pathlib import Path

import pytest

from linespace import (
    NEGATIVE_KINDS,
    CheckReport,
    GeometryModel,
    IncidenceStructure,
    LabelInconsistencyError,
    NotTwoClassesError,
    coordinate_labels,
    gen_negative,
    gen_pg3,
    gen_tetrahedron,
    save_reports,
    save_structure,
)
from linespace.cli import main
from linespace.core import PerpTable
from linespace.labeling import element_ids
from linespace.battery import run_theorem_suite, vy_axioms
from linespace.registry import CHECKS, LAYERS, names, replay, run_checks

from conftest import ORACLES
from test_theorems import PERTURBED, PERTURBED_REPLAYS, perturbed, seeded_mutant

GOLDEN = Path(__file__).parent / "golden"
BENCH_STEPS = Path(__file__).parent.parent / "bench" / "steps.py"


def test_order_matches_golden_reports():
    verdicts = json.loads((GOLDEN / "check_all.json").read_text())
    for structure, rows in verdicts.items():
        assert [c.name for c in CHECKS] == [row[0] for row in rows], structure


def test_names_are_unique_and_layers_known():
    assert len({c.name for c in CHECKS}) == len(CHECKS) == 31
    assert {c.layer for c in CHECKS} == set(LAYERS)
    assert [len(names(layer)) for layer in LAYERS] == [6, 17, 8]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_view_is_what_check_reports(layer, tmp_path, capsys):
    path, report = tmp_path / "s.json", tmp_path / "r.json"
    save_structure(gen_tetrahedron(), path)
    main(["check", str(path), "--which", layer, "--report", str(report)])
    capsys.readouterr()
    got = [r["check_name"] for r in json.loads(report.read_text())["reports"]]
    assert tuple(got) == names(layer)


def test_bench_name_lists_match_the_table():
    """bench/steps.py keeps its own copy of the names; it must not drift."""
    lists = {}
    for node in ast.parse(BENCH_STEPS.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            lists[node.targets[0].id] = ast.literal_eval(node.value)
    theorems = [c for c in CHECKS if c.layer == "theorems"]
    assert lists["AXIOMS"] == names("axioms")
    assert lists["STRUCTURE_THEOREMS"] == tuple(c.name for c in theorems if not c.needs_model)
    assert lists["MODEL_THEOREMS"] == tuple(c.name for c in theorems if c.needs_model)
    assert lists["VY_CHECKS"] == names("vy")


def test_every_check_has_an_oracle():
    """``ORACLES`` names an adjacency-only oracle for every registered check."""
    assert sorted(ORACLES) == sorted(c.name for c in CHECKS)
    for module, method in ORACLES.values():
        assert callable(getattr(importlib.import_module(module).Oracle, method))


def test_checks_without_replay():
    """Every check has a counterexample function, so every check replays."""
    assert all(callable(c.counterexample) for c in CHECKS)


def test_missing_replay_is_named():
    report = CheckReport("no_such_check", "fail", counterexample={"issue": "any"})
    with pytest.raises(ValueError, match="no replay registered for check 'no_such_check'"):
        replay(gen_tetrahedron(), report)


def test_golden_replays_follow_the_table():
    for case, rows in PERTURBED_REPLAYS.items():
        for name, outcome in rows:
            assert outcome is True, (case, name, outcome)


def failing(path: Path) -> list[CheckReport]:
    return [
        CheckReport(d["check_name"], d["status"], d.get("counterexample"))
        for d in json.loads(path.read_text())["reports"]
        if d["status"] == "fail"
    ]


def golden_cases(pg3, pg3_model):
    """(golden report file, structure, model) for every golden report file
    whose structure the tests can rebuild."""
    for name in ("tetrahedron", "pg2", "no_skew_anywhere", "pasch_violation", "two_components", "single_line"):
        if name == "tetrahedron":
            s = gen_tetrahedron()
        elif name == "pg2":
            s = gen_pg3(2)[0]
        else:
            s = gen_negative(name)
        try:
            m = coordinate_labels(s)
        except (NotTwoClassesError, LabelInconsistencyError):
            m = None
        yield GOLDEN / "reports" / f"{name}.json", s, m
    for k in range(8):
        yield GOLDEN / "perturbed" / f"triads_seed11_{k}.json", seeded_mutant(pg3, k), pg3_model
    for name in sorted(PERTURBED):
        s, m = perturbed(pg3, pg3_model, *PERTURBED[name])
        yield GOLDEN / "perturbed" / f"suite_{name}.json", s, m


def test_every_failing_golden_report_replays(pg3, pg3_model):
    replayed = 0
    for path, s, m in golden_cases(pg3, pg3_model):
        for report in failing(path):
            assert replay(s, report, m) is True, (path.name, report.check_name)
            replayed += 1
    assert replayed > 100


def test_dependency_reports_name_the_labeling(pg3, pg3_model):
    """Every dependency_unmet report of a model check has issue
    labeling_unavailable, also where the labeling's witness names an issue
    of its own, which its detail then reads."""
    cases = [(gen_negative(name), None) for name in NEGATIVE_KINDS]
    cases += [(seeded_mutant(pg3, k), None) for k in range(4)]
    cases += [perturbed(pg3, pg3_model, *PERTURBED[name]) for name in ("plane_5_moved_to_points", "point_15_dropped")]
    model_checks = {c.name for c in CHECKS if c.needs_model}
    unmet = [r for s, m in cases for r in run_checks(s, LAYERS, m) if r.status == "dependency_unmet"]
    unmet = [r for r in unmet if r.check_name in model_checks]
    assert len(unmet) > 50
    assert {r.counterexample["issue"] for r in unmet} == {"labeling_unavailable"}
    two = run_checks(gen_negative("two_components"), ["theorems"])
    assert {r.counterexample["detail"] for r in two if r.status == "dependency_unmet"} == {
        "labeling verification failed: pair_classes_same_kind"
    }


# Per field that a check's counterexample function derives from the labels
# its counterexample names, a golden case that reports the check failing.
DERIVED_FIELDS = [
    ("no_skew_anywhere", "axiom1", "perp"),
    ("no_skew_anywhere", "axiom2_1", "perp"),
    ("no_skew_anywhere", "thm_line_selfperp", "double_perp"),
    ("perps_pg32_0", "thm_bracket_welldefined", "differs_on"),
    ("suite_flip_2_6", "thm_bracket_closed", "differs_on"),
    ("suite_non_element_first", "thm_not_singleton", "common"),
    ("suite_non_element_first", "thm_uniqueness", "common"),
]


@pytest.mark.parametrize("case, name, key", DERIVED_FIELDS)
def test_replay_checks_every_derived_field(case, name, key, pg2, pg3, pg3_model):
    """A failing report with one derived field changed no longer replays."""
    if case.startswith("perps_pg32_"):
        path, s, m = GOLDEN / "perturbed" / f"{case}.json", seeded_mutant(pg2, int(case.split("_")[-1])), None
    else:
        path, s, m = next(c for c in golden_cases(pg3, pg3_model) if c[0].stem == case)
    report = next(r for r in failing(path) if r.check_name == name)
    assert replay(s, report, m) is True
    changed = {**report.counterexample, key: report.counterexample[key][:-1]}
    assert replay(s, CheckReport(name, "fail", changed), m) is False


@pytest.mark.parametrize("family, i", [("planes", 0), ("points", 0), ("points", -1)])
def test_repeated_listings_replay(family, i, pg2, pg2_model, tmp_path):
    """The kernels take two listings of one element as two elements, and so
    do the counterexample functions: every failing report of a model that
    lists one element twice replays, also read back from its report file."""
    listed = getattr(pg2_model, family)
    m = dataclasses.replace(pg2_model, **{family: listed + (listed[i],)})
    reports = run_theorem_suite(pg2, m) + vy_axioms(pg2, m)
    save_reports(reports, tmp_path / "r.json")
    read_back = failing(tmp_path / "r.json")
    assert "thm_uniqueness" in {r.check_name for r in read_back}
    assert ("vy_a2" in {r.check_name for r in read_back}) == (family == "points")
    for report in [r for r in reports if r.status == "fail"] + read_back:
        assert replay(pg2, report, m) is True, (family, i, report.check_name, report.counterexample)


# The cache keys a counterexample function may read: the element set and
# the per-perp sigma memo.  Every other key is a table of the kernels.
DEFINITION_KEYS = ("element_ids", "sigma")


def own_model(s):
    try:
        return coordinate_labels(s)
    except (NotTwoClassesError, LabelInconsistencyError):
        return None


def test_replays_read_no_kernel_table(pg3, pg3_model, monkeypatch):
    """Every failing report of the fixtures, the seeded PG(3,3) mutants, on
    their own labeling and against the default model, and the PERTURBED
    models replays True on fresh copies of its structure and model whose
    caches hold only the element set: the counterexample functions compute
    from the definitions, and a kernel table read raises."""
    cases = [(s, own_model(s)) for s in (gen_tetrahedron(), gen_pg3(2)[0], pg3, *map(gen_negative, NEGATIVE_KINDS))]
    for k in range(12):
        t = seeded_mutant(pg3, k)
        cases += [(t, own_model(t)), (t, pg3_model)]
    cases += [perturbed(pg3, pg3_model, *PERTURBED[name]) for name in sorted(PERTURBED)]
    failed = [(s, m, r) for s, m in cases for r in run_checks(s, LAYERS, m) if r.status == "fail"]
    elements = [element_ids(s) for s, _, _ in failed]
    cached = IncidenceStructure.cached

    def definitions_only(self, key, builder):
        name = key if isinstance(key, str) else key[0]
        assert name in DEFINITION_KEYS, f"a counterexample function read the kernel table {name!r}"
        return cached(self, key, builder)

    monkeypatch.setattr(IncidenceStructure, "cached", definitions_only)
    monkeypatch.setattr(PerpTable, "index", property(lambda table: pytest.fail("read PerpTable.index")))
    for (s, m, report), ids in zip(failed, elements):
        fresh = IncidenceStructure(s.adjacency, labels=s.labels)
        fresh._cache["element_ids"] = ids
        if m is not None:
            structure = fresh if m.structure is s else IncidenceStructure(m.structure.adjacency, labels=s.labels)
            m = GeometryModel(structure, m.points, m.planes, m.seed)
        assert replay(fresh, report, m) is True, (s.name, report.check_name)
    assert len(failed) > 400
