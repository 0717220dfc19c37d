"""The check registry is the one list of checks: order, names, layers, replays."""

import ast
import json
from pathlib import Path

import pytest

from linespace import (
    CheckReport,
    LabelInconsistencyError,
    NotTwoClassesError,
    coordinate_labels,
    gen_negative,
    gen_pg3,
    gen_tetrahedron,
    save_structure,
)
from linespace.cli import main
from linespace.registry import CHECKS, LAYERS, names, replay

from test_theorems import PERTURBED, PERTURBED_REPLAYS, perturbed, seeded_mutant

GOLDEN = Path(__file__).parent / "golden"
BENCH_STEPS = Path(__file__).parent.parent / "bench" / "steps.py"

WITHOUT_REPLAY = set(names("vy")) - {"vy_a3"}


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


def test_checks_without_replay():
    # Writing a replayer for one of these must remove it from WITHOUT_REPLAY.
    assert {c.name for c in CHECKS if c.replayer is None} == WITHOUT_REPLAY


def test_missing_replay_is_named():
    report = CheckReport("vy_e0", "fail", counterexample={"issue": "any"})
    with pytest.raises(ValueError, match="no replay registered for check 'vy_e0'"):
        replay(gen_tetrahedron(), report)


def test_golden_replays_follow_the_table():
    for case, rows in PERTURBED_REPLAYS.items():
        for name, outcome in rows:
            if name in WITHOUT_REPLAY:
                assert outcome == f"ValueError: no replay registered for check {name!r}"
            else:
                assert outcome is True, (case, name, outcome)


def failing(path: Path) -> list[CheckReport]:
    return [
        CheckReport(d["check_name"], d["status"], d.get("counterexample"))
        for d in json.loads(path.read_text())["reports"]
        if d["status"] == "fail" and d["check_name"] not in WITHOUT_REPLAY
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
