"""Smoke test of the benchmark itself, with PG(3,2) standing in for every size.

    python3 -m pytest bench/test_smoke.py -q

Runs each workload timed and traced at q=2 and checks that every metric
BENCHMARK.json names is emitted with its unit, that a corrupted model file
or a flipped verdict counts as a failed operation, as does a replay that
returns False, and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CONFIG = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONFIG["workloads"]]


def bench_result(*args: str, cwd: Path = REPO) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == run.per_layer_units()
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    code, out = bench_result("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--q", "2")
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.fixture
def pipeline_pass():
    """One validated pass of pg33-pipeline at q=2, with counters reset after it."""
    bench = run.Bench("pg33-pipeline", 1, 2)
    bench.work.mkdir(parents=True)
    try:
        workload = run.Pg33Pipeline()
        workload.setup(bench)
        it = run.Iteration(bench, "pass0", traced=False)
        workload.iterate(it)
        workload.validate(bench, it)
        assert bench.failed == 0
        bench.attempted = bench.failed = 0
        yield bench, workload, it
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def test_corrupted_model_is_a_failed_operation(pipeline_pass):
    bench, workload, it = pipeline_pass
    model_path = it.steps[2].files[0]
    model = json.loads(model_path.read_text())
    model["points"][0] = model["points"][0][:-1]
    model_path.write_text(json.dumps(model))
    workload.validate(bench, it)
    assert bench.failed >= 1


def test_flipped_verdict_is_a_failed_operation(pipeline_pass):
    bench, workload, it = pipeline_pass
    report_path = it.steps[1].report
    report = json.loads(report_path.read_text())
    report["reports"][5]["status"] = "fail"
    report_path.write_text(json.dumps(report))
    workload.validate(bench, it)
    assert bench.failed == 1

    again = run.Iteration(bench, "again", traced=False)
    workload.iterate(again)
    bench.attempted = bench.failed = 0
    run.compare(bench, it, again)
    assert bench.failed == 1 and bench.attempted == len(it.steps)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench_result("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert out.strip() == ""


def test_self_time_subtracts_covered_child_time():
    recorded = [
        {"name": "outer", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "inner", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "inner", "start": 5.0, "end": 6.0, "parent": 0},
        {"name": "leaf", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert spans.self_times(recorded) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_layer_total_counts_import_and_time_below_cli_spans():
    recorded = [
        {"name": "cli.import", "start": 0.0, "end": 2.0, "parent": None},
        {"name": "cli.check", "start": 2.0, "end": 10.0, "parent": None},
        {"name": "axioms.axiom1", "start": 3.0, "end": 6.0, "parent": 1},
        {"name": "io.save_reports", "start": 8.0, "end": 9.0, "parent": 1},
    ]
    assert spans.layer_total(recorded) == 2.0 + 3.0 + 1.0


def test_oracle_refuses_a_sidecar_that_lists_a_line_twice(tmp_path):
    sys.path.insert(0, str(REPO / "src"))
    import linespace

    s, meta = linespace.gen_pg3(2)
    structure = linespace.io.structure_to_dict(s)
    path = tmp_path / "pg3.meta.json"
    linespace.io.save_pg3_meta(meta, path)
    assert oracle.Pg3Oracle(path).structure_error(structure) is None

    # Line 1 is replaced by a copy of line 0, and the skew pairs are made to
    # agree with the copy, so only the duplicate gives it away.
    sidecar = json.loads(path.read_text())
    sidecar["line_reps"][1] = sidecar["line_reps"][0]
    path.write_text(json.dumps(sidecar))
    bad = oracle.Pg3Oracle(path)
    upper = [(int(a), int(b)) for a, b in zip(*(~bad.meets).nonzero()) if a < b]
    structure["skew_pairs"] = [list(pair) for pair in upper]
    assert bad.structure_error(structure) == "the sidecar lists a line twice"
    bad.sidecar_error = None
    assert bad.structure_error(structure) is None


def test_replay_that_returns_false_is_a_failure(tmp_path):
    sys.path.insert(0, str(REPO / "src"))
    import linespace

    s, _ = linespace.gen_pg3(2)
    a, b = linespace.incident_pairs(s)[0]
    first, second = (sorted(c) for c in linespace.sigma_partition(s, a, b).classes)
    # p and q lie in different incidence classes of sigma(a, b), so they are
    # skew, and the replay returns the adjacency entry: a NumPy False.
    ce = {"pair": linespace.labels_of(s, (a, b)), "p": s.labels[first[0]],
          "q": s.labels[second[0]], "r": s.labels[first[1]]}
    claim = {"check_name": "thm_two_classes", "status": "fail", "counterexample": ce}
    structure, report, result = (tmp_path / n for n in ("pg3.json", "report.json", "out.json"))
    linespace.save_structure(s, structure)
    report.write_text(json.dumps({"reports": [claim]}))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, BENCH / "steps.py", "replay", structure, "--report", report,
                    "--out", result], env=env, check=True, capture_output=True)
    replayed = json.loads(result.read_text())
    assert replayed["attempted"] == 1 and len(replayed["failed"]) == 1
