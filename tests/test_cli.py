"""Command-line interface: exit codes, files written, human output."""

import gc
import hashlib
import json
from pathlib import Path

import pytest

import numpy as np

from linespace import IncidenceStructure, gen_negative, gen_pg3, gen_tetrahedron, save_structure
from linespace.cli import main

from conftest import run_python

GOLDEN = json.loads((Path(__file__).parent / "golden" / "check_all.json").read_text())
GENERATE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "generate.json").read_text())
PG3_GOLDEN = json.loads((Path(__file__).parent / "golden" / "pg3.json").read_text())


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_tetrahedron(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, stdout, _ = run(["generate", "tetrahedron", "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["lines"]) == 6
        assert len(data["skew_pairs"]) == 3

    def test_pg3_with_sidecar(self, tmp_path, capsys):
        out = tmp_path / "pg2.json"
        code, stdout, _ = run(["generate", "pg3", "--q", "2", "--out", str(out)], capsys)
        assert code == 0
        assert len(json.loads(out.read_text())["lines"]) == 35
        sidecar = tmp_path / "pg2.meta.json"
        assert sidecar.exists()
        assert json.loads(sidecar.read_text())["q"] == 2

    def test_unsupported_field(self, tmp_path, capsys):
        code, _, stderr = run(
            ["generate", "pg3", "--q", "4", "--out", str(tmp_path / "x.json")], capsys
        )
        assert code == 2
        assert "unsupported field" in stderr

    def test_pg3_without_q(self, tmp_path, capsys):
        code, _, stderr = run(
            ["generate", "pg3", "--out", str(tmp_path / "x.json")], capsys
        )
        assert code == 2

    def test_negative_kind(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        code, _, _ = run(["generate", "negative:two_components", "--out", str(out)], capsys)
        assert code == 0
        assert len(json.loads(out.read_text())["lines"]) == 12

    def test_unknown_negative(self, tmp_path, capsys):
        code, _, stderr = run(
            ["generate", "negative:bogus", "--out", str(tmp_path / "x.json")], capsys
        )
        assert code == 2

    def test_unknown_kind(self, tmp_path, capsys):
        code, _, _ = run(["generate", "cube", "--out", str(tmp_path / "x.json")], capsys)
        assert code == 2


@pytest.fixture()
def tetra_file(tmp_path, capsys):
    out = tmp_path / "t.json"
    main(["generate", "tetrahedron", "--out", str(out)])
    capsys.readouterr()
    return out


@pytest.fixture()
def pg2_file(tmp_path, capsys):
    out = tmp_path / "pg2.json"
    main(["generate", "pg3", "--q", "2", "--out", str(out)])
    capsys.readouterr()
    return out


class TestCheck:
    def test_tetra_axioms_exit_one(self, tetra_file, capsys):
        code, stdout, _ = run(["check", str(tetra_file), "--which", "axioms"], capsys)
        assert code == 1
        assert "AXIOM [1]                    FAIL" in stdout
        assert stdout.count("PASS") == 5

    def test_pg2_all_exit_zero(self, pg2_file, capsys):
        code, stdout, _ = run(["check", str(pg2_file), "--which", "all"], capsys)
        assert code == 0
        assert "FAIL" not in stdout and "UNMET" not in stdout

    def test_report_written(self, tetra_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, _, _ = run(
            ["check", str(tetra_file), "--which", "axioms", "--report", str(report)],
            capsys,
        )
        assert code == 1
        data = json.loads(report.read_text())
        assert data["format"] == "linespace-report-v1"
        assert len(data["reports"]) == 6

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, stderr = run(["check", str(bad)], capsys)
        assert code == 2

    def test_over_cap_file_exits_two_without_allocating(self, tmp_path, capsys, monkeypatch):
        import numpy as np

        def spy(shape, *args, **kwargs):
            raise MemoryError(f"allocated {shape} before the cap check")

        path = tmp_path / "big.json"
        lines = [f"l{i}" for i in range(9)]
        path.write_text(json.dumps({"format": "linespace-v1", "lines": lines, "skew_pairs": []}))
        monkeypatch.setenv("LINESPACE_MAX_LINES", "8")
        for name in ("ones", "zeros", "empty", "full"):
            monkeypatch.setattr(np, name, spy)
        code, _, stderr = run(["check", str(path)], capsys)
        assert code == 2
        assert "cap is 8" in stderr

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(["check", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    def test_theorems_only(self, tetra_file, capsys):
        code, stdout, _ = run(["check", str(tetra_file), "--which", "theorems"], capsys)
        assert code == 0  # every verifier passes on the six-line fixture

    def test_vy_only(self, tetra_file, capsys):
        code, stdout, _ = run(["check", str(tetra_file), "--which", "vy"], capsys)
        assert code == 1  # e0 needs three points per line

    def test_all_classifies_elements_once(self, pg2_file, tmp_path, capsys, monkeypatch):
        # a failed labeling is cached too, so two_components is classified once
        import linespace.labeling as labeling

        calls = []
        classify = labeling.classify_elements

        def counted(s, seed):
            calls.append(seed)
            return classify(s, seed)

        monkeypatch.setattr(labeling, "classify_elements", counted)
        unlabelable = tmp_path / "two_components.json"
        save_structure(gen_negative("two_components"), unlabelable)
        for path, want in ((pg2_file, 0), (unlabelable, 1)):
            calls.clear()
            code, _, _ = run(["check", str(path), "--which", "all"], capsys)
            assert (code, len(calls)) == (want, 1)


def check_all_report(name, tmp_path, capsys):
    """Path of the `check --which all` report of a golden structure."""
    if name == "tetrahedron":
        s = gen_tetrahedron()
    elif name == "pg2":
        s = gen_pg3(2)[0]
    else:
        s = gen_negative(name)
    path, report = tmp_path / "s.json", tmp_path / "r.json"
    save_structure(s, path)
    run(["check", str(path), "--which", "all", "--report", str(report)], capsys)
    return report


class TestGoldenVerdicts:
    """check --which all names the same verdicts and counterexamples as ever.

    tests/golden/check_all.json holds (check_name, status, counterexample)
    per report; stats are left out on purpose, as they count the work done.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_check_all_matches_golden(self, name, tmp_path, capsys):
        report = check_all_report(name, tmp_path, capsys)
        got = [
            [r["check_name"], r["status"], r.get("counterexample")]
            for r in json.loads(report.read_text())["reports"]
        ]
        assert got == GOLDEN[name]


class TestGoldenReports:
    """check --which all writes the same report bytes as ever, stats included.

    tests/golden/reports/<name>.json holds the whole report file of each
    structure, so any change in a verdict, witness or case count shows.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_bytes_match_golden(self, name, tmp_path, capsys):
        report = check_all_report(name, tmp_path, capsys)
        golden = Path(__file__).parent / "golden" / "reports" / f"{name}.json"
        assert report.read_bytes() == golden.read_bytes()


class TestGoldenGenerate:
    """generate writes the same structure and meta bytes as ever.

    tests/golden/generate.json holds the SHA-256 of each file and the counts
    printed to stdout, recorded before generation moved to Plücker
    coordinates and the skew pairs left the JSON encoder.
    """

    @pytest.mark.parametrize("kind", sorted(GENERATE_GOLDEN))
    def test_files_match_golden(self, kind, tmp_path, capsys):
        golden = GENERATE_GOLDEN[kind]
        out = tmp_path / "s.json"
        code, stdout, _ = run(["generate", *kind.split(), "--out", str(out)], capsys)
        assert code == 0
        assert stdout.splitlines()[0] == f"wrote {out}: {golden['stdout']}"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["structure"]
        meta = tmp_path / "s.meta.json"
        if "meta" in golden:
            assert hashlib.sha256(meta.read_bytes()).hexdigest() == golden["meta"]
        else:
            assert not meta.exists()


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pg3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pg3") / "pg3.json"
    save_structure(gen_pg3(3)[0], path)
    return path


class TestGoldenPg3:
    """PG(3,3) check, derive and dualize files keep their bytes.

    tests/golden/pg3.json holds the SHA-256 of each file, recorded before
    the labeling and the pair-level checks moved to element masks: the
    `check --which all` report (stats included), `derive` with the default
    seed and with 0,1,1, `dualize` of the default model, and the reports of
    three mutants, each given by the incident or skew pairs it flips.
    """

    def test_check_all_report(self, pg3_file, tmp_path, capsys):
        report = tmp_path / "r.json"
        argv = ["check", str(pg3_file), "--which", "all", "--report", str(report)]
        assert run(argv, capsys)[0] == 0
        assert sha256(report) == PG3_GOLDEN["check_all"]

    def test_derive_and_dualize(self, pg3_file, tmp_path, capsys):
        m, m1, d = tmp_path / "m.json", tmp_path / "m1.json", tmp_path / "d.json"
        assert run(["derive", str(pg3_file), "--out", str(m)], capsys)[0] == 0
        assert run(["derive", str(pg3_file), "--out", str(m1), "--seed", "0,1,1"], capsys)[0] == 0
        assert run(["dualize", str(m), "--out", str(d)], capsys)[0] == 0
        assert sha256(m) == PG3_GOLDEN["derive"]
        assert sha256(m1) == PG3_GOLDEN["derive_seed_0_1_1"]
        assert sha256(d) == PG3_GOLDEN["dualize"]

    @pytest.mark.parametrize("k", range(len(PG3_GOLDEN["mutants"])))
    def test_mutant_reports(self, k, tmp_path, capsys):
        golden = PG3_GOLDEN["mutants"][k]
        s = gen_pg3(3)[0]
        adj = np.array(s.adjacency)
        for i, j in golden["flips"]:
            adj[i, j] = adj[j, i] = not adj[i, j]
        path, report = tmp_path / "s.json", tmp_path / "r.json"
        save_structure(IncidenceStructure(adj, labels=s.labels, name=s.name), path)
        code, _, _ = run(["check", str(path), "--which", "all", "--report", str(report)], capsys)
        assert code == 1
        assert sha256(report) == golden["check_all"]


STDOUT_GOLDEN = json.loads((Path(__file__).parent / "golden" / "check_stdout.json").read_text())


class TestGoldenStdout:
    """check prints the same lines and exits with the same code as ever.

    tests/golden/check_stdout.json holds, per structure and --which, the
    whole stdout (display names, verdicts and counterexamples) and the exit
    code, recorded before the checks moved to one registry.
    """

    @pytest.mark.parametrize("which", ["axioms", "theorems", "vy", "all"])
    @pytest.mark.parametrize("name", sorted(STDOUT_GOLDEN))
    def test_stdout_and_exit_match_golden(self, name, which, tmp_path, capsys):
        if name == "pg3":
            s = gen_pg3(3)[0]
        elif name == "tetrahedron":
            s = gen_tetrahedron()
        else:
            s = gen_negative(name)
        path = tmp_path / "s.json"
        save_structure(s, path)
        code, stdout, _ = run(["check", str(path), "--which", which], capsys)
        golden = STDOUT_GOLDEN[name][which]
        assert (code, stdout) == (golden["exit"], golden["stdout"])


class TestDerive:
    def test_pg2_model(self, pg2_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, _ = run(["derive", str(pg2_file), "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 15
        assert len(data["planes"]) == 15

    def test_tetra_model(self, tetra_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, _ = run(["derive", str(tetra_file), "--out", str(out)], capsys)
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 4 and len(data["planes"]) == 4

    def test_swapped_seed_exchanges_families(self, tetra_file, tmp_path, capsys):
        m0, m1 = tmp_path / "m0.json", tmp_path / "m1.json"
        run(["derive", str(tetra_file), "--out", str(m0), "--seed", "0,1,0"], capsys)
        run(["derive", str(tetra_file), "--out", str(m1), "--seed", "0,1,1"], capsys)
        d0 = json.loads(m0.read_text())
        d1 = json.loads(m1.read_text())
        assert d0["points"] == d1["planes"]
        assert d0["planes"] == d1["points"]

    def test_underivable_structure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        main(["generate", "negative:two_components", "--out", str(bad)])
        capsys.readouterr()
        code, stdout, _ = run(["derive", str(bad), "--out", str(tmp_path / "m.json")], capsys)
        assert code == 1
        assert "cannot derive" in stdout

    def test_bad_seed_string(self, tetra_file, tmp_path, capsys):
        code, _, stderr = run(
            ["derive", str(tetra_file), "--out", str(tmp_path / "m.json"), "--seed", "1,2"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("seed", ["999,0,0", "0,-1,0"])
    def test_seed_line_outside_the_structure(self, seed, tetra_file, tmp_path, capsys):
        """A usage error, as a repeated or a skew seed pair is, not a failed check."""
        out = tmp_path / "m.json"
        code, stdout, stderr = run(["derive", str(tetra_file), "--out", str(out), "--seed", seed], capsys)
        assert (code, stdout) == (2, "")
        assert "is not a line index in [0, 6)" in stderr
        assert not out.exists()


class TestDualize:
    def test_involution_byte_identical(self, pg2_file, tmp_path, capsys):
        m = tmp_path / "m.json"
        d = tmp_path / "d.json"
        dd = tmp_path / "dd.json"
        run(["derive", str(pg2_file), "--out", str(m)], capsys)
        assert run(["dualize", str(m), "--out", str(d)], capsys)[0] == 0
        assert run(["dualize", str(d), "--out", str(dd)], capsys)[0] == 0
        assert m.read_bytes() == dd.read_bytes()
        assert m.read_bytes() != d.read_bytes()

    def test_inconsistent_model_rejected(self, tetra_file, tmp_path, capsys):
        m = tmp_path / "m.json"
        run(["derive", str(tetra_file), "--out", str(m)], capsys)
        data = json.loads(m.read_text())
        data["planes"] = data["planes"][:-1]
        m.write_text(json.dumps(data))
        code, stdout, _ = run(["dualize", str(m), "--out", str(tmp_path / "d.json")], capsys)
        assert code == 1
        assert "failed verification" in stdout


class TestDualizeFamilies:
    """dualize takes only a model whose families are exactly the derived elements."""

    @pytest.fixture(scope="class")
    def pg3_model(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("model")
        save_structure(gen_pg3(3)[0], out / "s.json")
        assert main(["derive", str(out / "s.json"), "--out", str(out / "m.json")]) == 0
        return json.loads((out / "m.json").read_text())

    @pytest.mark.parametrize(
        "edit, issue",
        [
            (lambda d: d["points"].append([0, 1]), "element_not_derived"),
            (lambda d: d["points"].append(d["points"][3]), "element_listed_twice"),
            (lambda d: d["planes"].append(d["points"][0]), "element_listed_twice"),
            (lambda d: d["planes"].pop(5), "element_missing"),
        ],
        ids=["extra", "repeated_point", "point_as_plane", "dropped_plane"],
    )
    def test_altered_family_exits_one(self, pg3_model, edit, issue, tmp_path):
        data = json.loads(json.dumps(pg3_model))
        edit(data)
        (tmp_path / "m.json").write_text(json.dumps(data))
        argv = ["-m", "linespace.cli", "dualize", "m.json", "--out", "d.json"]
        done = run_python(argv, tmp_path)
        assert done.returncode == 1, done.stdout + done.stderr
        assert f"dualized labeling failed verification: {issue}" in done.stdout
        assert not (tmp_path / "d.json").exists()


# The three steps in one fresh process, then whether numpy.ma was imported:
# it costs 13-27 ms per process, and a bare np.unique(x) pulls it in.
STEPS_SCRIPT = """
import sys
from linespace.cli import main
codes = [
    main(["check", "pg2.json", "--which", "all"]),
    main(["derive", "pg2.json", "--out", "model.json"]),
    main(["dualize", "model.json", "--out", "dual.json"]),
]
print(codes, "numpy.ma" in sys.modules)
"""


def test_steps_do_not_import_masked_arrays(pg2_file, tmp_path):
    done = run_python(["-c", STEPS_SCRIPT], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] False"


LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("linespace."))))
"""
COMMAND_SCRIPT = "import sys\nfrom linespace.cli import main\nassert main(sys.argv[1:]) == 0\n" + LOADED
STRUCTURE_CHECK_SCRIPT = """
from linespace import check_axiom1, check_axiom2_1, load_structure
s = load_structure("pg2.json")
assert check_axiom1(s).passed and check_axiom2_1(s).passed
""" + LOADED
THEOREM_MODULES = ["theorems", "model_theorems", "battery"]


@pytest.mark.parametrize(
    "argv, left_out",
    [
        (["generate", "pg3", "--q", "2", "--out", "out.json"], ["axioms", "labeling", "registry", *THEOREM_MODULES]),
        (["derive", "pg2.json", "--out", "model.json"], ["axioms", "models", "registry", *THEOREM_MODULES]),
        (["dualize", "model.json", "--out", "dual.json"], ["axioms", "models", "registry", *THEOREM_MODULES]),
        (None, ["labeling", "models", *THEOREM_MODULES]),
    ],
    ids=["generate", "derive", "dualize", "structure_check"],
)
def test_steps_load_only_the_modules_they_run(argv, left_out, pg2_file, tmp_path, capsys):
    # each in a fresh process, so that sys.modules holds that step's loads alone
    main(["derive", str(pg2_file), "--out", str(tmp_path / "model.json")])
    capsys.readouterr()
    args = ["-c", STRUCTURE_CHECK_SCRIPT] if argv is None else ["-c", COMMAND_SCRIPT, *argv]
    done = run_python(args, tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "linespace.core" in loaded
    assert not {f"linespace.{m}" for m in left_out} & set(loaded)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", "tetrahedron", "--out", "t.json"], 0),
        (["check", "t.json", "--which", "axioms"], 1),  # axiom 1 fails on the six lines
        (["generate", "pg3", "--out", "x.json"], 2),  # no --q
        (["check", "missing.json"], 2),
    ],
    ids=["ok", "check_failed", "usage", "no_file"],
)
def test_module_run_exits_with_main_code(argv, code, tmp_path):
    # run() exits with main()'s code; the tetrahedron is written first
    assert run_python(["-m", "linespace.cli", "generate", "tetrahedron", "--out", "t.json"], tmp_path).returncode == 0
    done = run_python(["-m", "linespace.cli", *argv], tmp_path)
    assert done.returncode == code, done.stdout + done.stderr
    assert "Traceback" not in done.stderr


def test_main_freezes_nothing(pg2_file, tmp_path, capsys):
    # only run(), the console entry point, freezes the heap before exit
    before = gc.get_freeze_count()
    assert main(["check", str(pg2_file), "--which", "axioms"]) == 0
    assert main(["generate", "pg3", "--q", "2", "--out", str(tmp_path / "g.json")]) == 0
    assert gc.get_freeze_count() == before


class TestInfo:
    def test_tetra_info(self, tetra_file, capsys):
        code, stdout, _ = run(["info", str(tetra_file)], capsys)
        assert code == 0
        assert "lines:           6" in stdout
        assert "skew pairs:      3" in stdout
        assert "points:          4" in stdout

    def test_pg2_info(self, pg2_file, capsys):
        code, stdout, _ = run(["info", str(pg2_file)], capsys)
        assert code == 0
        assert "lines:           35" in stdout
        assert "perp size:       min 19, max 19" in stdout

    def test_underivable_info_still_exits_zero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        main(["generate", "negative:no_skew_anywhere", "--out", str(bad)])
        capsys.readouterr()
        code, stdout, _ = run(["info", str(bad)], capsys)
        assert code == 0
        assert "not derivable" in stdout

    def test_empty_file_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text("")
        code, _, _ = run(["info", str(bad)], capsys)
        assert code == 2


class TestUsage:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_which(self, tetra_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(tetra_file), "--which", "everything"])
        assert exc.value.code == 2
