#!/usr/bin/env python3
"""Benchmark of the linespace command line and library, with checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload pg33-pipeline --seed 1 --seconds 20 --trace 0

Every step runs in a fresh process, one at a time, against the package in
`src/` of the checkout.  With `--trace 0` the workload's timed step
sequence repeats until `--seconds` have passed, and at least twice, and
the end-to-end metrics are medians over those passes.  With `--trace 1` the sequence runs
once untraced and once traced (see steps.py), and the per-layer metrics
are span self times and counts from the traced pass.  Every output is
checked; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Scratch files go to
`.bench_work/` in the checkout.  See bench/README.md for the workloads and
what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import spans
from steps import ALL_CHECKS, AXIOMS, DEPENDENCY_UNMET, THEOREMS, examined

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent  # the checkout
WORK = ROOT / ".bench_work"
PY = sys.executable

BUDGET_S = 170  # a run must end within 180 s
SETUP_IMPORTS = 3  # timed imports before the first pass, after it, and at the end
MIN_PASSES = 2
MUTANTS = 5
WORKLOAD_Q = {"pg33-pipeline": 3, "pg35-structure": 5, "pg33-mutants": 3}

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "check_s": "s", "peak_rss_mb": "MB"}

SPAN_NAMES = (
    ["cli.import", "cli.generate", "cli.check", "cli.derive", "cli.dualize"]
    + ["cli.structure_check"]
    + ["models.gen_pg3"]
    + ["io.save_structure", "io.load_structure", "io.save_pg3_meta"]
    + ["io.save_model", "io.load_model", "io.save_reports"]
    + ["core.masks", "core.incident_pairs", "sigma.table", "sigma.partition"]
    + ["labeling.element_table", "labeling.coordinate_labels", "labeling.dualize"]
    + [f"axioms.{n}" for n in AXIOMS]
    + ["axioms.check_all"]
    + [f"theorems.{n}" for n in THEOREMS]
    + ["theorems.vy_axioms", "theorems.run_theorem_suite", "theorems.run_vy_battery"]
    + ["axioms.replay", "theorems.replay"]
)
COUNT_NAMES = (
    ["models.gen_pg3.lines", "io.structure.bytes", "core.incident_pairs.count"]
    + ["labeling.elements"]
    + [f"axioms.{n}.cases" for n in AXIOMS]
    + [f"theorems.{n}.cases" for n in THEOREMS]
    + ["theorems.vy_axioms.cases"]
    + ["axioms.replay.attempted", "theorems.replay.attempted", "theorems.replay.missing"]
)
STEP_TIMES = ("generate_s", "derive_dualize_s", "replay_s")


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.s": "s" for n in SPAN_NAMES}
    units.update({n: "bytes" if n.endswith(".bytes") else "count" for n in COUNT_NAMES})
    units.update({n: "s" for n in STEP_TIMES})
    units.update({"trace.overhead_s": "s", "trace.check_coverage": "ratio"})
    return units


class BudgetExceeded(Exception):
    pass


@dataclass
class StepRun:
    """One step process: what it wrote, how it exited and how long it took."""

    name: str
    code: int
    wall: float
    output: str
    files: list[Path] = field(default_factory=list)  # compared byte for byte
    report: Path | None = None  # compared by verdicts
    spans: Path | None = None


class Bench:
    """Runs step processes for one workload run and keeps its tallies."""

    def __init__(self, workload: str, seed: int, q: int):
        self.workload = workload
        self.seed = seed
        self.q = q
        self.rng = random.Random(f"{workload}:{seed}")
        self.deadline = time.monotonic() + BUDGET_S
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list) -> tuple[int, float, str]:
        """Run one process to completion; its own max-RSS feeds peak_rss_mb."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BudgetExceeded(f"no time left for {argv[1:4]}")
        log = self.work / "process.log"
        with open(log, "w+b") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], stdout=out, stderr=out, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            output = out.read().decode(errors="replace")
        if proc.returncode < 0 and time.monotonic() >= self.deadline:
            raise BudgetExceeded(f"killed at the time limit: {argv[1:4]}")
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, wall, output

    def op(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED {what}: {error}", file=sys.stderr)

    def setup_import(self) -> float:
        code, wall, output = self.spawn(
            [PY, "-c", "import linespace; print(linespace.__file__)"]
        )
        if code != 0:
            raise SystemExit(f"cannot import linespace from {ROOT / 'src'}:\n{output}")
        if not Path(output.strip()).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"linespace was imported from {output.strip()}, not {ROOT / 'src'}")
        return wall


def step_error(step: StepRun, expected_code: int) -> str | None:
    if "Traceback (most recent call last)" in step.output:
        return "printed a traceback:\n" + step.output[-2000:]
    if step.code != expected_code:
        return f"exit code {step.code}, expected {expected_code}:\n{step.output[-2000:]}"
    return None


class Iteration:
    """One pass over a workload's step sequence, untraced or traced."""

    def __init__(self, bench: Bench, name: str, traced: bool):
        self.bench = bench
        self.dir = bench.work / name
        self.dir.mkdir(parents=True)
        self.traced = traced
        self.steps: list[StepRun] = []
        self.wall = 0.0

    def path(self, name: str) -> Path:
        return self.dir / name

    def run(self, name: str, args: list, files=(), report=None, library=False) -> StepRun:
        """Run a `linespace` command, or a bench/steps.py step when traced or `library`."""
        if self.traced or library:
            argv = [PY, BENCH / "steps.py", *args]
        else:
            argv = [PY, "-m", "linespace.cli", *args]
        spans_file = None
        if self.traced:
            spans_file = self.path(f"spans-{len(self.steps)}.json")
            argv += ["--spans", spans_file]
        code, wall, output = self.bench.spawn(argv)
        step = StepRun(name, code, wall, output, list(files), report, spans_file)
        self.steps.append(step)
        return step

    def total(self, *names: str) -> float:
        return sum(s.wall for s in self.steps if s.name in names)


def verdicts(report_path: Path) -> list[tuple]:
    """(check_name, status, counterexample) per report; stats never count."""
    reports = json.loads(report_path.read_text())["reports"]
    return [
        (
            r["check_name"],
            r["status"],
            None if r["status"] == DEPENDENCY_UNMET else r.get("counterexample"),
        )
        for r in reports
    ]


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def compare(bench: Bench, ref: Iteration, it: Iteration) -> None:
    """Every step of `it` must exit and write exactly as the same step of `ref`."""
    if [s.name for s in it.steps] != [s.name for s in ref.steps]:
        bench.op(f"{it.dir.name} steps", "step sequence differs from the first pass")
        return
    for a, b in zip(ref.steps, it.steps):
        error = step_error(b, a.code)
        if error is None and a.report is not None:
            if not b.report.exists() or verdicts(a.report) != verdicts(b.report):
                error = f"verdicts in {b.report} differ from {a.report}"
        for fa, fb in zip(a.files, b.files):
            if error is None and _read(fa) != _read(fb):
                error = f"{fb} differs from {fa}"
        bench.op(f"{it.dir.name} {b.name}", error)


# Workloads -----------------------------------------------------------------


class Pg33Pipeline:
    """generate pg3 | check --which all --report | derive --seed | dualize."""

    def setup(self, bench: Bench) -> None:
        base = Iteration(bench, "setup", traced=False)
        gen = base.run("generate", ["generate", "pg3", "--q", bench.q, "--out", base.path("pg3.json")])
        self.oracle = oracle.Pg3Oracle(base.path("pg3.meta.json"))
        self.structure = base.path("pg3.json").read_bytes()
        bench.op(
            "setup generate",
            step_error(gen, 0) or self.oracle.structure_error(json.loads(self.structure)),
        )
        a, b = bench.rng.choice(self.oracle.incident_pairs)
        self.derive_seed = f"{a},{b},{bench.rng.randint(0, 1)}"

    def iterate(self, it: Iteration) -> None:
        structure, report = it.path("pg3.json"), it.path("report.json")
        model, dual = it.path("model.json"), it.path("dual.json")
        it.run("generate", ["generate", "pg3", "--q", it.bench.q, "--out", structure],
               files=[structure, it.path("pg3.meta.json")])
        it.run("check", ["check", structure, "--which", "all", "--report", report], report=report)
        it.run("derive", ["derive", structure, "--out", model, "--seed", self.derive_seed],
               files=[model])
        it.run("dualize", ["dualize", model, "--out", dual], files=[dual])

    def validate(self, bench: Bench, it: Iteration) -> None:
        gen, check, derive, dualize = it.steps
        same = _read(gen.files[0]) == self.structure
        bench.op("generate", step_error(gen, 0)
                 or (None if same else "structure differs from the verified one"))
        expected = [(name, "pass", None) for name in ALL_CHECKS]
        passed = check.report.exists() and verdicts(check.report) == expected
        bench.op("check", step_error(check, 0)
                 or (None if passed else "not every check passes"))
        for step in (derive, dualize):
            model = json.loads(_read(step.files[0]) or "{}")
            bench.op(step.name, step_error(step, 0) or self.oracle.families_error(model))
        back = it.path("dual-dual.json")
        again = StepRun("dualize twice", *bench.spawn(
            [PY, "-m", "linespace.cli", "dualize", dualize.files[0], "--out", back]))
        same = _read(back) == _read(derive.files[0])
        bench.op("dualize twice", step_error(again, 0)
                 or (None if same else "dualizing twice changed the model file"))

    def check_s(self, it: Iteration) -> float:
        return it.total("check")


class Pg35Structure:
    """generate pg3 --q 5, then load_structure, check_axiom1, check_axiom2_1."""

    def setup(self, bench: Bench) -> None:
        q = bench.q
        lines = (q * q + 1) * (q * q + q + 1)
        self.incident_pairs = lines * q * (q + 1) ** 2 // 2

    def iterate(self, it: Iteration) -> None:
        structure, result = it.path("pg3.json"), it.path("result.json")
        it.run("generate", ["generate", "pg3", "--q", it.bench.q, "--out", structure],
               files=[structure, it.path("pg3.meta.json")])
        it.run("structure-check", ["structure-check", structure, "--out", result],
               files=[result], library=True)

    def validate(self, bench: Bench, it: Iteration) -> None:
        gen, check = it.steps
        error = step_error(gen, 0)
        if error is None:
            meta, structure = gen.files[1], json.loads(gen.files[0].read_text())
            error = oracle.Pg3Oracle(meta).structure_error(structure)
        bench.op("generate", error)
        error = step_error(check, 0)
        if error is None:
            reports = json.loads(check.files[0].read_text())
            statuses = [(r["check_name"], r["status"]) for r in reports]
            if statuses != [("axiom1", "pass"), ("axiom2_1", "pass")]:
                error = f"verdicts {statuses}"
            else:
                pairs = examined(reports[1]["stats"])
                if pairs != self.incident_pairs:
                    error = f"axiom2_1 examined {pairs} pairs, expected {self.incident_pairs}"
        bench.op("structure-check", error)

    def check_s(self, it: Iteration) -> float:
        return it.total("structure-check")


class Pg33Mutants:
    """Per seeded mutant of PG(3,q): check --which all --report, derive, replay."""

    def setup(self, bench: Bench) -> None:
        base = Iteration(bench, "setup", traced=False)
        gen = base.run("generate", ["generate", "pg3", "--q", bench.q, "--out", base.path("pg3.json")])
        structure = json.loads(base.path("pg3.json").read_text())
        bench.op(
            "setup generate",
            step_error(gen, 0)
            or oracle.Pg3Oracle(base.path("pg3.meta.json")).structure_error(structure),
        )
        n = len(structure["lines"])
        skew = {tuple(p) for p in structure["skew_pairs"]}
        self.mutants = []
        for k in range(MUTANTS):
            flips = set()
            target = bench.rng.randint(1, 3)
            while len(flips) < target:
                flips.add(tuple(sorted(bench.rng.sample(range(n), 2))))
            mutant = dict(structure, name=f"{structure['name']}_mutant{k}",
                          skew_pairs=[list(p) for p in sorted(skew ^ flips)])
            path = base.path(f"mutant{k}.json")
            path.write_text(json.dumps(mutant, indent=2, sort_keys=True))
            self.mutants.append(path)

    def iterate(self, it: Iteration) -> None:
        for k, structure in enumerate(self.mutants):
            report, model, result = (it.path(f"{x}{k}.json") for x in ("report", "model", "replay"))
            it.run("check", ["check", structure, "--which", "all", "--report", report],
                   report=report)
            it.run("derive", ["derive", structure, "--out", model])
            it.run("replay", ["replay", structure, "--report", report, "--out", result],
                   files=[result], library=True)

    def validate(self, bench: Bench, it: Iteration) -> None:
        for k in range(len(self.mutants)):
            check, derive, replay = it.steps[3 * k : 3 * k + 3]
            got = verdicts(check.report) if check.report.exists() else []
            all_pass = all(status == "pass" for _, status, _ in got)
            error = step_error(check, 0 if all_pass else 1)
            if error is None and [name for name, _, _ in got] != list(ALL_CHECKS):
                error = "report does not list every check in order"
            bench.op(f"mutant{k} check", error)
            axiom4 = dict((name, status) for name, status, _ in got).get("axiom4")
            bench.op(f"mutant{k} derive", step_error(derive, 0 if axiom4 == "pass" else 1))
            bench.op(f"mutant{k} replay", step_error(replay, 0))
            if replay.code == 0:
                result = json.loads(replay.files[0].read_text())
                for failure in result["failed"]:
                    bench.op(f"mutant{k} replay", f"replay of {failure}")
                for _ in range(result["attempted"] - len(result["failed"])):
                    bench.op(f"mutant{k} replay", None)

    def check_s(self, it: Iteration) -> float:
        return it.total("check")


WORKLOADS = {"pg33-pipeline": Pg33Pipeline, "pg35-structure": Pg35Structure,
             "pg33-mutants": Pg33Mutants}


# Runs ----------------------------------------------------------------------


def run_pass(bench: Bench, workload, name: str, traced: bool) -> Iteration:
    it = Iteration(bench, name, traced)
    start = time.perf_counter()
    workload.iterate(it)
    it.wall = time.perf_counter() - start
    return it


def timed_run(bench: Bench, workload, seconds: float) -> dict:
    # The host's speed drifts over seconds, so the set-up samples are spread
    # over the run instead of taken back to back.
    bench.setup_import()  # compiles bytecode, so the timed imports below read it
    setup = [bench.setup_import() for _ in range(SETUP_IMPORTS)]
    workload.setup(bench)
    iterations = []
    start = time.perf_counter()
    while len(iterations) < MIN_PASSES or time.perf_counter() - start < seconds:
        it = run_pass(bench, workload, f"pass{len(iterations)}", traced=False)
        if iterations:
            compare(bench, iterations[0], it)
        else:
            workload.validate(bench, it)
            setup += [bench.setup_import() for _ in range(SETUP_IMPORTS)]
        iterations.append(it)
    setup += [bench.setup_import() for _ in range(SETUP_IMPORTS)]
    values = {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median(it.wall for it in iterations),
        "check_s": statistics.median(workload.check_s(it) for it in iterations),
        "peak_rss_mb": bench.peak_rss_kb / 1024,
    }
    print(f"{bench.workload}: {len(iterations)} passes, {len(setup)} set-ups", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def traced_run(bench: Bench, workload) -> dict:
    bench.setup_import()
    workload.setup(bench)
    plain = run_pass(bench, workload, "untraced", traced=False)
    traced = run_pass(bench, workload, "traced", traced=True)
    workload.validate(bench, plain)
    compare(bench, plain, traced)

    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    recorded = []
    top_check = 0.0
    for step in traced.steps:
        if not step.spans.exists():  # the step failed and was counted above
            continue
        data = json.loads(step.spans.read_text())
        recorded.append({"step": step.name, **data})
        for name, value in spans.self_times(data["spans"]).items():
            own[name] = own.get(name, 0.0) + value
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        if step.name in ("check", "structure-check"):
            top_check += spans.layer_total(data["spans"])
    (WORK / f"trace-{bench.workload}-seed{bench.seed}.json").write_text(json.dumps(recorded))

    values = {f"{n}.s": own.get(n, 0.0) for n in SPAN_NAMES}
    values.update({n: counts.get(n, 0) for n in COUNT_NAMES})
    values["generate_s"] = plain.total("generate")
    values["derive_dualize_s"] = plain.total("derive", "dualize")
    values["replay_s"] = plain.total("replay")
    values["trace.overhead_s"] = traced.wall - plain.wall
    values["trace.check_coverage"] = top_check / workload.check_s(plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--q", type=int, default=None,
                        help="field size for every structure (the smoke test uses 2)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "linespace" / "__init__.py").is_file():
        print(f"no linespace package under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.q or WORKLOAD_Q[args.workload])
    bench.work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            metrics = traced_run(bench, workload)
        else:
            metrics = timed_run(bench, workload, args.seconds)
    except BudgetExceeded as e:
        print(f"run stopped: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
