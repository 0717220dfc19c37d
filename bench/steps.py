"""One benchmark step in a fresh process, optionally traced.

    python3 bench/steps.py structure-check S.json --out RESULT.json
    python3 bench/steps.py replay S.json --report R.json --out RESULT.json
    python3 bench/steps.py generate pg3 --q 3 --out S.json --spans SPANS.json
    python3 bench/steps.py check S.json --which all --report R.json --spans SPANS.json
    python3 bench/steps.py derive S.json --out M.json [--seed i,j,k] --spans SPANS.json
    python3 bench/steps.py dualize M.json --out D.json --spans SPANS.json

`structure-check` and `replay` are library steps that the timed runs use
as they are.  `generate`, `check`, `derive` and `dualize` mirror the
`linespace` commands of the same name through the package's public
functions, with a span around each call into a module, and write the same
files; only the traced run uses them.  With `--spans` the spans and
counters are written to that file when the step ends.

The package is imported inside the `cli.import` span, so this module must
not import it at the top.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from spans import Recorder

AXIOMS = ("axiom1", "axiom2_1", "axiom2_2", "axiom2_3", "axiom3", "axiom4")
STRUCTURE_THEOREMS = (
    "thm_sigma_equivalence",
    "thm_two_classes",
    "thm_bracket_welldefined",
    "thm_line_selfperp",
    "thm_regulus_skew",
    "thm_bracket_closed",
    "thm_coherence",
    "thm_mutual_membership",
)
MODEL_THEOREMS = (
    "thm_triad_typing",
    "thm_point_ne_plane",
    "thm_pencil_intersection",
    "thm_exchange",
    "thm_not_singleton",
    "thm_uniqueness",
    "thm_line_in_plane",
    "thm_triangle",
    "thm_tetrahedron",
)
THEOREMS = STRUCTURE_THEOREMS + MODEL_THEOREMS
VY_CHECKS = ("vy_e0", "vy_e1", "vy_e2", "vy_e3", "vy_e3p", "vy_a1", "vy_a2", "vy_a3")
ALL_CHECKS = AXIOMS + THEOREMS + VY_CHECKS
DEPENDENCY_UNMET = "dependency_unmet"


def examined(stats: dict) -> int:
    """A report's `*_examined` stat, or 0 when it has none."""
    return sum(v for k, v in stats.items() if k.endswith("_examined"))


def report_from_dict(ls, data: dict):
    return ls.CheckReport(
        check_name=data["check_name"],
        status=data["status"],
        counterexample=data.get("counterexample"),
        witness_sample=data.get("witness_sample"),
        stats=data.get("stats", {}),
    )


class Step:
    def __init__(self, rec: Recorder):
        self.rec = rec
        with rec.span("cli.import"):
            import linespace

        self.ls = linespace
        # The package re-exports a function named `sigma`, which hides the module.
        self.sigma = importlib.import_module("linespace.sigma")
        self.label_errors = (linespace.NotTwoClassesError, linespace.LabelInconsistencyError)

    def load_structure(self, path):
        with self.rec.span("io.load_structure"):
            s = self.ls.load_structure(path)
        self.rec.count("io.structure.bytes", os.path.getsize(path))
        return s

    def shared_tables(self, s, full: bool):
        """Build the cached tables the checks share, each in its own span."""
        rec = self.rec
        with rec.span("core.masks"):
            s.masks
        with rec.span("core.incident_pairs"):
            pairs = self.ls.incident_pairs(s)
        rec.count("core.incident_pairs.count", len(pairs))
        if not full:
            return
        with rec.span("sigma.table"):
            for a, b in pairs:
                self.sigma.sigma_mask(s, a, b)
        # The package stops at the first pair without two classes, so this does too.
        with rec.span("sigma.partition"):
            for a, b in pairs:
                try:
                    self.sigma.sigma_partition(s, a, b)
                except self.sigma.NotTwoClassesError:
                    break
        with rec.span("labeling.element_table"):
            elements = self.ls.enumerate_secondary_elements(s)
        rec.count("labeling.elements", len(elements))

    def run_check(self, layer: str, name: str, fn, *args):
        with self.rec.span(f"{layer}.{name}"):
            result = fn(*args)
        reports = result if isinstance(result, list) else [result]
        self.rec.count(f"{layer}.{name}.cases", sum(examined(r.stats) for r in reports))
        return reports

    def labels(self, s, seed=None):
        """coordinate_labels in its own span; None when the structure has no labeling."""
        try:
            with self.rec.span("labeling.coordinate_labels"):
                return self.ls.coordinate_labels(s, seed)
        except self.label_errors:
            return None

    # Mirrors of the CLI commands -------------------------------------------

    def generate(self, args) -> int:
        if args.kind != "pg3":
            raise SystemExit(f"traced generate supports pg3 only, got {args.kind!r}")
        with self.rec.span("cli.generate"):
            with self.rec.span("models.gen_pg3"):
                s, meta = self.ls.gen_pg3(args.q)
            self.rec.count("models.gen_pg3.lines", s.line_count)
            with self.rec.span("io.save_structure"):
                self.ls.save_structure(s, args.out)
            self.rec.count("io.structure.bytes", os.path.getsize(args.out))
            with self.rec.span("io.save_pg3_meta"):
                self.ls.io.save_pg3_meta(meta, os.path.splitext(args.out)[0] + ".meta.json")
        return 0

    def check(self, args) -> int:
        if args.which != "all":
            raise SystemExit(f"traced check supports --which all only, got {args.which!r}")
        ls = self.ls
        with self.rec.span("cli.check"):
            s = self.load_structure(args.input)
            self.shared_tables(s, full=True)
            reports = []
            with self.rec.span("axioms.check_all"):
                for name in AXIOMS:
                    reports += self.run_check("axioms", name, getattr(ls, f"check_{name}"), s)
            with self.rec.span("theorems.run_theorem_suite"):
                for name in STRUCTURE_THEOREMS:
                    reports += self.run_check("theorems", name, getattr(ls, name), s)
                m = self.labels(s)
                for name in MODEL_THEOREMS:
                    if m is None:
                        reports.append(ls.CheckReport(name, DEPENDENCY_UNMET))
                    else:
                        reports += self.run_check("theorems", name, getattr(ls, name), s, m)
            with self.rec.span("theorems.run_vy_battery"):
                m = self.labels(s)
                if m is None:
                    reports += [ls.CheckReport(name, DEPENDENCY_UNMET) for name in VY_CHECKS]
                else:
                    reports += self.run_check("theorems", "vy_axioms", ls.vy_axioms, s, m)
            with self.rec.span("io.save_reports"):
                ls.save_reports(reports, args.report)
        return 0 if all(r.passed for r in reports) else 1

    def derive(self, args) -> int:
        with self.rec.span("cli.derive"):
            s = self.load_structure(args.input)
            seed = tuple(int(v) for v in args.seed.split(",")) if args.seed else None
            m = self.labels(s, seed)
            if m is None:
                return 1
            with self.rec.span("io.save_model"):
                self.ls.save_model(m, args.out)
        return 0

    def dualize(self, args) -> int:
        with self.rec.span("cli.dualize"):
            with self.rec.span("io.load_model"):
                m = self.ls.load_model(args.input)
            try:
                with self.rec.span("labeling.dualize"):
                    d = self.ls.dualize(m)
            except self.label_errors:
                return 1
            with self.rec.span("io.save_model"):
                self.ls.save_model(d, args.out)
        return 0

    # Library steps ---------------------------------------------------------

    def structure_check(self, args) -> int:
        """load_structure, check_axiom1 and check_axiom2_1."""
        with self.rec.span("cli.structure_check"):
            s = self.load_structure(args.input)
            self.shared_tables(s, full=False)
            reports = []
            for name in ("axiom1", "axiom2_1"):
                reports += self.run_check("axioms", name, getattr(self.ls, f"check_{name}"), s)
            with open(args.out, "w") as f:
                json.dump([r.to_dict() for r in reports], f, sort_keys=True)
        return 0

    def replay(self, args) -> int:
        """Replay every failing report of a check run on a freshly loaded structure.

        A replay that returns something false or raises is a failure; a check
        whose replay function has no case for it is recorded as missing.
        """
        ls = self.ls
        s = self.load_structure(args.input)
        with open(args.report) as f:
            reports = [report_from_dict(ls, d) for d in json.load(f)["reports"]]
        out = {"attempted": 0, "failed": [], "missing": []}
        model = None
        for r in reports:
            if r.status != "fail":
                continue
            name = r.check_name
            layer = "axioms" if name in AXIOMS else "theorems"
            try:
                if layer == "axioms":
                    with self.rec.span("axioms.replay"):
                        ok = ls.replay_counterexample(s, r)
                else:
                    if model is None and name not in STRUCTURE_THEOREMS:
                        model = self.labels(s)
                    with self.rec.span("theorems.replay"):
                        ok = ls.replay_theorem_counterexample(s, r, model)
                why = f"returned {ok!r}"
            except Exception as e:  # a replay that raises is a failed operation
                if isinstance(e, ValueError) and "no replay registered" in str(e):
                    out["missing"].append(name)
                    self.rec.count("theorems.replay.missing", 1)
                    continue
                ok, why = False, f"raised {type(e).__name__}: {e}"
            out["attempted"] += 1
            self.rec.count(f"{layer}.replay.attempted", 1)
            if not ok:
                out["failed"].append(f"{name} {why}")
        with open(args.out, "w") as f:
            json.dump(out, f, sort_keys=True)
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="steps.py")
    sub = parser.add_subparsers(dest="step", required=True)

    def add(name, *positional, **options):
        p = sub.add_parser(name)
        for arg in positional:
            p.add_argument(arg)
        for opt, default in options.items():
            p.add_argument(f"--{opt}", default=default, required=default is ...)
        p.add_argument("--spans", default=None, help="write spans and counters here")

    add("generate", "kind", q=..., out=...)
    add("check", "input", which="all", report=...)
    add("derive", "input", out=..., seed=None)
    add("dualize", "input", out=...)
    add("structure-check", "input", out=...)
    add("replay", "input", report=..., out=...)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.step == "generate":
        args.q = int(args.q)
    rec = Recorder(enabled=args.spans is not None)
    step = Step(rec)
    code = getattr(step, args.step.replace("-", "_"))(args)
    if args.spans:
        rec.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
