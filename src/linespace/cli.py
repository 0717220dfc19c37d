"""Command-line front end: generate, check, derive, dualize, info.

Exit codes are stable across commands: 0 for success or all checks
passing, 1 for failed checks or an inconsistent model, 2 for usage, IO or
parse errors.  Human-oriented summaries go to stdout and always use line
labels; machine output is written only when --report or --out is given,
in the canonical serialization, so repeated runs are byte-identical.

Each command imports the modules it runs, so that ``generate`` never loads
the checkers and ``derive`` and ``dualize`` load only the labeling.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from . import io as lio
from .core import LAYERS, CapacityError, LabelInconsistencyError, LinespaceError, PreconditionError, incident_pairs

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _print_reports(reports) -> bool:
    from .registry import display_name

    all_pass = True
    for r in reports:
        marker = {"pass": "PASS", "fail": "FAIL"}.get(r.status, "UNMET")
        print(f"{display_name(r.check_name):<28} {marker}")
        if r.counterexample:
            parts = ", ".join(f"{k}={v}" for k, v in r.counterexample.items())
            print(f"    counterexample: {parts}")
        all_pass = all_pass and r.passed
    return all_pass


def cmd_generate(args) -> int:
    from .models import NEGATIVE_KINDS, UnsupportedFieldError, gen_negative, gen_pg3, gen_tetrahedron

    kind = args.kind
    if kind == "tetrahedron":
        s = gen_tetrahedron()
        meta = None
    elif kind == "pg3":
        if args.q is None:
            print("generate pg3 requires --q", file=sys.stderr)
            return EXIT_USAGE
        try:
            s, meta = gen_pg3(args.q)
        except UnsupportedFieldError as e:
            print(f"unsupported field: {e}", file=sys.stderr)
            return EXIT_USAGE
    elif kind.startswith("negative:"):
        name = kind.split(":", 1)[1]
        try:
            s = gen_negative(name)
        except PreconditionError as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
        meta = None
    else:
        print(
            f"unknown kind {kind!r}; expected tetrahedron, pg3, or negative:<kind> "
            f"with kind in {NEGATIVE_KINDS}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    lio.save_structure(s, args.out)
    skew = int((~s.adjacency).sum()) // 2  # each skew pair sits twice in the matrix
    print(f"wrote {args.out}: {s.line_count} lines, {skew} skew pairs")
    if meta is not None:
        sidecar = Path(args.out).with_suffix(".meta.json")
        lio.save_pg3_meta(meta, sidecar)
        print(f"wrote {sidecar}: subspace metadata for GF({meta.q})")
    return EXIT_OK


def cmd_check(args) -> int:
    from .registry import run_checks

    s = lio.load_structure(args.input)
    reports = run_checks(s, LAYERS if args.which == "all" else (args.which,))
    name = s.name or str(args.input)
    print(f"checked {name}: {s.line_count} lines")
    all_pass = _print_reports(reports)
    if args.report:
        lio.save_reports(reports, args.report)
        print(f"wrote report {args.report}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def _parse_seed(raw: str):
    parts = raw.split(",")
    if len(parts) != 3:
        raise PreconditionError(f"--seed must be i,j,k, got {raw!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise PreconditionError(f"--seed must be three integers, got {raw!r}") from None


def _labeling(build, failed: str):
    """The model ``build()`` returns, or None after printing ``failed``
    formatted with its error: a labeling that fails is reported, not raised."""
    from .sigma import NotTwoClassesError

    try:
        return build()
    except (NotTwoClassesError, LabelInconsistencyError) as e:
        print(failed.format(e))
        return None


def cmd_derive(args) -> int:
    from .labeling import coordinate_labels

    s = lio.load_structure(args.input)
    seed = _parse_seed(args.seed) if args.seed else None
    m = _labeling(lambda: coordinate_labels(s, seed), "cannot derive a model: {}")
    if m is None:
        return EXIT_CHECK_FAILED
    lio.save_model(m, args.out)
    print(f"wrote {args.out}: {len(m.points)} points, {len(m.planes)} planes")
    return EXIT_OK


def cmd_dualize(args) -> int:
    from .labeling import dualize

    m = lio.load_model(args.input)
    d = _labeling(lambda: dualize(m), "model failed verification: {}")
    if d is None:
        return EXIT_CHECK_FAILED
    lio.save_model(d, args.out)
    print(f"wrote {args.out}: {len(d.points)} points, {len(d.planes)} planes")
    return EXIT_OK


def cmd_info(args) -> int:
    from .labeling import coordinate_labels

    s = lio.load_structure(args.input)
    n = s.line_count
    pairs = len(incident_pairs(s))
    total = n * (n - 1) // 2
    skew = total - pairs
    print(f"name:            {s.name or '(unnamed)'}")
    print(f"lines:           {n}")
    print(f"incident pairs:  {pairs}")
    print(f"skew pairs:      {skew}")
    density = f"{pairs / total:.4f}" if total else "n/a"
    print(f"density:         {density}")
    if n:
        sizes = [mask.bit_count() for mask in s.masks]
        print(f"perp size:       min {min(sizes)}, max {max(sizes)}")
    m = _labeling(lambda: coordinate_labels(s), "points/planes:   not derivable ({})")
    if m is not None:
        print(f"points:          {len(m.points)}")
        print(f"planes:          {len(m.planes)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linespace",
        description="Line-first incidence geometry: generate, check, derive, dualize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a structure file")
    p.add_argument("kind", help="tetrahedron | pg3 | negative:<kind>")
    p.add_argument("--q", type=int, default=None, help="field size for pg3")
    p.add_argument("--out", required=True, help="output structure file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="run checks against a structure file")
    p.add_argument("input", help="structure file")
    p.add_argument(
        "--which",
        choices=(*LAYERS, "all"),
        default="all",
        help="which battery to run",
    )
    p.add_argument("--report", default=None, help="also write a machine-readable report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("derive", help="derive the point/plane model of a structure")
    p.add_argument("input", help="structure file")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--seed", default=None, help="labeling seed as i,j,k")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("dualize", help="swap points and planes of a model file")
    p.add_argument("input", help="model file")
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("info", help="print summary statistics of a structure file")
    p.add_argument("input", help="structure file")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (lio.ParseError, CapacityError, OSError, PreconditionError) as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except LinespaceError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CHECK_FAILED


def run() -> None:
    """The console entry point: main(), then exit with its code.

    Everything main() made is frozen first, so the interpreter's last
    collection at exit does not walk it; the process's end frees it.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
