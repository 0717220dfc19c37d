#!/usr/bin/env python3
"""Feed deliberately broken structures to the checkers and replay the blame.

Each negative fixture violates a documented axiom.  A failing report
carries a counterexample naming concrete lines; replay_counterexample
re-evaluates that witness straight from the incidence relation, proving
the report is not just an opinion of the checker that produced it.
"""

from linespace import (
    NEGATIVE_EXPECTATIONS,
    NEGATIVE_KINDS,
    check_all,
    gen_negative,
    replay_counterexample,
)
from linespace.registry import display_name

for kind in NEGATIVE_KINDS:
    s = gen_negative(kind)
    expectation = NEGATIVE_EXPECTATIONS[kind]
    print("=" * 64)
    print(f"{kind}  ({s.line_count} lines; built to break "
          f"{', '.join(display_name(d) for d in expectation['documented'])})")
    print("=" * 64)
    reports = check_all(s)
    for r in reports:
        mark = {"pass": "PASS", "fail": "FAIL"}.get(r.status, "UNMET")
        expected = expectation["vector"][r.check_name]
        agree = "" if r.status == expected else "  <-- UNEXPECTED"
        print(f"  {display_name(r.check_name):<14} {mark}{agree}")
        if r.counterexample is not None:
            replayed = replay_counterexample(s, r)
            brief = {
                k: v
                for k, v in r.counterexample.items()
                if k in ("line", "pair", "z", "x", "y", "issue", "element")
            }
            print(f"      witness {brief}")
            print(f"      replays to a real violation: {replayed}")
    print()
