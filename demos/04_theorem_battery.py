#!/usr/bin/env python3
"""Run the full theorem battery and the derived-geometry axioms on PG(3,2).

Every verifier re-derives its statement from the raw definitions, so this
doubles as a cross-validation harness: a structure that passes the six
axiom checks must pass everything below, and a discrepancy would point at
an implementation bug rather than at the geometry.
"""

import time

from linespace import check_all, coordinate_labels, gen_pg3, run_theorem_suite, vy_axioms

s, _ = gen_pg3(2)
m = coordinate_labels(s)

print("axiom battery:", all(r.passed for r in check_all(s)) and "all pass" or "FAILURES")
print()

t0 = time.monotonic()
reports = run_theorem_suite(s, m)
dt = time.monotonic() - t0
print(f"theorem verifiers on PG(3,2)  ({dt:.2f}s)")
print("-" * 64)
count_keys = ("cases_examined", "pairs_examined", "triads_examined", "lines_examined")
for r in reports:
    cases = next((str(r.stats[k]) for k in count_keys if k in r.stats), "-")
    print(f"  {r.check_name:<28} {'PASS' if r.passed else 'FAIL':<6} {cases:>8} cases")
print()

t0 = time.monotonic()
vy = vy_axioms(s, m)
dt = time.monotonic() - t0
print(f"derived-geometry battery  ({dt:.2f}s)")
print("-" * 64)
for r in vy:
    print(f"  {r.check_name:<10} {'PASS' if r.passed else 'FAIL'}")
e0 = vy[0]
print()
print(f"points per line: exactly {e0.stats['min_points_on_line']} (q + 1)")
