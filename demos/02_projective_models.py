#!/usr/bin/env python3
"""Generate PG(3,q) line structures and run the axiom battery on them.

Lines are 2-dimensional subspaces of a 4-dimensional space over GF(q) in
reduced row-echelon form; two lines are incident when their row spaces
meet nontrivially.  The counts printed below are the classical ones and
every axiom check must pass.
"""

import time

from linespace import check_all, gen_pg3, incident_pairs, perp, sigma
from linespace.registry import display_name

for q in (2, 3):
    t0 = time.monotonic()
    s, meta = gen_pg3(q)
    n = s.line_count
    print("=" * 64)
    print(f"PG(3,{q})  ({time.monotonic() - t0:.2f}s to generate)")
    print("=" * 64)
    print(f"lines:       {n}   (expected (q^2+1)(q^2+q+1) = {meta.expected_line_count})")
    print(f"points:      {len(meta.point_reps)}   planes: {len(meta.plane_reps)}")
    pairs = incident_pairs(s)
    print(f"incident pairs: {len(pairs)} of {n * (n - 1) // 2}")
    print(f"perp size:   {len(perp(s, [0]))} per line (self included)")
    a, b = pairs[0].tolist()
    print(f"sigma size:  {len(sigma(s, a, b))} per incident pair (2q^2 = {2 * q * q})")
    print("canonical matrix of line 0:", meta.line_reps[0])

    t0 = time.monotonic()
    reports = check_all(s)
    dt = time.monotonic() - t0
    print(f"axiom battery ({dt:.2f}s):")
    for r in reports:
        print(f"  {display_name(r.check_name):<14} {'PASS' if r.passed else 'FAIL'}")
    print()
