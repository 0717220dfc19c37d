#!/usr/bin/env python3
"""Walk through the primitives on the six-line tetrahedron fixture.

The fixture has the incidence pattern of a tetrahedron's six edges:
every pair of edges meets except the three opposite pairs.  It is the
smallest interesting structure in the package and the quickest way to see
what perp, bracket, and sigma actually compute.
"""

from linespace import (
    bracket,
    check_all,
    find_skew_triple,
    gen_tetrahedron,
    perp,
    sigma,
    sigma_partition,
)
from linespace.registry import display_name

t = gen_tetrahedron()
names = lambda ids: "{" + ", ".join(sorted(t.labels[i] for i in ids)) + "}"

print("=" * 64)
print("The six-line fixture")
print("=" * 64)
print(f"lines: {', '.join(t.labels)}")
print(f"skew pairs: {[tuple(t.labels[i] for i in p) for p in t.skew_pairs()]}")
print()

a, b = t.index("a"), t.index("b")
print("perp of a set S is every line incident to all of S:")
print(f"  perp({{a}})      = {names(perp(t, [a]))}   (a meets all but its opposite)")
print(f"  perp({{a, b}})   = {names(perp(t, (a, b)))}")
print(f"  perp(perp({{a, b}})) = {names(perp(t, perp(t, (a, b))))}")
print()

print("sigma(a, b) keeps the members of perp({a, b}) that belong to a")
print("skew pair there; those are the lines that see two different")
print("secondary elements through (a, b):")
print(f"  sigma(a, b) = {names(sigma(t, a, b))}")
part = sigma_partition(t, a, b)
print(f"  incidence classes: {names(part.class_0)} and {names(part.class_1)}")
print()

print("each class extends (a, b) to one secondary element:")
for c in (t.index("c"), t.index("ch")):
    print(f"  bracket(a, b, {t.labels[c]}) = {names(bracket(t, a, b, c))}")
print()

print("the fixture satisfies every axiom except the skew-triple one:")
for report in check_all(t):
    mark = "PASS" if report.passed else report.status.upper()
    print(f"  {display_name(report.check_name):<14} {mark}")
print()
print("why the first fails: no perp contains three pairwise skew lines,")
print(f"e.g. find_skew_triple(perp({{a}})) = {find_skew_triple(t, perp(t, [a]))}")
