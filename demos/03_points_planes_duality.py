#!/usr/bin/env python3
"""Derive points and planes from lines alone, then flip them with duality.

A secondary element is the bracket of a triad.  The labeling picks one
element as the seed point Z and classifies every other element X by the
forced rule: X is a point exactly when it shares a single line with Z.
Which family gets called "points" is the only freedom; dualize() swaps
the names and the swapped model verifies just as well.
"""

from linespace import (
    coordinate_labels,
    dualize,
    enumerate_secondary_elements,
    gen_pg3,
    incident_pairs,
    join_plane,
    meet_point,
    perp,
)

s, _ = gen_pg3(2)
elements = enumerate_secondary_elements(s)
print(f"PG(3,2) has {len(elements)} secondary elements, each of "
      f"{len(elements[0])} lines")

m = coordinate_labels(s)
print(f"labeling seed {m.seed}: {len(m.points)} points, {len(m.planes)} planes")
print()

a, b = incident_pairs(s)[0].tolist()
pt = meet_point(m, a, b)
pl = join_plane(m, a, b)
la, lb = s.labels[a], s.labels[b]
print(f"the incident pair ({la}, {lb}) determines one of each:")
print(f"  meet_point: {sorted(s.labels[i] for i in pt.lines)}")
print(f"  join_plane: {sorted(s.labels[i] for i in pl.lines)}")
pencil = set(pt.lines) & set(pl.lines)
print(f"  their intersection is the flat pencil {sorted(s.labels[i] for i in pencil)}")
print(f"  which equals perp(perp({{{la}, {lb}}})): "
      f"{pencil == perp(s, perp(s, (a, b)))}")
print()

d = dualize(m)
print("dualize swaps the families and re-verifies the swapped model:")
print(f"  d.points == m.planes: {d.points == m.planes}")
print(f"  d.planes == m.points: {d.planes == m.points}")
print(f"  dualize(dualize(m)) == m: {dualize(d) == m}")
print()

print("seed independence: labeling from any admissible seed lands on one")
print("of exactly two assignments, and they are each other's dual:")
assignments = set()
for p, q in incident_pairs(s).tolist():
    for k in (0, 1):
        mm = coordinate_labels(s, (p, q, k))
        assignments.add((mm.points, mm.planes))
print(f"  distinct assignments over all {2 * len(incident_pairs(s))} seeds: "
      f"{len(assignments)}")
