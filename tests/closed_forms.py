"""Closed forms in q of check stats on PG(3,q), counted in PG(3,q) alone.

PG(3,q) has P = q^3 + q^2 + q + 1 points and q + 1 points on each line,
and two points lie on exactly one line.  So a non-collinear point triple
is two points and one of the P - q - 1 points off their line, and there
are P(P - 1)(P - q - 1)/6 of them.  Each, (A, B, C), gives A3 one case
per point D on BC and point E on CA with D != E: (q + 1)^2 - 1, as C lies
on both lines.

This module imports nothing from the package, so that a count that drifts
in the package cannot drift here with it; tests and CI compare the stats
of ``gen_pg3(q)`` against it.
"""


def point_triples(q: int) -> int:
    """The non-collinear point triples of PG(3,q)."""
    points = q**3 + q**2 + q + 1
    return points * (points - 1) * (points - q - 1) // 6


CLOSED_FORMS = {
    "thm_triangle": lambda q: {"cases_examined": point_triples(q)},
    "thm_tetrahedron": lambda q: {"cases_examined": point_triples(q)},
    "vy_a3": lambda q: {"cases_examined": point_triples(q) * ((q + 1) ** 2 - 1)},
}
