"""Closed forms in q of check stats on PG(3,q), counted in PG(3,q) alone.

PG(3,q) has P = q^3 + q^2 + q + 1 points and as many planes, s = q^2 +
q + 1 lines through each point and in each plane, and (q^2 + 1)s lines,
with q + 1 points on each.  Two lines are incident when they meet.  Each line has q + 1
points and q^2 + q other lines through each, so it meets q(q + 1)^2
others.

Two distinct meeting lines a, b meet in a point p and span a plane pi.
The lines meeting both are the s lines through p and the s lines in pi,
and the q + 1 lines of the pencil (through p, in pi) are both: so
perp({a, b}) has 2s - (q + 1) lines.  Its double perp is the pencil, and
sigma(a, b), the perp less the pencil, is q^2 lines through p off pi and
q^2 lines in pi off p: two classes.  Two lines of one class meet, and two
of different classes are skew, as the first meets pi in p alone, which
the second misses.

A triad is three lines each in the sigma set of the other two: three
lines through one point and in no one plane, or, dually, three lines in
one plane and through no one point.  Its bracket, the lines meeting all
three, is all s lines through that point, or in that plane.  The
elements are these 2P sets of s lines, and each one's perp is itself.

A non-collinear point triple is two points and one of the P - q - 1
points off their line, and there are P(P - 1)(P - q - 1)/6 of them.

The model's two families are these point stars and plane pencils, one
family each; every count below is the same whichever is called "point",
as PG(3,q) is self-dual.  A point p and a plane pi share the lines through
p in pi: the q + 1 lines of a pencil when p lies in pi, else none.  Two
points share one line, the line joining them, and dually two planes.

This module imports nothing from the package, so that a count that drifts
in the package cannot drift here with it; tests and CI compare the stats
of ``gen_pg3(q)`` against it.
"""

from math import comb


def points(q: int) -> int:
    """The points of PG(3,q), and its planes."""
    return q**3 + q**2 + q + 1


def star(q: int) -> int:
    """The lines through a point, and the lines in a plane."""
    return q**2 + q + 1


def lines(q: int) -> int:
    """The lines of PG(3,q)."""
    return (q**2 + 1) * star(q)


def incident_pairs(q: int) -> int:
    """The unordered pairs of distinct meeting lines: (q^2 + 1) s lines, each
    meeting q(q + 1)^2 others, and each pair met from both its lines."""
    return lines(q) * q * (q + 1) ** 2 // 2


def triads(q: int) -> int:
    """Per point, the C(s, 3) triples of lines through it less the C(q + 1, 3)
    in each of the s planes through it; and dually per plane."""
    return 2 * points(q) * (comb(star(q), 3) - star(q) * comb(q + 1, 3))


def point_triples(q: int) -> int:
    """The non-collinear point triples of PG(3,q)."""
    return points(q) * (points(q) - 1) * (points(q) - q - 1) // 6


def axiom1(q: int) -> dict:
    """One case per line."""
    return {"lines_examined": lines(q)}


def axiom2_1(q: int) -> dict:
    """One case per incident pair."""
    return {"pairs_examined": incident_pairs(q)}


def axiom2_2(q: int) -> dict:
    """Each incident pair adds one case per line of its sigma set: 2q^2."""
    return {"triples_examined": incident_pairs(q) * 2 * q**2}


def axiom2_3(q: int) -> dict:
    """Each incident pair adds the skew pairs of its perp: one line of each
    sigma class, q^2 q^2, as a pencil line meets every line of the perp."""
    return {"skew_pairs_examined": incident_pairs(q) * q**4}


def axiom3(q: int) -> dict:
    """One case per element: P point stars and P plane pencils."""
    return {"elements_examined": 2 * points(q)}


def axiom4(q: int) -> dict:
    """One case per incident pair, and the labeling's P points and P planes."""
    return {"pairs_examined": incident_pairs(q), "points": points(q), "planes": points(q)}


def thm_two_classes(q: int) -> dict:
    """One case per incident pair; every sigma set splits into two classes
    of q^2 lines, the one distinct pair of class sizes, written as a report
    file holds it."""
    return {"pairs_examined": incident_pairs(q), "class_size_pairs": [[q**2, q**2]]}


def thm_line_selfperp(q: int) -> dict:
    """One case per line."""
    return {"lines_examined": lines(q)}


def thm_bracket_welldefined(q: int) -> dict:
    """Each incident pair adds the meeting pairs of its sigma set: two lines
    of one class, 2 C(q^2, 2)."""
    return {"cases_examined": incident_pairs(q) * 2 * comb(q**2, 2)}


def thm_regulus_skew(q: int) -> dict:
    """One case per incident pair."""
    return {"pairs_examined": incident_pairs(q)}


def thm_sigma_equivalence(q: int) -> dict:
    """One case per triad."""
    return {"triads_examined": triads(q)}


def thm_bracket_closed(q: int) -> dict:
    """One case per triad."""
    return {"triads_examined": triads(q)}


def thm_coherence(q: int) -> dict:
    """Every triple of lines of each element's perp, the element itself, s
    lines, as none violates; and the triads."""
    return {"cases_examined": 2 * points(q) * comb(star(q), 3), "triads": triads(q)}


def thm_mutual_membership(q: int) -> dict:
    """One case per triad."""
    return {"triads_examined": triads(q)}


def thm_triad_typing(q: int) -> dict:
    """One case per triad."""
    return {"triads_examined": triads(q)}


def thm_point_ne_plane(q: int) -> dict:
    """The P points and the P planes."""
    return {"points": points(q), "planes": points(q)}


def thm_pencil_intersection(q: int) -> dict:
    """One case per incident pair."""
    return {"pairs_examined": incident_pairs(q)}


def thm_exchange(q: int) -> dict:
    """Each triad walks every two lines of its bracket: C(s, 2)."""
    return {"cases_examined": triads(q) * comb(star(q), 2)}


def thm_not_singleton(q: int) -> dict:
    """Every point against every plane: P^2 pairs, each sharing q + 1
    lines or none."""
    return {"pairs_examined": points(q) ** 2}


def thm_uniqueness(q: int) -> dict:
    """Every two points, then every two planes: 2 C(P, 2) pairs, each
    sharing one line."""
    return {"pairs_examined": 2 * comb(points(q), 2)}


def thm_line_in_plane(q: int) -> dict:
    """Per plane, every two of the s points sharing a line with it, those
    on it; then dually per point: 2 P C(s, 2)."""
    return {"cases_examined": 2 * points(q) * comb(star(q), 2)}


def thm_triangle(q: int) -> dict:
    """One case per non-collinear point triple."""
    return {"cases_examined": point_triples(q)}


def thm_tetrahedron(q: int) -> dict:
    """One case per non-collinear point triple."""
    return {"cases_examined": point_triples(q)}


def vy_e0(q: int) -> dict:
    """One case per line, each on q + 1 points."""
    return {"lines_examined": lines(q), "min_points_on_line": q + 1, "max_points_on_line": q + 1}


def vy_e1(q: int) -> dict:
    """The lines."""
    return {"lines": lines(q)}


def vy_e2(q: int) -> dict:
    """The points."""
    return {"points": points(q)}


def vy_e3(q: int) -> dict:
    """The planes."""
    return {"planes": points(q)}


def vy_e3p(q: int) -> dict:
    """The planes."""
    return {"planes": points(q)}


def vy_a1(q: int) -> dict:
    """The points."""
    return {"points": points(q)}


def vy_a2(q: int) -> dict:
    """The points."""
    return {"points": points(q)}


def vy_a3(q: int) -> dict:
    """Each triple (A, B, C) gives one case per point D on BC and point E on
    CA with D != E: (q + 1)^2 - 1, as C lies on both lines."""
    return {"cases_examined": point_triples(q) * ((q + 1) ** 2 - 1)}


CLOSED_FORMS = {
    f.__name__: f
    for f in (
        axiom1,
        axiom2_1,
        axiom2_2,
        axiom2_3,
        axiom3,
        axiom4,
        thm_sigma_equivalence,
        thm_two_classes,
        thm_bracket_welldefined,
        thm_line_selfperp,
        thm_regulus_skew,
        thm_bracket_closed,
        thm_coherence,
        thm_mutual_membership,
        thm_triad_typing,
        thm_point_ne_plane,
        thm_pencil_intersection,
        thm_exchange,
        thm_not_singleton,
        thm_uniqueness,
        thm_line_in_plane,
        thm_triangle,
        thm_tetrahedron,
        vy_e0,
        vy_e1,
        vy_e2,
        vy_e3,
        vy_e3p,
        vy_a1,
        vy_a2,
        vy_a3,
    )
}
