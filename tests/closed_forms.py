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


def incident_pairs(q: int) -> int:
    """The unordered pairs of distinct meeting lines: (q^2 + 1) s lines, each
    meeting q(q + 1)^2 others, and each pair met from both its lines."""
    return (q**2 + 1) * star(q) * q * (q + 1) ** 2 // 2


def triads(q: int) -> int:
    """Per point, the C(s, 3) triples of lines through it less the C(q + 1, 3)
    in each of the s planes through it; and dually per plane."""
    return 2 * points(q) * (comb(star(q), 3) - star(q) * comb(q + 1, 3))


def point_triples(q: int) -> int:
    """The non-collinear point triples of PG(3,q)."""
    return points(q) * (points(q) - 1) * (points(q) - q - 1) // 6


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


def thm_exchange(q: int) -> dict:
    """Each triad walks every two lines of its bracket: C(s, 2)."""
    return {"cases_examined": triads(q) * comb(star(q), 2)}


def thm_triangle(q: int) -> dict:
    """One case per non-collinear point triple."""
    return {"cases_examined": point_triples(q)}


def thm_tetrahedron(q: int) -> dict:
    """One case per non-collinear point triple."""
    return {"cases_examined": point_triples(q)}


def vy_a3(q: int) -> dict:
    """Each triple (A, B, C) gives one case per point D on BC and point E on
    CA with D != E: (q + 1)^2 - 1, as C lies on both lines."""
    return {"cases_examined": point_triples(q) * ((q + 1) ** 2 - 1)}


CLOSED_FORMS = {
    f.__name__: f
    for f in (
        axiom2_1,
        axiom2_2,
        axiom2_3,
        thm_bracket_welldefined,
        thm_regulus_skew,
        thm_sigma_equivalence,
        thm_bracket_closed,
        thm_coherence,
        thm_mutual_membership,
        thm_triad_typing,
        thm_exchange,
        thm_triangle,
        thm_tetrahedron,
        vy_a3,
    )
}
