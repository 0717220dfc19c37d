"""Structure generators: the tetrahedron fixture, PG(3,q), broken fixtures.

PG(3,q) is generated from first principles: lines are the 2-dimensional
subspaces of a 4-dimensional row space over the prime field GF(q), each
canonicalized as a reduced row-echelon 2x4 matrix and ordered
lexicographically, so line numbering is identical across runs.  Two
distinct lines are incident exactly when their row spaces meet
nontrivially.  By the Klein correspondence that happens exactly when
their Plücker vectors, the six 2x2 minors of the lines' matrices, are
orthogonal under the Klein form p01*p23 - p02*p13 + p03*p12, so the whole
adjacency is one integer matrix product mod q.  No floating point is
involved anywhere.

The negative fixtures are small structures that break specific axioms on
purpose; each ships with its full expected check vector so checker tests
can assert exact outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import IncidenceStructure, PreconditionError

SUPPORTED_PRIMES = (2, 3, 5, 7)

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


class UnsupportedFieldError(PreconditionError):
    """Requested field size is outside the supported prime list."""


def _rref_cells(k: int, p: int, n: int = 4) -> list[Matrix]:
    """All k x n reduced row-echelon matrices of rank k over GF(p), sorted.

    Enumerated cell by cell: choose pivot columns, then fill the free
    positions (entries right of a row's pivot, outside pivot columns).
    """
    out: list[Matrix] = []
    for pivots in itertools.combinations(range(n), k):
        free: list[tuple[int, int]] = []
        for i, c in enumerate(pivots):
            for j in range(c + 1, n):
                if j not in pivots:
                    free.append((i, j))
        base = [[0] * n for _ in range(k)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for values in itertools.product(range(p), repeat=len(free)):
            mat = [row[:] for row in base]
            for (i, j), v in zip(free, values):
                mat[i][j] = v
            out.append(tuple(tuple(row) for row in mat))
    out.sort()
    return out


@dataclass(frozen=True)
class Pg3Metadata:
    """Canonical subspace representatives behind a generated PG(3,q).

    line_reps[i] is the reduced row-echelon 2x4 matrix of line i of the
    structure; point and plane representatives are the 1- and 3-dimensional
    subspaces in the same canonical form (points stored as single vectors).
    """

    q: int
    line_reps: tuple[Matrix, ...]
    point_reps: tuple[Vector, ...]
    plane_reps: tuple[Matrix, ...]

    @property
    def expected_line_count(self) -> int:
        q = self.q
        return (q * q + 1) * (q * q + q + 1)


def gen_tetrahedron() -> IncidenceStructure:
    """The six-line fixture: pairwise incident except three opposite pairs.

    Lines a, b, c, ah, bh, ch with skew pairs (a, ah), (b, bh), (c, ch);
    the incidence pattern of the six edges of a tetrahedron.
    """
    return IncidenceStructure.from_skew_pairs(
        6,
        [(0, 3), (1, 4), (2, 5)],
        labels=("a", "b", "c", "ah", "bh", "ch"),
        name="tetrahedron",
    )


# Column pairs (i, j) of the Plücker coordinates p_ij.  The Klein form
# p01*p23 - p02*p13 + p03*p12 pairs each coordinate with its complement, so
# as a symmetric matrix J it reverses the coordinate order and negates p02
# and p13.
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_KLEIN_SIGNS = np.array([1, -1, 1, 1, -1, 1], dtype=np.int16)


def _plucker_coordinates(lines: list[Matrix], q: int) -> np.ndarray:
    """Plücker vector of each 2x4 line matrix mod q, one int16 row per line."""
    reps = np.array(lines, dtype=np.int64)
    u, v = reps[:, 0], reps[:, 1]
    cols = [u[:, i] * v[:, j] - u[:, j] * v[:, i] for i, j in _PLUCKER_PAIRS]
    return (np.stack(cols, axis=1) % q).astype(np.int16)


def gen_pg3(q: int) -> tuple[IncidenceStructure, Pg3Metadata]:
    """Generate PG(3,q) as a line structure plus its subspace metadata.

    Supported q: 2, 3, 5, 7.  Two lines are incident iff their Plücker
    vectors satisfy P J P^T = 0 mod q for the Klein form J; every line
    lies on the Klein quadric, so the diagonal is incident.  With both
    factors reduced mod q each entry of the product is at most 6 (q-1)^2,
    which int16 holds.
    """
    if q not in SUPPORTED_PRIMES:
        raise UnsupportedFieldError(
            f"unsupported field GF({q}); supported primes are {SUPPORTED_PRIMES}"
        )
    lines = _rref_cells(2, q)
    points = tuple(mat[0] for mat in _rref_cells(1, q))
    planes = tuple(_rref_cells(3, q))
    n = len(lines)
    plucker = _plucker_coordinates(lines, q)
    paired = (plucker[:, ::-1] * _KLEIN_SIGNS) % q  # P J, reduced mod q
    adj = (paired @ plucker.T) % q == 0
    width = len(str(n - 1))
    structure = IncidenceStructure(
        adj,
        labels=tuple(f"L{i:0{width}d}" for i in range(n)),
        name=f"pg3_{q}",
    )
    meta = Pg3Metadata(q=q, line_reps=tuple(lines), point_reps=points, plane_reps=planes)
    assert n == meta.expected_line_count
    return structure, meta


NEGATIVE_KINDS = ("no_skew_anywhere", "pasch_violation", "two_components", "single_line")

# Full expected check_all status vectors, frozen from checker runs.  Small
# fixtures cannot help failing the skew-triple axiom as well; "documented"
# names the failure each fixture exists to provoke.
NEGATIVE_EXPECTATIONS: dict[str, dict] = {
    "single_line": {
        "documented": ["axiom1"],
        "vector": {
            "axiom1": "fail",
            "axiom2_1": "pass",
            "axiom2_2": "pass",
            "axiom2_3": "pass",
            "axiom3": "pass",
            "axiom4": "pass",
        },
    },
    "no_skew_anywhere": {
        "documented": ["axiom2_1"],
        "vector": {
            "axiom1": "fail",
            "axiom2_1": "fail",
            "axiom2_2": "pass",
            "axiom2_3": "pass",
            "axiom3": "pass",
            "axiom4": "dependency_unmet",
        },
    },
    "pasch_violation": {
        "documented": ["axiom2_2"],
        "vector": {
            "axiom1": "fail",
            "axiom2_1": "fail",
            "axiom2_2": "fail",
            "axiom2_3": "pass",
            "axiom3": "fail",
            "axiom4": "dependency_unmet",
        },
    },
    "two_components": {
        "documented": ["axiom4"],
        "vector": {
            "axiom1": "fail",
            "axiom2_1": "pass",
            "axiom2_2": "pass",
            "axiom2_3": "pass",
            "axiom3": "pass",
            "axiom4": "fail",
        },
    },
}


def gen_negative(kind: str) -> IncidenceStructure:
    """Deliberately broken fixtures, one per documented axiom failure.

    no_skew_anywhere: four pairwise-incident lines, so no bracket contains
    a skew pair.  pasch_violation: six lines where z sits in sigma(a, b)
    yet bracket(a, b, z) contains the skew pair (x, y).  two_components:
    two tetrahedron fixtures with no cross incidence, so same-kind
    elements from different components never meet.  single_line: one line,
    whose perp is a singleton.
    """
    if kind == "single_line":
        return IncidenceStructure.from_skew_pairs(1, [], labels=("s0",), name=kind)
    if kind == "no_skew_anywhere":
        return IncidenceStructure.from_skew_pairs(
            4, [], labels=("k0", "k1", "k2", "k3"), name=kind
        )
    if kind == "pasch_violation":
        return IncidenceStructure.from_skew_pairs(
            6,
            [(2, 3), (4, 5)],
            labels=("a", "b", "z", "w", "x", "y"),
            name=kind,
        )
    if kind == "two_components":
        skew = [(0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)]
        skew += [(i, j) for i in range(6) for j in range(6, 12)]
        labels = ("a1", "b1", "c1", "ah1", "bh1", "ch1", "a2", "b2", "c2", "ah2", "bh2", "ch2")
        return IncidenceStructure.from_skew_pairs(12, skew, labels=labels, name=kind)
    raise PreconditionError(
        f"unknown negative fixture {kind!r}; choose from {NEGATIVE_KINDS}"
    )
