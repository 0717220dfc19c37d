"""Sigma sets and their two incidence classes.

For a distinct incident pair (a, b), ``sigma(a, b)`` is the set of lines in
perp({a, b}) that belong to some skew pair there, computed as
perp({a, b}) minus perp(perp({a, b})).  On well-behaved structures,
incidence restricted to that set is an equivalence with exactly two
classes; ``sigma_partition`` recovers the classes and verifies both facts
instead of assuming them, so it doubles as a diagnostic on untrusted input.

Caching note: per-pair sigma sets and partitions are memoized on the
structure.  Results are value-identical to the uncached computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    IncidenceStructure,
    LinespaceError,
    PreconditionError,
    bracket,
    labels_of,
    lines_of_mask,
    perp_mask,
)


class NotTwoClassesError(LinespaceError):
    """Incidence on sigma(a, b) is not an equivalence with exactly two classes.

    ``witness`` names the offending configuration: either a class count
    different from two, or a concrete transitivity violation p, q, r with
    p incident q, q incident r, p skew r, all inside sigma(a, b).
    """

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class SigmaPartition:
    """The two incidence classes of sigma(a, b), canonically ordered.

    ``class_0`` is the class containing the least line of sigma; the
    ordering is a naming device only.  Within each class all lines are
    pairwise incident; across classes all pairs are skew.
    """

    pair: tuple[int, int]
    sigma: frozenset[int]
    class_0: frozenset[int]
    class_1: frozenset[int]

    @property
    def classes(self) -> tuple[frozenset[int], frozenset[int]]:
        return (self.class_0, self.class_1)


def _require_incident_distinct(s: IncidenceStructure, a: int, b: int, op: str) -> tuple[int, int]:
    a = s.check_index(a)
    b = s.check_index(b)
    if a == b:
        raise PreconditionError(f"{op} requires distinct lines, got {s.labels[a]!r} twice")
    if not s.adjacency[a, b]:
        raise PreconditionError(
            f"{op} requires an incident pair, but {s.labels[a]!r} and {s.labels[b]!r} are skew"
        )
    return (a, b) if a < b else (b, a)


def sigma_mask(s: IncidenceStructure, a: int, b: int) -> int:
    """Bitmask form of sigma(a, b); cached."""
    a, b = _require_incident_distinct(s, a, b, "sigma")

    def build():
        ab = s.masks[a] & s.masks[b]
        return ab & ~perp_mask(s, ab)

    return s.cached(("sigma", a, b), build)


def sigma(s: IncidenceStructure, a: int, b: int) -> frozenset[int]:
    """Lines of perp({a, b}) that are one of a skew pair there.

    Requires a != b and a incident to b; symmetric in its arguments.
    """
    return frozenset(lines_of_mask(sigma_mask(s, a, b)))


def _transitivity_witness(s: IncidenceStructure, members: list[int]) -> tuple[int, int, int]:
    adj = s.adjacency
    for q in members:
        for p in members:
            if p == q or not adj[p, q]:
                continue
            for r in members:
                if r == p or r == q:
                    continue
                if adj[q, r] and not adj[p, r]:
                    return (p, q, r)
    raise AssertionError("clique check failed but no transitivity violation found")


def incidence_classes(s: IncidenceStructure, members: list[int]) -> list[list[int]]:
    """Connected components of incidence on ascending ``members``, by least line.

    Found by union-find; a component need not be a clique.
    """
    parent = {l: l for l in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj = s.adjacency
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            if adj[x, y]:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
    groups: dict[int, list[int]] = {}
    for l in members:
        groups.setdefault(find(l), []).append(l)
    return list(groups.values())


def sigma_partition(s: IncidenceStructure, a: int, b: int) -> SigmaPartition:
    """Split sigma(a, b) into its two incidence classes, verifying the split.

    Classes are found by union-find over incidence restricted to the sigma
    set and then checked exhaustively: exactly two classes, each one a
    clique.  Anything else raises NotTwoClassesError with a replayable
    witness (this includes an empty sigma set, which downstream labeling
    code must never see as an empty partition).
    """
    a, b = _require_incident_distinct(s, a, b, "sigma_partition")

    def build():
        sig = sorted(lines_of_mask(sigma_mask(s, a, b)))
        pair_labels = labels_of(s, (a, b))
        if not sig:
            raise NotTwoClassesError(
                f"sigma({pair_labels[0]}, {pair_labels[1]}) is empty",
                {"pair": pair_labels, "sigma": [], "class_count": 0},
            )
        groups = incidence_classes(s, sig)
        if len(groups) != 2:
            raise NotTwoClassesError(
                f"sigma({pair_labels[0]}, {pair_labels[1]}) has {len(groups)} incidence "
                "classes, expected 2",
                {
                    "pair": pair_labels,
                    "sigma": labels_of(s, sig),
                    "class_count": len(groups),
                },
            )
        adj = s.adjacency
        for group in groups:
            for i, x in enumerate(group):
                for y in group[i + 1 :]:
                    if not adj[x, y]:
                        p, q, r = _transitivity_witness(s, sig)
                        raise NotTwoClassesError(
                            f"incidence is not transitive on sigma({pair_labels[0]}, "
                            f"{pair_labels[1]})",
                            {
                                "pair": pair_labels,
                                "sigma": labels_of(s, sig),
                                "p": s.labels[p],
                                "q": s.labels[q],
                                "r": s.labels[r],
                            },
                        )
        first, second = groups
        return SigmaPartition(
            pair=(a, b),
            sigma=frozenset(sig),
            class_0=frozenset(first),
            class_1=frozenset(second),
        )

    return s.cached(("sigma_partition", a, b), build)


def is_triad(s: IncidenceStructure, a: int, b: int, c: int) -> bool:
    """True iff a, b, c are pairwise incident and c is in sigma(a, b).

    On structures passing the incidence-class axioms the three possible
    membership conditions agree; the theorem battery reports any
    disagreement, this predicate just evaluates the canonical one.
    """
    a = s.check_index(a)
    b = s.check_index(b)
    c = s.check_index(c)
    if a == b or b == c or a == c:
        raise PreconditionError("is_triad requires three distinct lines")
    adj = s.adjacency
    if not (adj[a, b] and adj[b, c] and adj[a, c]):
        return False
    return bool(sigma_mask(s, a, b) & (1 << c))


def secondary_element(s: IncidenceStructure, a: int, b: int, c: int) -> frozenset[int]:
    """bracket(a, b, c) for a triad; the result depends only on c's class."""
    if not is_triad(s, a, b, c):
        raise PreconditionError(
            f"secondary_element requires a triad, but ({s.labels[a]}, {s.labels[b]}, "
            f"{s.labels[c]}) is not one"
        )
    return bracket(s, a, b, c)
