"""Sigma sets and their two incidence classes.

For a distinct incident pair (a, b), ``sigma(a, b)`` is the set of lines in
perp({a, b}) that belong to some skew pair there, computed as
perp({a, b}) minus perp(perp({a, b})).  On well-behaved structures,
incidence restricted to that set is an equivalence with exactly two
classes; ``sigma_partition`` recovers the classes and verifies both facts
instead of assuming them, so it doubles as a diagnostic on untrusted input.

Sets are int bitmasks throughout.  This module holds the per-pair
definitions, computed from the line masks and reading no table of the
checkers: a sigma set is two cliques exactly when each member's incident
lines in it are its own class, one test per member.  ``sigma_witness``
grows the incidence classes by mask closure only to name why a pair's
sigma set does not split, and ``sigma_partition`` splits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    IncidenceStructure,
    LinespaceError,
    PreconditionError,
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
    pairwise incident; across classes all pairs are skew.  The classes are
    stored as the bitmasks ``class_masks``; the line sets are views.
    """

    pair: tuple[int, int]
    class_masks: tuple[int, int]

    @property
    def classes(self) -> tuple[frozenset[int], frozenset[int]]:
        return tuple(frozenset(lines_of_mask(c)) for c in self.class_masks)

    class_0 = property(lambda self: self.classes[0])
    class_1 = property(lambda self: self.classes[1])


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
    """Bitmask form of sigma(a, b); depends only on perp({a, b}), cached per perp."""
    a, b = _require_incident_distinct(s, a, b, "sigma")
    ab = s.masks[a] & s.masks[b]
    return s.cached(("sigma", ab), lambda: ab & ~perp_mask(s, ab))


def sigma(s: IncidenceStructure, a: int, b: int) -> frozenset[int]:
    """Lines of perp({a, b}) that are one of a skew pair there.

    Requires a != b and a incident to b; symmetric in its arguments.
    """
    return frozenset(lines_of_mask(sigma_mask(s, a, b)))


def incidence_classes(s: IncidenceStructure, group: int) -> list[int]:
    """Connected components of incidence on the lines of ``group``, as masks.

    Each is grown by mask closure from the least line not yet placed, so
    the list is ordered by least line; a component need not be a clique.
    """
    masks = s.masks
    out = []
    while group:
        cls = frontier = group & -group
        while frontier:
            reach = 0
            for x in lines_of_mask(frontier):
                reach |= masks[x]
            frontier = reach & group & ~cls
            cls |= frontier
        out.append(cls)
        group &= ~cls
    return out


def sigma_witness(s: IncidenceStructure, pair, **_) -> Optional[dict]:
    """Why sigma of the pair labeled ``pair`` is not two cliques: its class
    count if not 2, else its first transitivity violation p, q, r; None if
    it is, as every member's incident lines in sigma are its own class.
    NotTwoClassesError's witness, and thm_two_classes' function."""
    a, b = (s.index(x) for x in pair)
    sig, masks = sigma_mask(s, a, b), s.masks
    members = lines_of_mask(sig)
    c0 = sig and sig & masks[members[0]]
    if c0 != sig and all(masks[x] & sig == (c0 if c0 >> x & 1 else sig ^ c0) for x in members):
        return None
    witness = {"pair": labels_of(s, (a, b)), "sigma": labels_of(s, members)}
    count = len(incidence_classes(s, sig))
    if count != 2:
        return {**witness, "class_count": count}
    adj = s.adjacency  # two classes, not two cliques: some p - q - r in sigma has p skew r
    pairs = ((p, q) for q in members for p in members if p != q and adj[p, q])
    p, q, r = next((p, q, r) for p, q in pairs for r in members if r not in (p, q) and adj[q, r] and not adj[p, r])
    return {**witness, "p": s.labels[p], "q": s.labels[q], "r": s.labels[r]}


def sigma_partition(s: IncidenceStructure, a: int, b: int) -> SigmaPartition:
    """Split sigma(a, b) into its two incidence classes, verifying the split.

    ``sigma_witness`` decides the split from the line masks; class 0 is
    the least sigma line's incident lines in sigma.  A sigma set that does
    not split, into exactly two classes each a clique, raises
    NotTwoClassesError with the replayable witness ``sigma_witness`` names
    at this pair (this includes an empty sigma set, which downstream
    labeling code must never see as an empty partition).
    """
    a, b = _require_incident_distinct(s, a, b, "sigma_partition")
    witness = sigma_witness(s, labels_of(s, (a, b)))
    if witness is None:
        sig = sigma_mask(s, a, b)
        c0 = sig & s.masks[(sig & -sig).bit_length() - 1]
        return SigmaPartition(pair=(a, b), class_masks=(c0, sig ^ c0))
    name = "sigma({}, {})".format(*witness["pair"])
    if "p" in witness:
        raise NotTwoClassesError(f"incidence is not transitive on {name}", witness)
    count = witness["class_count"]
    message = f"{name} is empty" if count == 0 else f"{name} has {count} incidence classes, expected 2"
    raise NotTwoClassesError(message, witness)
