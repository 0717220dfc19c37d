"""Derived points and planes: enumeration, coordinated labeling, duality.

Every triad of lines determines a secondary element, the bracket of the
triad.  Elements come in exactly two families; which family is called
"point" and which "plane" is a global choice with no further freedom, so
the labeling here is seeded and then verified rather than searched for:
pick one element as the seed point Z, classify every other element by
whether its intersection with Z is a singleton, then check that the
result satisfies every structural constraint.  A failed verification
means the structure is not a model of the axioms, and is reported with a
concrete witness, never retried.

The duality involution simply swaps the two families and re-verifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    IncidenceStructure,
    LinespaceError,
    PreconditionError,
    incident_pairs,
    labels_of,
    lines_of_mask,
    mask_of_lines,
)
from .sigma import SigmaPartition, sigma_mask, sigma_partition


class Kind(str, Enum):
    POINT = "point"
    PLANE = "plane"

    def swapped(self) -> "Kind":
        return Kind.PLANE if self is Kind.POINT else Kind.POINT


class LabelInconsistencyError(LinespaceError):
    """The seeded point/plane classification failed verification.

    Carries a ``witness`` dict naming the violated constraint: two
    same-kind elements sharing zero lines (a join/meet vacancy) or more
    than one line, a point/plane pair sharing exactly one line, or an
    incident pair whose two sigma classes do not yield one point and one
    plane.
    """

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


class MissingElementError(LinespaceError):
    """A meet or join lookup found no (or no unique) element; model is inconsistent."""


@dataclass(frozen=True)
class SecondaryElement:
    """A derived point or plane: a closed set of lines plus its kind.

    ``witness`` records one generating triad when known, for diagnostics.
    """

    lines: tuple[int, ...]
    kind: Kind
    witness: Optional[tuple[int, int, int]] = None

    @property
    def line_set(self) -> frozenset[int]:
        return frozenset(self.lines)


@dataclass(frozen=True)
class GeometryModel:
    """A structure together with its coordinated point/plane families.

    Elements are stored as sorted line-index tuples; two elements are the
    same element exactly when the tuples are equal.  ``seed`` records which
    sigma class of which pair was named the point side, as
    (a, b, class_index); None for the empty geometry.
    """

    structure: IncidenceStructure
    points: tuple[tuple[int, ...], ...]
    planes: tuple[tuple[int, ...], ...]
    seed: Optional[tuple[int, int, int]]


def element_table(s: IncidenceStructure) -> dict[frozenset[int], tuple[int, int, int]]:
    """All secondary elements with one generating triad each; cached.

    Iterates incident pairs (a, b) in index order and, for each, every
    member c of sigma(a, b) in index order, keeping the first triad that
    produces each distinct bracket.  This covers every triad's bracket
    because any triad contains an incident pair whose sigma holds the
    third line.  Brackets are keyed by mask while walking; each distinct
    element becomes a frozenset once, at the end.
    """

    def build():
        by_mask: dict[int, tuple[int, int, int]] = {}
        masks = s.masks
        for a, b in incident_pairs(s):
            base = masks[a] & masks[b]
            for c in lines_of_mask(sigma_mask(s, a, b)):
                by_mask.setdefault(base & masks[c], (a, b, c))
        return {frozenset(lines_of_mask(m)): t for m, t in by_mask.items()}

    return s.cached("element_table", build)


def enumerate_secondary_elements(s: IncidenceStructure) -> list[frozenset[int]]:
    """Every distinct bracket of a triad, sorted; empty if no triads exist."""
    return sorted(element_table(s), key=sorted)


def _element_masks(s: IncidenceStructure, elements: list[frozenset[int]]) -> list[int]:
    return [mask_of_lines(e) for e in elements]


def _verify_labeling(
    s: IncidenceStructure,
    elements: list[frozenset[int]],
    kinds: dict[frozenset[int], Kind],
    seed: tuple[int, int, int],
) -> Optional[dict]:
    """Return the lexicographically least violation witness, or None.

    Checks, in order: every incident pair's two sigma classes yield one
    point and one plane; distinct same-kind elements share exactly one
    line; opposite-kind elements never share exactly one line.
    """
    masks = s.masks
    seed_info = {"pair": labels_of(s, seed[:2]), "class_of": seed[2]}
    for p, q in incident_pairs(s):
        part = sigma_partition(s, p, q)  # NotTwoClassesError propagates
        base = masks[p] & masks[q]
        class_kinds = []
        for cls in part.classes:
            seen = set()
            for c in sorted(cls):
                fs = frozenset(lines_of_mask(base & masks[c]))
                kind = kinds.get(fs)
                if kind is None:
                    return {
                        "issue": "class_bracket_not_classified",
                        "pair": labels_of(s, (p, q)),
                        "bracket": labels_of(s, fs),
                        "seed": seed_info,
                    }
                seen.add(kind)
            if len(seen) != 1:
                return {
                    "issue": "class_yields_mixed_kinds",
                    "pair": labels_of(s, (p, q)),
                    "class": labels_of(s, cls),
                    "seed": seed_info,
                }
            class_kinds.append(seen.pop())
        if class_kinds[0] == class_kinds[1]:
            return {
                "issue": "pair_classes_same_kind",
                "pair": labels_of(s, (p, q)),
                "kind": class_kinds[0].value,
                "seed": seed_info,
            }
    emasks = _element_masks(s, elements)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            common = (emasks[i] & emasks[j]).bit_count()
            same = kinds[elements[i]] == kinds[elements[j]]
            if same and common != 1:
                issue = "same_kind_share_none" if common == 0 else "same_kind_share_many"
                return {
                    "issue": issue,
                    "kind": kinds[elements[i]].value,
                    "element_a": labels_of(s, elements[i]),
                    "element_b": labels_of(s, elements[j]),
                    "common_count": common,
                    "seed": seed_info,
                }
            if not same and common == 1:
                return {
                    "issue": "point_plane_share_one",
                    "element_a": labels_of(s, elements[i]),
                    "element_b": labels_of(s, elements[j]),
                    "common_count": common,
                    "seed": seed_info,
                }
    return None


def classify_elements(
    s: IncidenceStructure, seed: tuple[int, int, int]
) -> dict[frozenset[int], Kind]:
    """Kind of every element under the seeded singleton rule (unverified)."""
    a, b, k = seed
    part = sigma_partition(s, a, b)
    chosen = part.classes[k]
    zfs = frozenset(
        lines_of_mask(s.masks[a] & s.masks[b] & s.masks[min(chosen)])
    )
    zmask = mask_of_lines(zfs)
    kinds: dict[frozenset[int], Kind] = {}
    for fs in enumerate_secondary_elements(s):
        if fs == zfs:
            kinds[fs] = Kind.POINT
        elif (mask_of_lines(fs) & zmask).bit_count() == 1:
            kinds[fs] = Kind.POINT
        else:
            kinds[fs] = Kind.PLANE
    return kinds


def _normalize_seed(
    s: IncidenceStructure, seed: Optional[tuple[int, int, int]]
) -> tuple[int, int, int]:
    pairs = incident_pairs(s)
    if seed is None:
        a, b = pairs[0]
        return (a, b, 0)
    if len(seed) != 3:
        raise PreconditionError(f"seed must be (a, b, class_index), got {seed!r}")
    a, b, k = seed
    a = s.check_index(a)
    b = s.check_index(b)
    if a == b:
        raise PreconditionError("seed pair must be two distinct lines")
    if not s.adjacency[a, b]:
        raise PreconditionError(
            f"seed pair ({s.labels[a]}, {s.labels[b]}) must be incident"
        )
    if k not in (0, 1):
        raise PreconditionError(f"seed class index must be 0 or 1, got {k!r}")
    return (min(a, b), max(a, b), int(k))


def coordinate_labels(
    s: IncidenceStructure, seed: Optional[tuple[int, int, int]] = None
) -> GeometryModel:
    """Derive the coordinated point/plane families of a structure.

    The default seed is the lexicographically least incident distinct
    pair with class 0 (the class holding the least line of its sigma set)
    named point, so repeated runs agree exactly.  Raises
    LabelInconsistencyError (with witness) when the classification fails
    verification, or NotTwoClassesError when some sigma set has no valid
    class split; a structure with no incident distinct pair yields the
    empty model.  A verified model is cached per structure and seed; a
    failed one raises again on every call.
    """
    if not incident_pairs(s):
        return GeometryModel(structure=s, points=(), planes=(), seed=None)
    seed = _normalize_seed(s, seed)

    def build():
        kinds = classify_elements(s, seed)
        elements = enumerate_secondary_elements(s)
        witness = _verify_labeling(s, elements, kinds, seed)
        if witness is not None:
            raise LabelInconsistencyError(
                f"labeling verification failed: {witness['issue']}", witness
            )
        points = tuple(tuple(sorted(fs)) for fs in elements if kinds[fs] is Kind.POINT)
        planes = tuple(tuple(sorted(fs)) for fs in elements if kinds[fs] is Kind.PLANE)
        return GeometryModel(structure=s, points=points, planes=planes, seed=seed)

    return s.cached(("coordinate_labels", seed), build)


def _unique_element(m: GeometryModel, a: int, b: int, kind: Kind) -> SecondaryElement:
    """The unique element of one family containing both lines of an incident pair."""
    op = "meet_point" if kind is Kind.POINT else "join_plane"
    s = m.structure
    a = s.check_index(a)
    b = s.check_index(b)
    if a == b:
        raise PreconditionError(f"{op} requires two distinct lines")
    if not s.adjacency[a, b]:
        raise PreconditionError(
            f"{op} requires an incident pair, but {s.labels[a]!r} and "
            f"{s.labels[b]!r} are skew"
        )
    family = m.points if kind is Kind.POINT else m.planes
    hits = [e for e in family if a in e and b in e]
    if len(hits) != 1:
        raise MissingElementError(
            f"no unique {kind.value} contains {s.labels[a]!r} and {s.labels[b]!r}; "
            "model is inconsistent"
        )
    return SecondaryElement(lines=hits[0], kind=kind)


def meet_point(m: GeometryModel, a: int, b: int) -> SecondaryElement:
    """The unique point of the model containing both lines."""
    return _unique_element(m, a, b, Kind.POINT)


def join_plane(m: GeometryModel, a: int, b: int) -> SecondaryElement:
    """The unique plane of the model containing both lines."""
    return _unique_element(m, a, b, Kind.PLANE)


def dualize(m: GeometryModel) -> GeometryModel:
    """Swap the point and plane families, re-verifying the swapped model.

    An involution: dualize(dualize(m)) == m.
    """
    s = m.structure
    if m.seed is None:
        return GeometryModel(structure=s, points=m.planes, planes=m.points, seed=None)
    kinds: dict[frozenset[int], Kind] = {}
    for e in m.points:
        kinds[frozenset(e)] = Kind.PLANE
    for e in m.planes:
        kinds[frozenset(e)] = Kind.POINT
    elements = enumerate_secondary_elements(s)
    a, b, k = m.seed
    flipped = (a, b, 1 - k)
    witness = _verify_labeling(s, elements, kinds, flipped)
    if witness is not None:
        raise LabelInconsistencyError(
            f"dualized labeling failed verification: {witness['issue']}", witness
        )
    return GeometryModel(structure=s, points=m.planes, planes=m.points, seed=flipped)


def labeled_sigma_classes(
    m: GeometryModel, a: int, b: int
) -> tuple[frozenset[int], frozenset[int]]:
    """(point_class, plane_class) of sigma(a, b) under the model's labeling.

    The point class is the one whose bracket elements are points of the
    model.  Raises MissingElementError if a class's bracket is not an
    element of the model or the two classes land on the same kind.
    """
    s = m.structure
    part: SigmaPartition = sigma_partition(s, a, b)
    point_fs = {frozenset(e) for e in m.points}
    plane_fs = {frozenset(e) for e in m.planes}
    masks = s.masks
    a, b = part.pair
    base = masks[a] & masks[b]
    kinds = []
    for cls in part.classes:
        fs = frozenset(lines_of_mask(base & masks[min(cls)]))
        if fs in point_fs:
            kinds.append(Kind.POINT)
        elif fs in plane_fs:
            kinds.append(Kind.PLANE)
        else:
            raise MissingElementError(
                f"bracket of sigma class of ({s.labels[a]}, {s.labels[b]}) is not "
                "an element of the model"
            )
    if kinds[0] == kinds[1]:
        raise MissingElementError(
            f"both sigma classes of ({s.labels[a]}, {s.labels[b]}) map to {kinds[0].value}s"
        )
    if kinds[0] is Kind.POINT:
        return (part.class_0, part.class_1)
    return (part.class_1, part.class_0)
