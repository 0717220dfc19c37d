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

The duality involution swaps the two families and re-verifies; it first
requires the model's families to be exactly the derived elements.

Elements are int bitmasks of their lines from the table to the verdict,
and the labeling is one bool array over the rows of ``element_masks``,
true for a plane; line tuples and frozensets are built only for a model's
families, a public return value or a witness.  The verification reads
each perp's two sigma classes from ``core.perp_table`` and their elements
from ``element_ids``, and the lines every two elements share from
``shared_lines``, counted a line at a time into two element-by-element
tables; a model's points and planes are rows among the same elements in
``model_index``.  Whether each perp's two classes are one point and one
plane, under a labeling or a model's kinds, is judged in one place,
``_labeled_split``.  The seed element, the meet and the join are found
by mask from the definitions, which read none of these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    IncidenceStructure,
    LabelInconsistencyError,
    LinespaceError,
    MissingElementError,
    PreconditionError,
    _incidence,
    incident_pairs,
    labels_of,
    lines_of_mask,
    mask_of_lines,
    perp_table,
)
from .sigma import NotTwoClassesError, _require_incident_distinct, sigma_partition


class Kind(str, Enum):
    POINT = "point"
    PLANE = "plane"


@dataclass(frozen=True)
class SecondaryElement:
    """A derived point or plane: a closed set of lines plus its kind."""

    lines: tuple[int, ...]
    kind: Kind


@dataclass(frozen=True)
class GeometryModel:
    """A structure together with its coordinated point/plane families.

    Elements are stored as strictly ascending line-index tuples of Python
    ints; two elements are the same element exactly when the tuples are
    equal, and every line is an integer index of one of the structure's
    lines, not a bool, else PreconditionError.  ``seed`` records which
    sigma class of which pair was named the point side, as (a, b,
    class_index); None for the empty geometry.  The element masks are derived once, on first use,
    and take no part in equality; the arrays the checks read are in
    ``model_index``.
    """

    structure: IncidenceStructure
    points: tuple[tuple[int, ...], ...]
    planes: tuple[tuple[int, ...], ...]
    seed: Optional[tuple[int, int, int]]

    def __post_init__(self):
        n = self.structure.line_count
        for family, elements in (("point", self.points), ("plane", self.planes)):
            for element in elements:
                for line in element:
                    if not isinstance(line, (int, np.integer)) or isinstance(line, bool):
                        raise PreconditionError(f"{family} {list(element)} holds a non-integer line {line!r}")
                    if not 0 <= line < n:
                        raise PreconditionError(
                            f"{family} {list(element)} holds a line outside the structure's {n} lines"
                        )
                if any(x >= y for x, y in zip(element, element[1:])):
                    raise PreconditionError(f"{family} {list(element)} is not strictly ascending")
            # a numpy integer shifts as a fixed-width int, so the masks need Python ints
            object.__setattr__(self, f"{family}s", tuple(tuple(map(int, element)) for element in elements))

    @cached_property
    def point_masks(self) -> tuple[int, ...]:
        return tuple(map(mask_of_lines, self.points))

    @cached_property
    def plane_masks(self) -> tuple[int, ...]:
        return tuple(map(mask_of_lines, self.planes))


def element_ids(s: IncidenceStructure) -> tuple[tuple[int, ...], list[tuple[int, int, int]], np.ndarray]:
    """Every secondary element's mask, ordered by its ascending line list;
    one generating triad of each; and per perp of ``perp_table(s)`` the
    indices among the masks of its two classes' elements, class 0's first,
    or -1 twice where it does not split; cached.  The one numbering.

    Iterates incident pairs (a, b) in index order and, for each, every
    member c of sigma(a, b) in index order, keeping the first triad that
    produces each distinct bracket.  This covers every triad's bracket
    because any triad contains an incident pair whose sigma holds the
    third line.  Sigma and the brackets depend only on perp({a, b}), so
    only the first pair of each distinct perp adds any.  Of a perp whose
    sigma splits into two cliques, each class yields one element, the perp
    less the other class, so only the least line of each class is visited.
    """

    def build():
        masks = s.masks
        table = perp_table(s)
        first_a, first_b = incident_pairs(s)[table.first].T.tolist()  # each perp's first pair
        ids: dict[int, int] = {}
        triads, two = [], []
        for base, a, b, (c0, c1), split in zip(table.masks, first_a, first_b, table.classes, table.split):
            for c in lines_of_mask((c0 & -c0) | (c1 & -c1) if split else c0 | c1):
                if ids.setdefault(base & masks[c], len(ids)) == len(triads):
                    triads.append((a, b, c))
            two.append((ids[base & ~c1], ids[base & ~c0]) if split else (-1, -1))
        found = list(ids)
        order = sorted(range(len(found)), key=lambda e: lines_of_mask(found[e]))
        rank = np.append(np.argsort(order), -1).astype(np.int32)  # an unsplit perp's -1 reads -1
        two = rank[np.array(two, np.intp).reshape(-1, 2)]
        return tuple(found[e] for e in order), [triads[e] for e in order], two

    return s.cached("element_ids", build)


def element_masks(s: IncidenceStructure) -> tuple[int, ...]:
    """Every element's mask, ordered by its ascending line list; cached."""
    return element_ids(s)[0]


def enumerate_secondary_elements(s: IncidenceStructure) -> list[frozenset[int]]:
    """Every distinct bracket of a triad, sorted; empty if no triads exist."""
    return [frozenset(lines_of_mask(em)) for em in element_masks(s)]


def _line_incidence(s: IncidenceStructure, masks: tuple[int, ...]) -> np.ndarray:
    """``masks`` by the lines of ``s``, cached for the labeling, ``shared_lines`` and ``model_index``."""
    return s.cached(("incidence", masks), lambda: _incidence(masks, s.line_count))


def shared_lines(s: IncidenceStructure, masks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """How many lines every two of ``masks`` share, and which; cached.

    ``count[i, j]`` counts the lines below ``s.line_count`` that masks i and
    j both hold, symmetric, with each mask's own line count on the
    diagonal; ``line[i, j]`` is the one line they share where the count is
    1, else -1.  Counted one line at a time into the two tables, so that
    nothing else grows with the ordered pairs of masks holding each line.
    """

    def build():
        size = len(masks)
        count = np.zeros(size * size, np.int64)
        line = np.full(size * size, -1, np.int32)
        for x, held in enumerate(_line_incidence(s, masks).T):
            e = np.flatnonzero(held)
            pairs = (e * size)[:, None] + e  # the ordered pairs of masks holding line x
            count[pairs] += 1
            line[pairs] = x
        line[count != 1] = -1
        return count.reshape(size, size), line.reshape(size, size)

    return s.cached(("shared_lines", masks), build)


def _labeled_split(s: IncidenceStructure, kind: np.ndarray) -> tuple[np.ndarray, Optional[int]]:
    """Per perp of ``perp_table(s)``, the kinds ``kind``, a code per element
    of ``element_masks(s)`` (0 point, 1 plane, -1 neither), gives its two
    classes' elements in ``element_ids``, -1 where it does not split; and
    the first perp, in order of first pairs, whose classes are not one point
    and one plane, else None.  Where that perp does not split, its first
    pair raises ``sigma_partition``'s NotTwoClassesError.  A split class
    yields one element, so the test is judged once per perp."""
    table = perp_table(s)
    two = np.append(kind, -1)[element_ids(s)[2]]
    bad = np.flatnonzero((two.min(axis=1) < 0) | (two[:, 0] == two[:, 1]))
    if len(bad) and not table.split[bad[0]]:
        sigma_partition(s, *table.pairs[table.first[bad[0]]].tolist())  # raises
        raise AssertionError("perp_table finds no split where sigma_witness finds one")
    return two, int(bad[0]) if len(bad) else None


def _verify_labeling(s: IncidenceStructure, plane: np.ndarray, seed: tuple[int, int, int]) -> Optional[dict]:
    """The lexicographically least violation witness of a labeling, or None;
    ``plane`` says of each element of ``element_masks(s)`` whether it is a plane.

    Checks, in order: every incident pair's two sigma classes yield one
    point and one plane (``_labeled_split``); distinct same-kind elements
    share exactly one line; opposite-kind elements never share exactly one.
    """
    seed_info = {"pair": labels_of(s, seed[:2]), "class_of": seed[2]}

    def fail(issue, fields):
        return {"issue": issue, **fields, "seed": seed_info}

    two, bad = _labeled_split(s, plane.astype(np.int8))
    if bad is not None:
        table = perp_table(s)
        pair = labels_of(s, table.pairs[table.first[bad]].tolist())
        return fail("pair_classes_same_kind", {"pair": pair, "kind": ("point", "plane")[two[bad, 0]]})
    emasks = element_masks(s)
    common = shared_lines(s, emasks)[0]
    same = plane[:, None] == plane
    i, j = np.nonzero(np.triu(same != (common == 1), 1))
    if not len(i):
        return None
    ei, ej = emasks[i[0]], emasks[j[0]]
    shared = {
        "element_a": labels_of(s, lines_of_mask(ei)),
        "element_b": labels_of(s, lines_of_mask(ej)),
        "common_count": (ei & ej).bit_count(),
    }
    if not same[i[0], j[0]]:
        return fail("point_plane_share_one", shared)
    issue = "same_kind_share_none" if not ei & ej else "same_kind_share_many"
    return fail(issue, {"kind": "plane" if plane[i[0]] else "point", **shared})


def classify_elements(s: IncidenceStructure, seed: tuple[int, int, int]) -> np.ndarray:
    """Per element of ``element_masks(s)``, whether the seeded singleton rule
    labels it a plane (unverified): the seed point Z, the seed pair's perp
    less the class other than the seed class, and every element sharing
    exactly one line with Z are points."""
    a, b, k = seed
    other = sigma_partition(s, a, b).class_masks[1 - k]  # an unsplit seed pair raises here
    z = element_masks(s).index(s.masks[a] & s.masks[b] & ~other)
    incidence = _line_incidence(s, element_masks(s))
    plane = np.count_nonzero(incidence[:, incidence[z]], axis=1) != 1
    plane[z] = False
    return plane


def _normalize_seed(
    s: IncidenceStructure, seed: Optional[tuple[int, int, int]]
) -> tuple[int, int, int]:
    if seed is None:
        a, b = incident_pairs(s)[0].tolist()
        return (a, b, 0)
    if len(seed) != 3:
        raise PreconditionError(f"seed must be (a, b, class_index), got {seed!r}")
    a, b, k = seed
    for line in (a, b):
        if not isinstance(line, (int, np.integer)) or isinstance(line, bool) or not 0 <= line < s.line_count:
            raise PreconditionError(f"seed line {line!r} is not a line index in [0, {s.line_count})")
    a, b = int(a), int(b)
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
    empty model.  The model, or the error of a failed labeling, is cached
    per structure and seed, and a cached error is raised again.
    """
    if not len(incident_pairs(s)):
        return GeometryModel(structure=s, points=(), planes=(), seed=None)
    seed = _normalize_seed(s, seed)

    def build():
        try:
            plane = classify_elements(s, seed)
            witness = _verify_labeling(s, plane, seed)
        except NotTwoClassesError as e:
            return e
        if witness is not None:
            return LabelInconsistencyError(
                f"labeling verification failed: {witness['issue']}", witness
            )
        points, planes = (
            tuple(tuple(lines_of_mask(em)) for em, p in zip(element_masks(s), plane.tolist()) if p == family)
            for family in (False, True)
        )
        return GeometryModel(structure=s, points=points, planes=planes, seed=seed)

    got = s.cached(("coordinate_labels", seed), build)
    if isinstance(got, LinespaceError):
        raise got
    return got


@dataclass(frozen=True)
class ModelIndex:
    """A model's elements as rows among the derived elements of a structure.

    ``masks`` lists ``element_masks(s)``, then each other mask of the model
    once, in model order.  ``points`` and ``planes`` hold each point's and
    plane's row.  ``kind`` is 0 for a row the model lists as a point, else
    1 for a plane, else -1: a mask listed in both families reads as a point.
    ``incidence`` is the rows by the lines of ``s``.
    """

    masks: tuple[int, ...]
    points: np.ndarray
    planes: np.ndarray
    kind: np.ndarray
    incidence: np.ndarray


def model_index(s: IncidenceStructure, m: GeometryModel) -> ModelIndex:
    """The ``ModelIndex`` of ``m`` over ``s``; cached per structure and model."""

    def build():
        row = {em: r for r, em in enumerate(element_masks(s))}
        for em in m.point_masks + m.plane_masks:
            row.setdefault(em, len(row))
        points, planes = (np.array([row[em] for em in f], np.intp) for f in (m.point_masks, m.plane_masks))
        kind = np.full(len(row), -1, np.int8)
        kind[planes] = 1
        kind[points] = 0
        masks = tuple(row)
        return ModelIndex(masks, points, planes, kind, _line_incidence(s, masks))

    return s.cached(("model_index", m.points, m.planes), build)


def _unique_element(m: GeometryModel, a: int, b: int, kind: Kind) -> int:
    """Index of the unique element of one family holding both lines of an
    incident pair of the model's structure, from a scan of its masks."""
    s = m.structure
    a, b = _require_incident_distinct(s, a, b, "meet_point" if kind is Kind.POINT else "join_plane")
    both = 1 << a | 1 << b
    hits = [i for i, em in enumerate(m.point_masks if kind is Kind.POINT else m.plane_masks) if em & both == both]
    if len(hits) != 1:
        raise MissingElementError(
            f"no unique {kind.value} contains {s.labels[a]!r} and {s.labels[b]!r}; "
            "model is inconsistent"
        )
    return hits[0]


def meet_point(m: GeometryModel, a: int, b: int) -> SecondaryElement:
    """The unique point of the model containing both lines, by a scan of the point masks."""
    return SecondaryElement(m.points[_unique_element(m, a, b, Kind.POINT)], Kind.POINT)


def join_plane(m: GeometryModel, a: int, b: int) -> SecondaryElement:
    """The unique plane of the model containing both lines, by a scan of the plane masks."""
    return SecondaryElement(m.planes[_unique_element(m, a, b, Kind.PLANE)], Kind.PLANE)


def dualize(m: GeometryModel) -> GeometryModel:
    """Swap the point and plane families, re-verifying the swapped model.

    The families must be exactly the derived elements, each listed once:
    else the first element listed twice or not derived, or the least
    derived element left out, is the witness.  An involution:
    dualize(dualize(m)) == m.
    """
    s = m.structure
    index, derived = model_index(s, m), len(element_masks(s))
    rows = np.concatenate((index.points, index.planes))
    again = np.ones(len(rows), bool)  # each listing of a row listed before
    again[np.unique(rows, return_index=True)[1]] = False
    listed = rows[(rows >= derived) | again].tolist()
    bad = [("element_not_derived" if r >= derived else "element_listed_twice", r) for r in listed]
    bad += [("element_missing", r) for r in np.flatnonzero(index.kind[:derived] < 0)]
    witness = flipped = None
    if bad:
        witness = {"issue": bad[0][0], "element": labels_of(s, lines_of_mask(index.masks[bad[0][1]]))}
    elif m.seed is not None:
        a, b, k = m.seed
        flipped = (a, b, 1 - k)
        witness = _verify_labeling(s, index.kind[:derived] == 0, flipped)
    if witness is not None:
        raise LabelInconsistencyError(
            f"dualized labeling failed verification: {witness['issue']}", witness
        )
    return GeometryModel(structure=s, points=m.planes, planes=m.points, seed=flipped)
