"""The point-triple pass, the derived-geometry battery and the entry points.

The three point-triple checks, ``thm_triangle``, ``thm_tetrahedron`` and
``vy_a3``, share one pass, ``_point_triples``: it walks the non-collinear
point triples in blocks of whole runs, one run per last point, and keeps
no triple.  The other derived-geometry (vy) checks read the model through
``labeling.model_index``.  This module tops the chain of check modules:
it imports ``model_theorems``, which imports ``theorems``, so loading it
registers every theorem and vy check in table order.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from . import model_theorems, theorems
from .core import IncidenceStructure, MissingElementError, _words, labels_of, lines_of_mask, only_bits, perp_table
from .labeling import GeometryModel, model_index, shared_lines
from .model_theorems import _first_pair, _listed, _masks, _padded
from .registry import FAIL, PASS, CheckReport, registered, replay, run_checks
from .sigma import NotTwoClassesError
from .theorems import _classes_at, _keep_least, _ranked


_TETRA_PAIRS = tuple(itertools.combinations(range(6), 2))
_TETRA_SKEW = {(0, 3), (1, 4), (2, 5)}


def _point_triples(s: IncidenceStructure, m: GeometryModel) -> dict:
    """The point-triple pass: one walk judges ``thm_triangle``,
    ``thm_tetrahedron`` and ``vy_a3``; cached.

    Per check, (its least violation (i, j, k, *sides) or None, its cases),
    ranked by ``_ranked``: a triple is one case, and for ``vy_a3`` as many
    as its A3 walk takes.  Also "first", the least triple and its vertex.
    ``thm_triangle`` is not judged without labeled classes.

    The walk takes the triples (i, j, k), i < j < k, whose points share no
    line in runs, one per last point k, each in ``itertools.combinations``
    order, and consecutive whole runs in blocks of at most
    ``theorems._WALK_TRIPLES`` triples, unless one run holds more.  Each
    block holds the triples' sides jk, ki and ij (-1 where two points do
    not share exactly one line) and their plane: the one model plane
    sharing a line with all three points, kept where its mask is the sides'
    bracket, else -1.  Against point k, the earlier points' lines and
    meeting planes are packed words, and the AND of two points' words holds
    what all three share.
    """

    def build():
        index = model_index(s, m)
        count, line = shared_lines(s, index.masks)
        n, P, adj = s.line_count, len(m.points), s.adjacency
        pts, line = index.incidence[index.points], line[np.ix_(index.points, index.points)]
        meets = count[np.ix_(index.points, index.planes)] > 0
        try:
            plane_rows = theorems._labeled_classes(m)[1][1]
        except (NotTwoClassesError, MissingElementError):
            plane_rows = None  # thm_triangle reports the dependency
        # per plane, the least point sharing no line with it, P if none; plane -1 reads P
        least_off = np.append(np.vstack((meets, np.zeros((1, len(m.planes)), bool))).argmin(axis=0), P)
        point_words = _words(pts)
        plane_words = _words(np.vstack((index.incidence[index.planes], np.zeros((1, n), bool))))  # row -1: no plane
        on = _padded(pts.T, P)  # per line, the points on it
        join = np.pad(np.where(line < 0, n + 1, line), (0, 1), constant_values=n)  # n: no case; n + 1: no line
        np.fill_diagonal(join, n)
        words = _words(np.vstack((adj, np.ones((1, n), bool), np.zeros((1, n), bool))))  # adjacency rows, then n, n + 1

        def block(parts):
            i, j, k, plane = map(np.concatenate, zip(*parts))
            sides = np.stack((line[j, k], line[k, i], line[i, j]), axis=1)
            bracket = words[sides[:, 0]] & words[sides[:, 1]]  # where a side is -1, read as no line
            bracket &= words[sides[:, 2]]
            plane[(sides.min(axis=1) < 0) | (bracket != plane_words[plane]).any(axis=1)] = -1
            return np.stack((i, j, k), axis=1), sides, plane, bracket

        def runs():
            parts, size = [], 0
            for k in range(2, P):
                lines, planes = _words(pts[:k, pts[k]]), _words(meets[:k, meets[k]])
                i, j = np.nonzero(np.triu(~(lines[:, None] & lines).any(axis=2), 1))
                one = only_bits(planes[i] & planes[j])  # the place of the one plane meeting all three
                if parts and size + len(i) > theorems._WALK_TRIPLES:
                    yield block(parts)
                    parts, size = [], 0
                plane = np.append(np.flatnonzero(meets[k]), -1)[one]  # -1: none or several
                parts.append((i, j, np.full_like(i, k), plane))
                size += len(i)
            if parts:
                yield block(parts)

        def completes(triples, sides, vertex):
            six = np.concatenate((sides, line[vertex[:, None], triples]), axis=1)
            ordered = np.sort(six, axis=1)
            ok = (ordered[:, 0] >= 0) & (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
            for x, y in _TETRA_PAIRS:
                ok &= adj[six[:, x], six[:, y]] != ((x, y) in _TETRA_SKEW)
            return ok

        def vertices(triples, sides, plane, bracket):
            """Each triple's vertex, or P where it has none."""
            vertex = least_off[plane]  # plane -1 reads P
            tried = np.flatnonzero(vertex < P)
            vertex[tried[~completes(triples[tried], sides[tried], vertex[tried])]] = P
            rest = np.flatnonzero((vertex == P) & (sides.min(axis=1) >= 0))
            bracket = bracket[rest]
            for o in range(P):
                if not len(rest):
                    break
                ok = completes(triples[rest], sides[rest], np.full(len(rest), o))
                ok &= ~(bracket & point_words[o]).any(axis=1)
                vertex[rest[ok]] = o
                rest, bracket = rest[~ok], bracket[~ok]
            return vertex

        def a3(sides):
            """Each triple's A3 cases, and whether it passes; a side -1 reads some line, and no case."""
            a, b, c = sides.T
            key, pair = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True)  # below 2**31
            cases, perp = np.zeros(len(key), np.int64), np.zeros((len(key), words.shape[1]), np.uint64)
            step = max(1, model_theorems._CELLS_PER_STEP // (on.shape[1] ** 2 + words.shape[1]))
            for lo in range(0, len(key), step):
                x, y = divmod(key[lo : lo + step], n)
                joins = join[on[x, :, None], on[y, None, :]].reshape(len(x), -1)
                cases[lo : lo + step] = (joins != n).sum(axis=1)
                perp[lo : lo + step] = words.take(joins[:, 0], axis=0)
                for j in joins.T[1:]:
                    perp[lo : lo + step] &= words.take(j, axis=0)
            valid = sides.min(axis=1) >= 0
            hit = perp[pair, c >> 6] >> (c & 63).astype(np.uint64) & np.uint64(1) != 0
            return np.where(valid, cases[pair], 0), valid & hit

        found = {"thm_triangle": [], "thm_tetrahedron": [], "vy_a3": []}
        first, triples_total, cases_total = [], 0, 0
        for triples, sides, plane, bracket in runs():
            vertex = vertices(triples, sides, plane, bracket)
            cases, passed = a3(sides)
            flagged = {"thm_tetrahedron": vertex == P, "vy_a3": ~passed}
            if plane_rows is not None:  # a side -1 reads some line, where plane is -1
                a, b, c = sides.T
                ok = (plane >= 0) & (a != b) & (b != c) & (a != c) & adj[a, b] & adj[b, c] & adj[a, c]
                for third, u, v in ((a, b, c), (b, c, a), (c, a, b)):
                    ok &= perp_table(m.structure).holds(plane_rows, u, v, third)
                flagged["thm_triangle"] = ~ok
            for name, bad in flagged.items():
                _keep_least(found[name], triples[bad], *sides[bad].T)
            key = triples @ np.array([P * P, P, 1])
            lowest = key == key.min(initial=P**3)  # a block's first triple need not be its least
            _keep_least(first, triples[lowest], vertex[lowest])
            triples_total, cases_total = triples_total + len(triples), cases_total + int(cases.sum())
        least = {name: min(kept, default=None) for name, kept in found.items()}
        walk = ((t, {**dict.fromkeys(found, np.ones(len(t), int)), "vy_a3": a3(sides)[0]}) for t, sides, *_ in runs())
        below = _ranked(walk, {name: v[:3] for name, v in least.items() if v})
        below = {"thm_triangle": triples_total, "thm_tetrahedron": triples_total, "vy_a3": cases_total, **below}
        return {"first": min(first, default=None), **{name: (v, below[name]) for name, v in least.items()}}

    return s.cached(("point_triples", m), build)


def _point_labels(s, m, points) -> list:
    return [labels_of(s, m.points[x]) for x in points]


def _triple(s: IncidenceStructure, m: GeometryModel, points) -> Optional[tuple]:
    """The named points' masks, and their counterexample's "points", when
    they are listed points that share no line; else None."""
    A, B, C = triple = _masks(s, *points)
    if not _listed(m.point_masks, *triple) or A & B & C:
        return None
    return triple, {"points": [labels_of(s, lines_of_mask(p)) for p in triple]}


def _triangle_issue(s: IncidenceStructure, m: GeometryModel, points, **_) -> Optional[dict]:
    """The first test of ``thm_triangle`` that three points sharing no line fail."""
    if (named := _triple(s, m, points)) is None:
        return None
    (A, B, C), ce = named
    masks = s.masks
    sides = (B & C, C & A, A & B)
    if any(side.bit_count() != 1 for side in sides):
        return {**ce, "issue": "points_without_unique_common_line"}
    a, b, c = (side.bit_length() - 1 for side in sides)
    if len({a, b, c}) != 3:
        return {**ce, "issue": "side_lines_not_distinct"}
    if not (masks[a] >> b & 1 and masks[b] >> c & 1 and masks[a] >> c & 1):
        return {**ce, "issue": "side_lines_not_pairwise_incident"}
    for third, u, v in ((a, b, c), (b, c, a), (c, a, b)):
        if not _classes_at(m, u, v)[1] >> third & 1:
            return {**ce, "issue": "side_not_in_plane_class", "line": s.labels[third], "of_pair": labels_of(s, (u, v))}
    bracket = masks[a] & masks[b] & masks[c]
    if bracket not in m.plane_masks:
        return {**ce, "issue": "bracket_not_a_plane"}
    through = [p for p in m.plane_masks if p & A and p & B and p & C]
    if through != [bracket]:
        return {**ce, "issue": "common_plane_not_unique", "planes_through": len(through)}
    return None


@registered("theorems", _triangle_issue, model=True)
def thm_triangle(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Three non-collinear points form a triangle with a unique common plane.

    Kernel: the point-triple pass, ``_point_triples``, proves a triple iff
    its sides are distinct and pairwise incident, each lies in the plane
    class of the other two, and its block names its plane.  The last is the
    scalar pair of tests "the sides' bracket is a plane p" and "exactly p
    meets all three points": a second plane with p's mask would meet them
    too.  So the pass flags exactly the triples that fail, and the least is
    named by the first test of ``_triangle_issue`` it fails.
    """
    name = "thm_triangle"
    theorems._labeled_classes(m)  # raises where the pass cannot judge a triangle
    found, examined = _point_triples(s, m)[name]
    if found is None:
        return CheckReport(name, PASS, stats={"cases_examined": examined})
    ce = _triangle_issue(s, m, _point_labels(s, m, found[:3]))
    return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined + 1})


def _tetrahedron_issue(s: IncidenceStructure, m: GeometryModel, points, **_) -> Optional[dict]:
    """Three points sharing no line whose sides are not unique lines, or
    that no point completes to the six-line pattern."""
    if (named := _triple(s, m, points)) is None:
        return None
    (A, B, C), ce = named
    masks, adj = s.masks, s.adjacency
    sides = [B & C, C & A, A & B]
    if any(side.bit_count() != 1 for side in sides):
        return {**ce, "issue": "points_without_unique_common_line"}
    sides = [side.bit_length() - 1 for side in sides]
    base = masks[sides[0]] & masks[sides[1]] & masks[sides[2]]
    for o in m.point_masks:
        edges = [o & p for p in (A, B, C)]
        if o & base or any(edge.bit_count() != 1 for edge in edges):
            continue
        six = sides + [edge.bit_length() - 1 for edge in edges]
        if len(set(six)) == 6 and all(adj[six[x], six[y]] != ((x, y) in _TETRA_SKEW) for x, y in _TETRA_PAIRS):
            return None
    return {**ce, "issue": "no_completing_vertex"}


@registered("theorems", _tetrahedron_issue, model=True)
def thm_tetrahedron(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Every triangle extends to a four-vertex figure with the six-line pattern.

    For each non-collinear point triple there must be a point off its
    plane, sharing no line with the bracket of its sides, whose three
    connecting edges complete six distinct lines, pairwise incident except
    the three opposite pairs; the least such point is the triple's vertex.

    Kernel: the point-triple pass, ``_point_triples``, a block at a time.
    When the sides' bracket is a model plane, the points off it are the
    points sharing no line with that plane, so each triple first tries the
    least of them, its vertex if that completes the pattern.  The triples
    left try every point in order, each step for all of them at once, and
    keep the first that completes it.  A triple with no vertex fails.
    """
    name = "thm_tetrahedron"
    verdicts = _point_triples(s, m)
    found, examined = verdicts[name]
    if found is not None:
        ce = _tetrahedron_issue(s, m, _point_labels(s, m, found[:3]))
        return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined + 1})
    witness = None
    if verdicts["first"]:
        i, j, k, o = verdicts["first"]
        P = m.point_masks
        six = [(P[u] & P[v]).bit_length() - 1 for u, v in ((j, k), (k, i), (i, j), (o, i), (o, j), (o, k))]
        witness = {
            "base_points": _point_labels(s, m, (i, j, k)),
            "vertex": labels_of(s, m.points[o]),
            "six_lines": [s.labels[x] for x in six],
        }
    return CheckReport(name, PASS, witness_sample=witness, stats={"cases_examined": examined})


def run_theorem_suite(
    s: IncidenceStructure, m: Optional[GeometryModel] = None
) -> list[CheckReport]:
    """Run every theorem verifier; model-level ones derive a labeling if needed."""
    return run_checks(s, ("theorems",), m)


# ---------------------------------------------------------------------------
# Derived-geometry battery (extension and alignment axioms over the model)
#
# "Point P is on line l" means l is a member of P; a point and a plane are
# incident when they share a line.


def _points_on_lines(s: IncidenceStructure, m: GeometryModel) -> list[int]:
    """How many of the model's points, a repeated point counted twice, hold each line of ``s``."""
    index = model_index(s, m)
    return index.incidence[index.points].sum(axis=0).tolist()


def _e0_issue(s: IncidenceStructure, m: GeometryModel, line, **_) -> Optional[dict]:
    l = s.index(line)
    count = sum(p >> l & 1 for p in m.point_masks)
    return {"line": s.labels[l], "points_on_line": count} if count < 3 else None


@registered("vy", _e0_issue, model=True)
def vy_e0(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E0: at least three points on every line."""
    counts = _points_on_lines(s, m)
    bad = next((l for l, c in enumerate(counts) if c < 3), None)
    stats = {"lines_examined": s.line_count}
    if bad is not None:
        return CheckReport("vy_e0", FAIL, counterexample=_e0_issue(s, m, s.labels[bad]), stats=stats)
    if counts:
        stats["min_points_on_line"] = min(counts)
        stats["max_points_on_line"] = max(counts)
    return CheckReport("vy_e0", PASS, stats=stats)


def _e1_issue(s: IncidenceStructure, m: GeometryModel, **_) -> Optional[dict]:
    return None if s.line_count else {"reason": "no lines"}


@registered("vy", _e1_issue, model=True)
def vy_e1(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E1: at least one line exists."""
    if s.line_count >= 1:
        return CheckReport("vy_e1", PASS, stats={"lines": s.line_count})
    return CheckReport("vy_e1", FAIL, counterexample=_e1_issue(s, m), stats={})


def _e2_issue(s: IncidenceStructure, m: GeometryModel, line=None, **_) -> Optional[dict]:
    if not m.point_masks:
        return {"reason": "no points"}
    if line is None or not all(p >> s.index(line) & 1 for p in m.point_masks):
        return None
    return {"line": s.labels[s.index(line)]}


@registered("vy", _e2_issue, model=True)
def vy_e2(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E2: not all points on one line."""
    pmasks = m.point_masks
    if not pmasks:
        return CheckReport("vy_e2", FAIL, counterexample=_e2_issue(s, m), stats={})
    bad = next((l for l, c in enumerate(_points_on_lines(s, m)) if c == len(pmasks)), None)
    stats = {"points": len(pmasks)}
    if bad is not None:
        return CheckReport("vy_e2", FAIL, counterexample=_e2_issue(s, m, s.labels[bad]), stats=stats)
    return CheckReport("vy_e2", PASS, stats=stats)


def _e3_issue(s: IncidenceStructure, m: GeometryModel, plane, **_) -> Optional[dict]:
    (h,) = _masks(s, plane)
    if h not in m.plane_masks or not all(p & h for p in m.point_masks):
        return None
    return {"plane": labels_of(s, lines_of_mask(h))}


@registered("vy", _e3_issue, model=True)
def vy_e3(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E3: for every plane, some point off it (none when there are no points)."""
    index = model_index(s, m)
    common = shared_lines(s, index.masks)[0][np.ix_(index.points, index.planes)]
    unavoidable = np.flatnonzero((common > 0).all(axis=0))
    stats = {"planes": len(m.plane_masks)}
    if len(unavoidable):
        ce = _e3_issue(s, m, labels_of(s, m.planes[int(unavoidable[0])]))
        return CheckReport("vy_e3", FAIL, counterexample=ce, stats=stats)
    return CheckReport("vy_e3", PASS, stats=stats)


def _pair_check(name: str, kind: str, violates, doc: str):
    """Register the vy check ``name``, documented by ``doc``, that fails on
    the first two listed elements of one kind, in combinations order, whose
    count of shared lines ``violates`` flags."""

    def issue(s: IncidenceStructure, m: GeometryModel, **ce) -> Optional[dict]:
        a, b = _masks(s, ce[f"{kind}_a"], ce[f"{kind}_b"])
        if not _listed(m.point_masks if kind == "point" else m.plane_masks, a, b) or not violates((a & b).bit_count()):
            return None
        return {f"{kind}_a": labels_of(s, lines_of_mask(a)), f"{kind}_b": labels_of(s, lines_of_mask(b))}

    def check(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
        index = model_index(s, m)
        elements, rows = (m.points, index.points) if kind == "point" else (m.planes, index.planes)
        hit = _first_pair(violates(shared_lines(s, index.masks)[0][np.ix_(rows, rows)]))[0]
        stats = {f"{kind}s": len(elements)}
        if hit is None:
            return CheckReport(name, PASS, stats=stats)
        ce = issue(s, m, **{f"{kind}_{x}": labels_of(s, elements[i]) for x, i in zip("ab", hit)})
        return CheckReport(name, FAIL, counterexample=ce, stats=stats)

    check.__name__, check.__doc__ = name, doc
    return registered("vy", issue, model=True)(check)


vy_e3p = _pair_check("vy_e3p", "plane", lambda common: common == 0, "E3': two distinct planes share a line.")
vy_a1 = _pair_check("vy_a1", "point", lambda common: common == 0, "A1: two distinct points share a line.")
vy_a2 = _pair_check("vy_a2", "point", lambda common: common > 1, "A2: two distinct points share at most one line.")


def _a3_issue(s: IncidenceStructure, m: GeometryModel, points=None, point_d=None, point_e=None, **_) -> Optional[dict]:
    """Named points D and E that share no one line; else D on BC and E on
    CA of the named triangle whose joining line misses AB."""
    if point_d is not None:
        d, e = _masks(s, point_d, point_e)
        if not _listed(m.point_masks, d, e):
            return None
        ends = {"point_d": labels_of(s, lines_of_mask(d)), "point_e": labels_of(s, lines_of_mask(e))}
        if (d & e).bit_count() != 1:
            return {**ends, "issue": "joining_line_not_unique"}
    if (named := _triple(s, m, points)) is None:
        return None
    (A, B, C), ce = named
    sides = (B & C, C & A, A & B)
    if any(side.bit_count() != 1 for side in sides):
        return {**ce, "issue": "points_without_unique_common_line"}
    a, b, c = (side.bit_length() - 1 for side in sides)
    if point_d is None or not (d >> a & 1 and e >> b & 1) or s.adjacency[c, (d & e).bit_length() - 1]:
        return None
    return {**ce, **ends, "joining_line": s.labels[(d & e).bit_length() - 1], "ab_line": s.labels[c]}


@registered("vy", _a3_issue, model=True)
def vy_a3(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """A3: the line joining D on BC and E on CA meets AB.

    Kernel: the point-triple pass, ``_point_triples``.  Per side pair
    (a, b) of a block, the joins of a point on a and another point on b are
    read from ``shared_lines`` over padded arrays of the points on each
    line, and the lines meeting every join are the AND of their packed
    adjacency rows; a join that is not unique reads as the empty row.  A
    triple passes iff its joins are all unique and c is in that AND.  The
    sides a = jk and b = ki meet at the last point k, so a side pair's
    triples lie in one run, and so in one block, and the pairs are grouped
    per block.  The walk of the least triple flagged names its failing case.
    """
    found, examined = _point_triples(s, m)["vy_a3"]
    if found is None:
        return CheckReport("vy_a3", PASS, stats={"cases_examined": examined})
    *triple, a, b, c = found
    ends = {}
    if min(a, b, c) >= 0:
        P = m.point_masks
        on_a, on_b = ([d for d, p in enumerate(P) if p >> x & 1] for x in (a, b))
        for examined, (d, e) in enumerate([(d, e) for d in on_a for e in on_b if d != e], examined + 1):
            join = P[d] & P[e]
            if join.bit_count() != 1 or not s.adjacency[c, join.bit_length() - 1]:
                break
        ends = {"point_d": labels_of(s, m.points[d]), "point_e": labels_of(s, m.points[e])}
    ce = _a3_issue(s, m, _point_labels(s, m, triple), **ends)
    return CheckReport("vy_a3", FAIL, counterexample=ce, stats={"cases_examined": examined})


def vy_axioms(s: IncidenceStructure, m: Optional[GeometryModel] = None) -> list[CheckReport]:
    """The eight extension/alignment checks over the model's points and
    planes, deriving a labeling if ``m`` is None."""
    return run_checks(s, ("vy",), m)


def replay_theorem_counterexample(
    s: IncidenceStructure, report: CheckReport, m: Optional[GeometryModel] = None
) -> bool:
    """Re-evaluate a failing theorem report directly against the structure.

    Model-level reports need the same model they were produced against.
    Dispatches through the registry, like ``replay_counterexample``.
    """
    return replay(s, report, m)
