"""The model pass and the model-level theorems.

The model pass, ``_model_triads``, walks the triads as the structure pass
of ``theorems`` does, once per structure and model, and judges
``thm_triad_typing`` and ``thm_exchange``.  The other checks read each
point and plane as a row of ``labeling.model_index`` and, through those
rows, the labeling's one ``shared_lines`` table: how many lines every two
elements share, and the line where they share exactly one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import theorems
from .axioms import _resolve
from .core import (
    IncidenceStructure,
    _words,
    labels_of,
    least_bits,
    lines_of_mask,
    mask_of_lines,
    only_bits,
    perp_mask,
    perp_table,
)
from .labeling import (
    GeometryModel,
    Kind,
    MissingElementError,
    _unique_element,
    element_masks,
    model_index,
    shared_lines,
)
from .registry import FAIL, PASS, CheckReport, registered
from .theorems import _classes_at, _in_sigma, _keep_least, _ranked, _walk


_CELLS_PER_STEP = 1 << 20  # cells per step of the exchange rows, the line-in-plane hosts and the A3 joins


def _triad_typing_issue(s: IncidenceStructure, m: GeometryModel, triad, **_) -> Optional[dict]:
    """Per line of the triad, the labeled class of the other two's sigma set
    that holds it, "point", "plane" or None; all point or all plane passes."""
    a, b, c = _resolve(s, triad)
    sides = []
    for x, y, third in ((b, c, a), (c, a, b), (a, b, c)):
        pc, qc = _classes_at(m, x, y)
        sides.append("point" if pc >> third & 1 else "plane" if qc >> third & 1 else None)
    if sides[0] is not None and len(set(sides)) == 1:
        return None
    return {"triad": labels_of(s, (a, b, c)), "sides": sides}


def _model_triads(s: IncidenceStructure, m: GeometryModel) -> dict:
    """The model pass: one walk judges ``thm_triad_typing`` and ``thm_exchange``; cached.

    As ``_triads``; the exchange violation is (triad, bracket, its failing
    row's two lines or None), and its cases weigh each triad below it by
    its bracket's rows.  Raises what ``_labeled_classes`` raises.
    """

    def build():
        refined = theorems._labeled_classes(m)[1]
        table, model_table = perp_table(s), perp_table(m.structure)
        index, derived = model_index(s, m), len(element_masks(s))
        kind, inside = index.kind[:derived], index.incidence[:derived]  # s's elements are the first rows
        size, members = inside.sum(axis=1), _padded(inside, 0)
        place = np.cumsum(inside, axis=1, dtype=np.int32) - 1  # of each line of a bracket
        x, y = np.triu_indices(members.shape[1], 1)  # the rows, as places, in walk order
        valid = _words(y < size[:, None])
        rows = np.zeros((2, *members.shape, valid.shape[1]), np.uint64)
        step = max(1, _CELLS_PER_STEP // (members.shape[1] * len(x) + 1))
        for lo in range(0, len(size), step):
            run = members[lo : lo + step]
            u, v, z = run[:, None, x], run[:, None, y], run[:, :, None]
            rows[0, lo : lo + step] = _words(table.holds(table.sigma, u, v, z))
            for code, classes in enumerate(refined):
                mine = lo + np.flatnonzero(kind[lo : lo + step] == code)
                rows[1, mine] = _words(model_table.holds(classes, u[mine - lo], v[mine - lo], z[mine - lo]))
        row_count = np.where(kind >= 0, size * (size - 1) // 2, 0)
        rows = rows.reshape(2, -1, valid.shape[1])  # row k * width + i: line i of bracket k
        triads = np.zeros(derived, np.int64)
        runs = {"thm_triad_typing": [], "thm_exchange": []}
        for e, _, triples, held, same in _walk(s):
            own = held.any(axis=0) & same
            e, triples = e[own], triples[own]
            triads += np.bincount(e, minlength=derived)
            point, plane = model_table.holds(refined, triples.T[[1, 2, 0]], triples.T[[2, 0, 1]], triples.T)
            _keep_least(runs["thm_triad_typing"], triples[~(point.all(axis=0) | (plane & ~point).all(axis=0))])
            at = (e[:, None] * members.shape[1] + place[e[:, None], triples]).T
            sig, ref = (h.take(at[0], axis=0) | h.take(at[1], axis=0) | h.take(at[2], axis=0) for h in rows)
            row = least_bits(~(sig & ref) & valid[e])
            bad = (kind[e] < 0) | (row >= 0)
            _keep_least(runs["thm_exchange"], triples[bad], e[bad], row[bad])
        typing, exchange = (min(found, default=None) for found in runs.values())
        owned = ((e, t, h.any(axis=0) & same) for e, _, t, h, same in _walk(s))
        walk = ((t, {"thm_triad_typing": own, "thm_exchange": own * row_count[e]}) for e, t, own in owned)
        below = _ranked(walk, {name: v[:3] for name, v in zip(runs, (typing, exchange)) if v})
        typed = below["thm_triad_typing"] + 1 if typing else int(triads.sum())
        if exchange is None:
            return {"thm_triad_typing": (typing, typed), "thm_exchange": (None, int(triads @ row_count))}
        *triad, k, r = exchange
        examined, pair = below["thm_exchange"], None
        if kind[k] >= 0:
            i, j = int(x[r]), int(y[r])
            examined += i * (int(size[k]) - 1) - i * (i - 1) // 2 + j - i  # rows up to (i, j)
            pair = int(members[k, i]), int(members[k, j])
        return {"thm_triad_typing": (typing, typed), "thm_exchange": ((triad, pair), examined)}

    return s.cached(("triads", m), build)


@registered("theorems", _triad_typing_issue, model=True)
def thm_triad_typing(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Each triad sits uniformly on the point side or the plane side.

    Kernel: a line's side in sigma(x, y) is the point side if it lies in
    the point class, else the plane side if it lies in the plane class.  A
    triad passes iff its three lines all take the point side or all the
    plane side; the model pass, ``_model_triads``, names the least that
    does not.
    """
    name = "thm_triad_typing"
    found, examined = _model_triads(s, m)[name]
    stats = {"triads_examined": examined}
    if found is None:
        return CheckReport(name, PASS, stats=stats)
    return CheckReport(name, FAIL, counterexample=_triad_typing_issue(s, m, labels_of(s, found)), stats=stats)


def _point_ne_plane_issue(s: IncidenceStructure, m: GeometryModel, element, **_) -> Optional[dict]:
    e = mask_of_lines(_resolve(s, element))
    return {"element": labels_of(s, lines_of_mask(e))} if e in m.point_masks and e in m.plane_masks else None


@registered("theorems", _point_ne_plane_issue, model=True)
def thm_point_ne_plane(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """No line set is both a point and a plane of the model."""
    name = "thm_point_ne_plane"
    overlap = set(m.points) & set(m.planes)
    stats = {"points": len(m.points), "planes": len(m.planes)}
    if overlap:
        ce = _point_ne_plane_issue(s, m, labels_of(s, min(overlap)))
        return CheckReport(name, FAIL, counterexample=ce, stats=stats)
    return CheckReport(name, PASS, stats=stats)


def _pencil_issue(s: IncidenceStructure, m: GeometryModel, pair, **_) -> Optional[dict]:
    a, b = _resolve(s, pair)
    try:
        pt = m.point_masks[_unique_element(m, a, b, Kind.POINT)]
        pl = m.plane_masks[_unique_element(m, a, b, Kind.PLANE)]
    except MissingElementError as e:
        return {"pair": labels_of(s, (a, b)), "issue": str(e)}
    dd = perp_mask(s, s.masks[a] & s.masks[b])
    pc, qc = _classes_at(m, a, b)
    checks = (
        ("meet_join_intersection", pt & pl, dd),
        ("point_class_identity", pc, pt & ~dd),
        ("plane_class_identity", qc, pl & ~dd),
    )
    for label, got, want in checks:
        if got != want:
            return {
                "pair": labels_of(s, (a, b)),
                "identity": label,
                "got": labels_of(s, lines_of_mask(got)),
                "expected": labels_of(s, lines_of_mask(want)),
            }
    return None


@registered("theorems", _pencil_issue, model=True)
def thm_pencil_intersection(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """meet and join of a pair intersect in the pair's double perp.

    Also checks the companion identities: the point class of sigma(a, b)
    is the meet minus the double perp, and dually for the plane class.
    Kernel: per incident pair, the meet and the join are the one point and
    the one plane whose bits both lines' rows of the element-holding
    matrix, from ``model_index``, set, one AND per family.  The identities
    then depend only on the meet, the join, perp({a, b}), whose double
    perp is the perp less sigma, and the pair's perp in the model's
    structure, which fixes its classes; they are judged once per distinct
    such four.  The first pair that fails, by its four, by a meet or join
    that is not unique, or by not being an incident pair of the model's
    structure, is named from the definitions.
    """
    name = "thm_pencil_intersection"
    classes = theorems._labeled_classes(m)[0]
    table, index = perp_table(s), model_index(s, m)
    a, b = table.pairs.T
    four = [table.perp, perp_table(m.structure).index[a, b]]  # -1: no incident pair of the model's structure
    for rows in (index.points, index.planes):
        holding = _words(index.incidence[rows].T)  # bit e of row l: element e holds line l
        four.append(only_bits(holding[a] & holding[b]))
    four = np.stack(four, axis=1)
    _, first, inverse = np.unique(four, axis=0, return_index=True, return_inverse=True)
    # the double perp lies in perp({a, b}): it is the perp less sigma
    double_perp = [ab & ~(c0 | c1) for ab, (c0, c1) in zip(table.masks, table.classes)]

    def holds(k, in_model, point, plane):
        if min(in_model, point, plane) < 0:
            return False
        pt, pl, dd = m.point_masks[point], m.plane_masks[plane], double_perp[k]
        pc, qc = classes[in_model]
        return pt & pl == dd and pc == pt & ~dd and qc == pl & ~dd

    passes = np.array([holds(*four[p].tolist()) for p in first.tolist()], bool)
    flagged = np.flatnonzero(~passes[inverse.reshape(-1)])
    if not len(flagged):
        return CheckReport(name, PASS, stats={"pairs_examined": len(table.pairs)})
    p = int(flagged[0])
    ce = _pencil_issue(s, m, labels_of(s, table.pairs[p].tolist()))
    return CheckReport(name, FAIL, counterexample=ce, stats={"pairs_examined": p + 1})


def _exchange_issue(s: IncidenceStructure, m: GeometryModel, triad, x=None, y=None, **_) -> Optional[dict]:
    """A bracket that is no element, else the failure at the row (x, y) of
    the bracket; a mask listed in both families is a point."""
    t = _resolve(s, triad)
    B = perp_mask(s, mask_of_lines(t))
    if B not in m.point_masks + m.plane_masks:
        return {"triad": labels_of(s, t), "issue": "bracket_not_an_element"}
    if x is None:
        return None
    u, v = _resolve(s, (x, y))
    if not (u < v and B >> u & 1 and B >> v & 1):
        return None
    ce = {"triad": labels_of(s, t), "x": s.labels[u], "y": s.labels[v]}
    if not s.adjacency[u, v]:
        return {**ce, "issue": "skew_pair_in_bracket"}
    if not any(_in_sigma(s, u, v, z) for z in t):
        return {**ce, "issue": "sigma_misses_triad"}
    kind = "point" if B in m.point_masks else "plane"
    pc, qc = _classes_at(m, u, v)
    if (pc if kind == "point" else qc) & mask_of_lines(t):
        return None
    return {**ce, "kind": kind, "issue": "refined_class_misses_triad"}


@registered("theorems", _exchange_issue, model=True)
def thm_exchange(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Distinct lines of a triad's bracket have one of the triad in their sigma.

    Refined by kind: when the bracket is a plane of the model, the plane
    class of sigma(x, y) already contains one of the triad, and dually.
    Each triad walks the rows (x, y) of its bracket, the pairs of its
    lines in lexicographic order.  Kernel: for every bracket at once, per
    line of the bracket, the bitsets of the rows whose sigma set holds it
    and whose refined class holds it (a skew row's sigma set holds
    nothing).  Every line of a triad lies in its bracket (the three are
    pairwise incident and every line is self-incident), so the rows a
    triad fails are those missing from the OR over its three lines of
    either bitset, and its least such row is where its walk stops; a
    bracket that is no element fails its triads at once.  The model pass,
    ``_model_triads``, names the least triad that fails.  The sigma
    condition stays even though the refined class is a class of
    sigma(x, y): the classes come from the model's structure and sigma
    from ``s``, which need not be the same structure.
    """
    name = "thm_exchange"
    found, examined = _model_triads(s, m)[name]
    if found is None:
        return CheckReport(name, PASS, stats={"cases_examined": examined})
    triad, pair = found
    row = {} if pair is None else dict(zip("xy", labels_of(s, pair)))
    ce = _exchange_issue(s, m, labels_of(s, triad), **row)
    return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined})


def _padded(flags: np.ndarray, fill: int) -> np.ndarray:
    """Per row of a bool matrix, the columns it flags in order, padded with ``fill``."""
    size = flags.sum(axis=1)
    r, c = np.nonzero(flags)
    out = np.full((len(flags), int(size.max(initial=0))), fill, np.intp)
    out[r, np.arange(len(r)) - (np.cumsum(size) - size)[r]] = c
    return out


def _first_pair(flags: np.ndarray) -> tuple:
    """The first flagged i < j of a square bool matrix, in ``itertools.combinations``
    order, and the pairs up to it; or None and every pair."""
    i, j = np.triu_indices(len(flags), 1)
    hit = np.flatnonzero(flags[i, j])
    if not len(hit):
        return None, len(i)
    return (int(i[hit[0]]), int(j[hit[0]])), int(hit[0]) + 1


def _listed(family: tuple[int, ...], *masks: int) -> bool:
    """Whether ``family`` lists each of ``masks`` at least as often as they
    name it: the kernels take two listings of one mask as two elements."""
    return all(family.count(x) >= masks.count(x) for x in masks)


def _masks(s: IncidenceStructure, *elements) -> list[int]:
    return [mask_of_lines(_resolve(s, e)) for e in elements]


def _not_singleton_issue(s: IncidenceStructure, m: GeometryModel, point, plane, **_) -> Optional[dict]:
    p, q = _masks(s, point, plane)
    if not (p in m.point_masks and q in m.plane_masks and (p & q).bit_count() == 1):
        return None
    return {key: labels_of(s, lines_of_mask(x)) for key, x in (("point", p), ("plane", q), ("common", p & q))}


@registered("theorems", _not_singleton_issue, model=True)
def thm_not_singleton(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """A point and a plane never share exactly one line.

    Kernel: the points' rows of ``shared_lines`` against the planes'
    columns; the first pair, point-major, that shares one line fails."""
    name = "thm_not_singleton"
    index = model_index(s, m)
    common = shared_lines(s, index.masks)[0][np.ix_(index.points, index.planes)]
    bad = np.flatnonzero(common == 1)
    if not len(bad):
        return CheckReport(name, PASS, stats={"pairs_examined": common.size})
    i, j = divmod(int(bad[0]), len(m.planes))
    ce = _not_singleton_issue(s, m, labels_of(s, m.points[i]), labels_of(s, m.planes[j]))
    return CheckReport(name, FAIL, counterexample=ce, stats={"pairs_examined": int(bad[0]) + 1})


def _uniqueness_issue(s: IncidenceStructure, m: GeometryModel, kind, element_a, element_b, **_) -> Optional[dict]:
    a, b = _masks(s, element_a, element_b)
    if not _listed(m.point_masks if kind == "point" else m.plane_masks, a, b) or (a & b).bit_count() < 2:
        return None
    named = {"element_a": labels_of(s, lines_of_mask(a)), "element_b": labels_of(s, lines_of_mask(b))}
    return {"kind": kind, **named, "common": labels_of(s, lines_of_mask(a & b))}


@registered("theorems", _uniqueness_issue, model=True)
def thm_uniqueness(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Two distinct same-kind elements share at most one line (both kinds)."""
    name = "thm_uniqueness"
    index = model_index(s, m)
    count = shared_lines(s, index.masks)[0]
    examined = 0
    for kind, family, rows in (("point", m.points, index.points), ("plane", m.planes, index.planes)):
        hit, pairs = _first_pair(count[np.ix_(rows, rows)] > 1)
        examined += pairs
        if hit is not None:
            ce = _uniqueness_issue(s, m, kind, *(labels_of(s, family[i]) for i in hit))
            return CheckReport(name, FAIL, counterexample=ce, stats={"pairs_examined": examined})
    return CheckReport(name, PASS, stats={"pairs_examined": examined})


def _line_in_plane_issue(s: IncidenceStructure, m: GeometryModel, **ce) -> Optional[dict]:
    """Two listed elements of one kind that some host meets share no one
    line, or their one line is not in the named host."""
    kind, host_kind, where = ("point", "plane", "in_plane") if "point_a" in ce else ("plane", "point", "through_point")
    family, hosts = (m.point_masks, m.plane_masks) if kind == "point" else (m.plane_masks, m.point_masks)
    a, b = _masks(s, ce[f"{kind}_a"], ce[f"{kind}_b"])
    pair = {f"{kind}_a": labels_of(s, lines_of_mask(a)), f"{kind}_b": labels_of(s, lines_of_mask(b))}
    if not _listed(family, a, b):
        return None
    if (a & b).bit_count() != 1:
        met = any(h & a and h & b for h in hosts)
        return {**pair, "issue": f"{kind}s_without_unique_common_line"} if met else None
    host = mask_of_lines(_resolve(s, ce.get(host_kind, ())))
    if host not in hosts or not (host & a and host & b) or host & a & b:
        return None
    line = s.labels[(a & b).bit_length() - 1]
    return {**pair, host_kind: labels_of(s, lines_of_mask(host)), "line": line, "issue": f"common_line_not_{where}"}


@registered("theorems", _line_in_plane_issue, model=True)
def thm_line_in_plane(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Two points on a plane have their common line in that plane; and dually.

    One walk serves both: for each element of one kind (the host), every
    two elements of the other kind that share a line with it must share
    exactly one line, and that line must lie in the host.  It runs over the
    planes, then over the points, with the kinds swapped.  Kernel: per
    host, the elements sharing a line with it, padded, and every two of
    them read from ``shared_lines``, for a run of hosts at once; the first
    pair, host-major, flagged is where the walk stops.
    """
    name = "thm_line_in_plane"
    index = model_index(s, m)
    count, line = shared_lines(s, index.masks)
    families = {"point": (m.points, index.points), "plane": (m.planes, index.planes)}
    examined = 0
    for kind, host_kind in (("point", "plane"), ("plane", "point")):
        (elements, rows), (hosts, host_rows) = families[kind], families[host_kind]
        meets = count[np.ix_(host_rows, rows)] > 0
        size = meets.sum(axis=1)
        on = _padded(meets, 0)  # per host, the elements meeting it
        x, y = np.triu_indices(on.shape[1], 1)  # every two places, in combinations order
        common, holds = line[np.ix_(rows, rows)], index.incidence[host_rows]
        step = max(1, _CELLS_PER_STEP // (len(x) + 1))
        for lo in range(0, len(hosts), step):
            valid = y < size[lo : lo + step, None]
            l = common[on[lo : lo + step, x], on[lo : lo + step, y]]
            ok = (l >= 0) & holds[np.arange(lo, lo + len(valid))[:, None], l]
            bad = np.flatnonzero(valid & ~ok)
            if not len(bad):
                examined += int(valid.sum())
                continue
            k, r = divmod(int(bad[0]), len(x))
            examined += int(valid[:k].sum() + valid[k, : r + 1].sum())
            i, j = int(on[lo + k, x[r]]), int(on[lo + k, y[r]])
            named = {f"{kind}_a": elements[i], f"{kind}_b": elements[j], host_kind: hosts[lo + k]}
            ce = _line_in_plane_issue(s, m, **{key: labels_of(s, e) for key, e in named.items()})
            return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined})
    return CheckReport(name, PASS, stats={"cases_examined": examined})
