"""Exhaustive theorem verifiers and the derived-geometry axiom battery.

Every verifier quantifies exhaustively from the raw definitions.  They
share the perp/bracket/sigma primitives, the tables below and the two
triad passes, which judge six checks in one walk; the oracle tests judge
each check on its own, from the adjacency matrix alone, so a bug in what
they share cannot silently satisfy a check.  On any structure where the
axiom checks all pass, every verifier here must pass as well; that
cross-validation is the package's main self-test.

Every pass is exhaustive.  A quantifier ranges over its support, the only
tuples that can violate it, rather than over every triple of lines; each
such verifier's docstring proves its reduction.  A failing report names
the lexicographically least violation, the same one an unrestricted loop
would meet first.  Vacuous hypotheses report a pass, never an error.

Six checks quantify over every triad, and a triad lies in the perp of its
bracket, an element.  So ``_walk`` takes, element by element in bounded
runs, the triples of each element's perp, their sigma memberships and
whether each one's bracket is that element; no triad is kept.  Two passes
share it and cache each check's verdict for its checker: ``_triads``, one
walk per structure, and ``_model_triads``, one per structure and model.
``_ranked`` proves the rule that names the least violation of a walk that
is not in lexicographic order, and counts the cases below it.

The checks over incident pairs read one table per structure,
``core.perp_table``: each pair's perp among the distinct perps, and each
perp's lines with their skew rows as packed words, its sigma set and
sigma's split into two classes, which the per-perp kernels trust: they
walk only the perps that do not split.  The pair-to-perp index reads
every per-pair set, each kept as one packed row per perp: sigma, and the
model's point and plane classes, from ``_labeled_classes``.  The model
checks read each point and plane as a row of ``labeling.model_index``,
among the derived elements, and through those rows the labeling's one
``shared_lines`` table: how many lines every two elements share, and the
line where they share exactly one.  The three point-triple checks share
one pass, ``_point_triples``: it walks the non-collinear point triples in
runs, one per last point, with their sides from that table, and keeps no
triple.

The costliest checks run array kernels, and every kernel judges as those
of axioms 2.2 and 2.3 do: it computes the check's predicate for every
item it walks, so the first it flags is the least violation, and the
report is read from its arrays, or named from the definitions at that
item.  No kernel hands an item to a scalar walk of its check; the
replayers, which re-verify one counterexample, stay scalar.

Every check here registers itself in the one ordered table of checks,
``registry.CHECKS``, with ``@registered``: its layer ("theorems", or "vy"
for the derived-geometry battery), whether it needs the model, and its
replayer, defined just above it.  The table gives the check its place in
``run_theorem_suite``, ``run_vy_battery`` and ``check``, and its replay;
adding a check takes no other edit.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .axioms import _replay_not_two_classes, _resolve
from .core import (
    IncidenceStructure,
    _words,
    bit_rows,
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
    _labeled_split,
    _line_incidence,
    _unique_element,
    element_masks,
    model_index,
    shared_lines,
)
from .registry import FAIL, PASS, CheckReport, _dependency, names, registered, replay, run_checks
from .sigma import NotTwoClassesError, sigma_mask, sigma_partition


_WALK_TRIPLES = 1 << 12  # triples per run of the element walk
_CELLS_PER_STEP = 1 << 20  # cells per step of the exchange rows and the A3 joins


def _walk(s: IncidenceStructure):
    """The triples of every element's perp, in runs of at most ``_WALK_TRIPLES``.

    The elements come in order, and the triples of each one's perp, E's,
    in ``itertools.combinations`` order.  Each run is (e, place, triples,
    held, same): per triple its element, its place in that element's walk,
    its lines as a (R, 3) int32 array, ascending, its sigma memberships as
    a (3, R) bool array (a in sigma(b, c), b in sigma(c, a), c in
    sigma(a, b)), and whether its bracket is E.

    A triad T with bracket E lies in perp(E), since each of its lines meets
    all of E = perp(T); so the walk meets every triad once, under its own
    bracket, where ``held`` holds somewhere and ``same`` is true.  Any
    triple of perp(E) has E inside its bracket, and a triad's bracket is an
    element, so E itself when no other element holds all of E.  Every other
    triple ANDs its lines' packed adjacency rows to compare its bracket.
    """
    table, emasks = perp_table(s), element_masks(s)
    words, element_words = _words(s.adjacency), _words(_line_incidence(s, emasks))
    inside_other = np.array([((element_words & w) == w).all(axis=1).sum() > 1 for w in element_words], bool)
    combos: dict[int, np.ndarray] = {}  # size -> its 3-subsets as index triples, in walk order

    def run(parts):
        e, place, triples = map(np.concatenate, zip(*parts))
        held = table.holds(table.sigma, triples.T[[1, 2, 0]], triples.T[[2, 0, 1]], triples.T)  # bc, ca, ab
        same = np.ones(len(e), bool)
        check = np.flatnonzero(~held.any(axis=0) | inside_other[e])
        a, b, c = triples[check].T
        same[check] = ((words[a] & words[b] & words[c]) == element_words[e[check]]).all(axis=1)
        return e, place, triples, held, same

    parts, size = [], 0
    for e, element in enumerate(emasks):
        inside = np.array(lines_of_mask(perp_mask(s, element)), np.int32)
        if len(inside) not in combos:
            flat = itertools.chain.from_iterable(itertools.combinations(range(len(inside)), 3))
            combos[len(inside)] = np.fromiter(flat, np.intp).reshape(-1, 3)
        walk = combos[len(inside)]
        for lo in range(0, len(walk), _WALK_TRIPLES):
            if size + min(len(walk) - lo, _WALK_TRIPLES) > _WALK_TRIPLES:
                yield run(parts)
                parts, size = [], 0
            triples = inside[walk[lo : lo + _WALK_TRIPLES]]
            parts.append((np.full(len(triples), e), lo + np.arange(len(triples)), triples))
            size += len(triples)
    if parts:
        yield run(parts)


def _keep_least(found: list, rows: np.ndarray, *columns: np.ndarray) -> None:
    """Add to ``found`` the lexicographically least of ``rows``, as (*row,
    *columns at it); nothing if there is none."""
    if len(rows):
        i = np.lexsort(rows.T[::-1])[0]
        found.append((*rows[i].tolist(), *(c[i].item() for c in columns)))


def _ranked(walk, found: dict) -> dict:
    """The rank rule of the three passes.

    Each pass walks its triples in runs and keeps, per check, each run's
    least violation and the least of those, which is the least violation of
    all: each violation is a triple met in some run, not below that run's
    least.  A walk in lexicographic order meets it first, after every
    triple below it.  So one more walk, taken only when a check fails,
    counts them: ``walk`` yields each run's triples and, per check of
    ``found``, named with its triple, each triple's cases, which are 0 where
    the pass meets a triple again; the result is, per check, the cases
    below that triple.
    """
    below = dict.fromkeys(found, 0)
    for triples, cases in walk if found else ():
        a, b, c = triples.T
        for name, (x, y, z) in found.items():
            before = (a < x) | (a == x) & ((b < y) | (b == y) & (c < z))
            below[name] += int(cases[name][before].sum())
    return below


def _triads(s: IncidenceStructure) -> dict:
    """The structure pass: one walk judges the four structure-level triad checks; cached.

    Per check, (its least violation or None, its report's stat), ranked by
    ``_ranked`` with a triad one case; also "triads", their number, and
    "first", each element's least triad.  Each check's docstring says what
    it flags.
    """

    def build():
        emasks = element_masks(s)
        count = len(emasks)
        order = sorted(range(count), key=emasks.__getitem__)  # the elements by their masks
        rank = np.argsort(order)
        holding = _words(_line_incidence(s, emasks)[order].T)  # bit r of row l: element order[r] holds l
        first = np.full((count, 3), -1, np.int32)
        total, walked = 0, np.zeros(count, np.int64)
        stop = np.full(count, np.iinfo(np.int64).max)  # the place of each element's first coherence violation
        runs = {name: [] for name in ("thm_sigma_equivalence", "thm_coherence", "thm_mutual_membership")}
        for e, place, triples, held, same in _walk(s):
            triad = held.any(axis=0)
            own = triad & same
            walked += np.bincount(e, minlength=count)
            total += int(own.sum())
            new, at = np.unique(e[own], return_index=True)
            fresh = first[new, 0] < 0
            first[new[fresh]] = triples[own][at[fresh]]
            bad = own & ~held.all(axis=0)
            _keep_least(runs["thm_sigma_equivalence"], triples[bad], *held[:, bad])
            bad = ~triad & same
            np.minimum.at(stop, e[bad], place[bad])
            _keep_least(runs["thm_coherence"], triples[bad], e[bad])
            mine = np.flatnonzero(own)
            a, b, c = triples[mine].T
            rows = holding[a] & holding[b] & holding[c]
            mark = rank[e[mine]]
            rows[np.arange(len(mine)), mark >> 6] &= ~(np.uint64(1) << (mark & 63).astype(np.uint64))
            foreign = rows.any(axis=1)
            bad = mine[foreign]
            keyed = np.column_stack((least_bits(rows[foreign]), triples[bad]))  # the least foreign element first
            _keep_least(runs["thm_mutual_membership"], keyed, e[bad])
        delta = [perp_mask(s, B) ^ B for B in emasks]
        runs["thm_bracket_closed"] = [(*first[e].tolist(), delta[e]) for e in range(count) if delta[e]]
        least = {name: min(found, default=None) for name, found in runs.items()}
        ranked = ("thm_sigma_equivalence", "thm_bracket_closed")
        found = {name: least[name][:3] for name in ranked if least[name]}
        below = _ranked(((t, dict.fromkeys(found, h.any(axis=0) & same)) for _, _, t, h, same in _walk(s)), found)
        return {
            "triads": total,
            "first": first,
            **{name: (least[name], below[name] + 1 if name in below else total) for name in ranked},
            "thm_coherence": (least["thm_coherence"], int((np.minimum(stop, walked - 1) + 1).sum())),
            "thm_mutual_membership": (least["thm_mutual_membership"], total),
        }

    return s.cached("triads", build)


def _labeled_classes(m: GeometryModel) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The labeled classes of every perp of the model's structure; cached.

    Entry k of the list is perp k's (point class mask, plane class mask),
    and a last entry (0, 0) is what the pair-to-perp index's -1 reads; the
    array holds the point classes and the plane classes as ``bit_rows``.
    Each class's kind is its element's in the model, from
    ``labeling._labeled_split``; the first perp whose classes are not one
    point and one plane raises there, else MissingElementError here.
    """
    s = m.structure

    def build():
        table = perp_table(s)
        kind = model_index(s, m).kind[: len(element_masks(s))]  # the elements are its first rows
        two, bad = _labeled_split(s, kind)
        if bad is not None:
            a, b = table.pairs[table.first[bad]].tolist()
            where = f"({s.labels[a]}, {s.labels[b]})"
            if two[bad].min() < 0:
                raise MissingElementError(f"bracket of sigma class of {where} is not an element of the model")
            raise MissingElementError(f"both sigma classes of {where} map to {('point', 'plane')[two[bad, 0]]}s")
        per_perp = [c[::-1] if k else c for c, k in zip(table.classes, two[:, 0].tolist())]
        rows = np.stack([bit_rows([c[i] for c in per_perp], s.line_count) for i in (0, 1)])
        return per_perp + [(0, 0)], rows

    return s.cached(("labeled_classes", m.points, m.planes), build)


def _classes_at(m: GeometryModel, x: int, y: int) -> tuple[int, int]:
    """The labeled (point class, plane class) of the pair {x, y}; both
    empty unless it is an incident pair of the model's structure."""
    return _labeled_classes(m)[0][perp_table(m.structure).index[x, y]]


def _in_sigma(s: IncidenceStructure, x: int, y: int, z: int) -> bool:
    """Whether z lies in sigma(x, y), from the definitions."""
    return x != y and bool(s.adjacency[x, y]) and bool(sigma_mask(s, x, y) >> z & 1)


# ---------------------------------------------------------------------------
# Structure-level theorems


def _replay_sigma_equivalence(s: IncidenceStructure, ce: dict) -> bool:
    a, b, c = _resolve(s, ce["triple"])
    vals = (_in_sigma(s, b, c, a), _in_sigma(s, c, a, b), _in_sigma(s, a, b, c))
    return not (vals[0] == vals[1] == vals[2])


@registered("theorems", replay=_replay_sigma_equivalence)
def thm_sigma_equivalence(s: IncidenceStructure) -> CheckReport:
    """The three sigma memberships of any triple agree (all hold or none).

    Reduction: a disagreeing triple has one membership that holds, so it is
    a triad.  Kernel: the structure pass, ``_triads``, flags the triads
    that do not hold all three memberships and names the least.
    """
    name = "thm_sigma_equivalence"
    found, examined = _triads(s)[name]
    stats = {"triads_examined": examined}
    if found is None:
        return CheckReport(name, PASS, stats=stats)
    *triple, m1, m2, m3 = found
    ce = {"triple": labels_of(s, triple), "a_in_sigma_bc": m1, "b_in_sigma_ca": m2, "c_in_sigma_ab": m3}
    return CheckReport(name, FAIL, counterexample=ce, stats=stats)


@registered("theorems", replay=_replay_not_two_classes)
def thm_two_classes(s: IncidenceStructure) -> CheckReport:
    """Incidence on every sigma(a, b) splits into exactly two classes.

    Kernel: the split depends only on perp({a, b}), so it is read per
    distinct perp from ``core.perp_table``; the first pair whose perp does
    not split fails, and ``sigma_partition`` names its witness.
    """
    name = "thm_two_classes"
    table = perp_table(s)
    stats = {"pairs_examined": len(table.pairs)}
    unsplit = np.flatnonzero(~table.split[table.perp])
    if len(unsplit):
        try:
            sigma_partition(s, *table.pairs[unsplit[0]].tolist())
        except NotTwoClassesError as e:
            return CheckReport(name, FAIL, counterexample=dict(e.witness), stats=stats)
    if table.classes:
        stats["class_size_pairs"] = sorted({(c0.bit_count(), c1.bit_count()) for c0, c1 in table.classes})
    return CheckReport(name, PASS, stats=stats)


def _replay_bracket_welldefined(s: IncidenceStructure, ce: dict) -> bool:
    masks = s.masks
    a, b = _resolve(s, ce["pair"])
    c1, c2 = s.index(ce["c1"]), s.index(ce["c2"])
    sig = sigma_mask(s, a, b)
    inside = bool((sig >> c1) & 1 and (sig >> c2) & 1 and s.adjacency[c1, c2])
    base = masks[a] & masks[b]
    return inside and (base & masks[c1]) != (base & masks[c2])


@registered("theorems", replay=_replay_bracket_welldefined)
def thm_bracket_welldefined(s: IncidenceStructure) -> CheckReport:
    """Incident members of one sigma set give equal brackets over the pair.

    Reduction: depends only on perp({a, b}), so it is judged once per
    distinct perp, and each pair adds its perp's cases.  Kernel: the
    bracket of c over the pair is the perp less the skew row of c, so two
    incident members of sigma, each pair of them a case, give equal
    brackets iff their skew rows are equal; the first case, in order of the
    perps' first pairs and then lexicographic, with unequal rows fails.  A
    perp whose sigma splits has none: two incident members of sigma lie in
    one class, and each one's row is the other class.
    """
    name = "thm_bracket_welldefined"
    table = perp_table(s)
    hit, cases = table.first_flagged(
        lambda k, x, y: (table.skew[k, x] != table.skew[k, y]).any(axis=1), incident=True
    )
    if hit is None:
        return CheckReport(name, PASS, stats={"cases_examined": cases})
    k, x, y = hit
    lines = table.lines[k].tolist()
    return CheckReport(
        name,
        FAIL,
        counterexample={
            "pair": labels_of(s, table.pairs[table.first[k]].tolist()),
            "c1": s.labels[lines[x]],
            "c2": s.labels[lines[y]],
            "differs_on": labels_of(s, table.lines_at(k, table.skew[k, x] ^ table.skew[k, y])),
        },
        stats={"cases_examined": cases},
    )


def _replay_line_selfperp(s: IncidenceStructure, ce: dict) -> bool:
    l = s.index(ce["line"])
    return perp_mask(s, s.masks[l]) != 1 << l


@registered("theorems", replay=_replay_line_selfperp)
def thm_line_selfperp(s: IncidenceStructure) -> CheckReport:
    """The double perp of a single line is that line alone."""
    name = "thm_line_selfperp"
    for l in range(s.line_count):
        dd = perp_mask(s, s.masks[l])
        if dd != 1 << l:
            return CheckReport(
                name,
                FAIL,
                counterexample={
                    "line": s.labels[l],
                    "double_perp": labels_of(s, lines_of_mask(dd)),
                },
                stats={"lines_examined": l + 1},
            )
    return CheckReport(name, PASS, stats={"lines_examined": s.line_count})


def _replay_regulus_skew(s: IncidenceStructure, ce: dict) -> bool:
    adj = s.adjacency
    u, v, w = _resolve(s, ce["triple"])
    x, y = s.index(ce["m"]), s.index(ce["n"])
    skew_triple = not (adj[u, v] or adj[v, w] or adj[u, w])
    B = perp_mask(s, mask_of_lines((u, v, w)))
    inside = bool((B >> x) & 1 and (B >> y) & 1)
    return skew_triple and inside and x != y and bool(adj[x, y])


@registered("theorems", replay=_replay_regulus_skew)
def thm_regulus_skew(s: IncidenceStructure) -> CheckReport:
    """The bracket of a pairwise-skew triple is itself pairwise skew.

    Reduction: an incident pair lies in a triple's bracket exactly when the
    triple lies in the pair's perp, so the least violating triple is the
    least pairwise-skew triple of any perp, and each distinct perp is
    searched once.  Kernel: per skew pair x < y of a perp, the lines skew
    to both, the AND of their skew rows, above y complete it to a skew
    triple, the least of them to the least such triple; the least of those
    triples over every perp is the violation.  A perp whose sigma splits
    holds no skew triple, as its skew graph is bipartite, so only the perps
    that do not split are searched.
    """
    name = "thm_regulus_skew"
    table = perp_table(s)
    width = table.lines.shape[1]
    above = _words(np.triu(np.ones((width, width), bool), 1))  # row y: the places above y
    found = []
    for k, x, y in table.local_pairs(np.flatnonzero(~table.split)):
        z = least_bits(table.skew[k, x] & table.skew[k, y] & above[y])
        _keep_least(found, table.lines[k[z >= 0, None], np.stack((x, y, z), axis=1)[z >= 0]])
    least = min(found, default=None)
    stats = {"pairs_examined": len(table.pairs)}
    if least is None:
        return CheckReport(name, PASS, stats=stats)
    B = perp_mask(s, mask_of_lines(least))  # holds the incident pair whose perp holds the triple
    m, n = next((l, o) for l in lines_of_mask(B) for o in lines_of_mask(B & s.masks[l]) if o > l)
    ce = {"triple": labels_of(s, least), "m": s.labels[m], "n": s.labels[n]}
    return CheckReport(name, FAIL, counterexample=ce, stats=stats)


def _replay_bracket_closed(s: IncidenceStructure, ce: dict) -> bool:
    B = perp_mask(s, mask_of_lines(_resolve(s, ce["triad"])))
    return perp_mask(s, B) != B


@registered("theorems", replay=_replay_bracket_closed)
def thm_bracket_closed(s: IncidenceStructure) -> CheckReport:
    """Every triad's bracket equals its own perp.

    Reduction: depends only on the bracket, so each element is checked
    once; the least violation is the least of the elements' least triads
    whose element is not closed, named by the structure pass.
    """
    name = "thm_bracket_closed"
    found, examined = _triads(s)[name]
    stats = {"triads_examined": examined}
    if found is None:
        return CheckReport(name, PASS, stats=stats)
    *triad, delta = found
    ce = {"triad": labels_of(s, triad), "differs_on": labels_of(s, lines_of_mask(delta))}
    return CheckReport(name, FAIL, counterexample=ce, stats=stats)


def _replay_coherence(s: IncidenceStructure, ce: dict) -> bool:
    p, q, r = _resolve(s, ce["triple"])
    x, y, z = rep = _resolve(s, ce["triad_with_equal_bracket"])
    same = perp_mask(s, mask_of_lines((p, q, r))) == perp_mask(s, mask_of_lines(rep))
    rep_is_triad = _in_sigma(s, y, z, x) or _in_sigma(s, z, x, y) or _in_sigma(s, x, y, z)
    triple_is_triad = _in_sigma(s, q, r, p) or _in_sigma(s, p, r, q) or _in_sigma(s, p, q, r)
    return same and rep_is_triad and not triple_is_triad


@registered("theorems", replay=_replay_coherence)
def thm_coherence(s: IncidenceStructure) -> CheckReport:
    """A triple whose bracket equals a triad's bracket is itself a triad.

    Reduction: each line of a triple is incident to all of its bracket, so a
    triple whose bracket is element E lies in perp(E), walked per element in
    ``itertools.combinations`` order up to its first violation; the report
    names the least of those firsts.  Kernel: the structure pass; a triad
    never violates, so only the triples of perp(E) that are no triad take
    their bracket, from three packed adjacency rows.  An element's walk
    counts the triples up to its first triple with bracket E that is not a
    triad; an element with none adds all C(|perp(E)|, 3).
    """
    name = "thm_coherence"
    verdicts = _triads(s)
    found, examined = verdicts[name]
    if found is None:
        return CheckReport(name, PASS, stats={"cases_examined": examined, "triads": verdicts["triads"]})
    *triple, e = found
    ce = {"triple": labels_of(s, triple), "triad_with_equal_bracket": labels_of(s, verdicts["first"][e].tolist())}
    return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined})


def _replay_mutual_membership(s: IncidenceStructure, ce: dict) -> bool:
    ta = _resolve(s, ce["triad_a"])
    tb = _resolve(s, ce["triad_b"])
    ba, bb = perp_mask(s, mask_of_lines(ta)), perp_mask(s, mask_of_lines(tb))
    inside_ab = not (mask_of_lines(tb) & ~ba)
    inside_ba = not (mask_of_lines(ta) & ~bb)
    if ce["issue"] == "membership_not_symmetric":
        return inside_ab != inside_ba
    return inside_ab and inside_ba and ba != bb


@registered("theorems", replay=_replay_mutual_membership)
def thm_mutual_membership(s: IncidenceStructure) -> CheckReport:
    """Containment between two triads is symmetric and forces equal brackets.

    Reduction: a triad lies in its own bracket, so the claim holds iff every
    triad lies in exactly one element; a triad j inside another element,
    the bracket of triad i, is the violation (i, j).  The reported pair is
    the least by (that bracket as a bitmask, i, j).  Kernel: in the
    structure pass, the AND of a triad's lines' rows of the element-holding
    bit matrix, less its own element, holds the other elements it lies in;
    the least such element, by mask, and j the least triad it holds are
    kept, and i is the least triad of that element.
    """
    name = "thm_mutual_membership"
    verdicts, emasks = _triads(s), element_masks(s)
    found, examined = verdicts[name]
    stats = {"triads_examined": examined}
    if found is None:
        return CheckReport(name, PASS, stats=stats)
    rank, *j, own = found
    i = verdicts["first"][sorted(range(len(emasks)), key=emasks.__getitem__)[rank]].tolist()
    issue = "membership_not_symmetric" if mask_of_lines(i) & ~emasks[own] else "contained_but_brackets_differ"
    ce = {"triad_a": labels_of(s, i), "triad_b": labels_of(s, j), "issue": issue}
    return CheckReport(name, FAIL, counterexample=ce, stats=stats)


# ---------------------------------------------------------------------------
# Model-level theorems


def _triad_sides(m: GeometryModel, a: int, b: int, c: int) -> tuple:
    """Per line of triad (a, b, c), the labeled class of the sigma set of
    the other two that holds it, as a Kind, or None."""

    def side(x, y, third):
        pc, qc = _classes_at(m, x, y)
        if (pc >> third) & 1:
            return Kind.POINT
        if (qc >> third) & 1:
            return Kind.PLANE
        return None

    return side(b, c, a), side(c, a, b), side(a, b, c)


def _replay_triad_typing(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    sides = _triad_sides(m, *_resolve(s, ce["triad"]))
    return sides[0] is None or len(set(sides)) != 1


def _model_triads(s: IncidenceStructure, m: GeometryModel) -> dict:
    """The model pass: one walk judges ``thm_triad_typing`` and ``thm_exchange``; cached.

    As ``_triads``; the exchange violation is (triad, bracket, its failing
    row's two lines or None), and its cases weigh each triad below it by
    its bracket's rows.  Raises what ``_labeled_classes`` raises.
    """

    def build():
        refined = _labeled_classes(m)[1]
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
        return {"thm_triad_typing": (typing, typed), "thm_exchange": ((triad, k, pair), examined)}

    return s.cached(("triads", m), build)


@registered("theorems", model=True, replay=_replay_triad_typing)
def thm_triad_typing(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Each triad sits uniformly on the point side or the plane side.

    Kernel: a line's side in sigma(x, y) is the point side if it lies in
    the point class, else the plane side if it lies in the plane class.  A
    triad passes iff its three lines all take the point side or all the
    plane side; the model pass, ``_model_triads``, names the least that
    does not.
    """
    name = "thm_triad_typing"
    try:
        found, examined = _model_triads(s, m)[name]
    except (NotTwoClassesError, MissingElementError) as e:
        return _dependency(name, e)
    stats = {"triads_examined": examined}
    if found is None:
        return CheckReport(name, PASS, stats=stats)
    ce = {"triad": labels_of(s, found), "sides": [x.value if x else None for x in _triad_sides(m, *found)]}
    return CheckReport(name, FAIL, counterexample=ce, stats=stats)


def _replay_point_ne_plane(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    e = tuple(sorted(_resolve(s, ce["element"])))
    return e in set(m.points) and e in set(m.planes)


@registered("theorems", model=True, replay=_replay_point_ne_plane)
def thm_point_ne_plane(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """No line set is both a point and a plane of the model."""
    name = "thm_point_ne_plane"
    overlap = set(m.points) & set(m.planes)
    stats = {"points": len(m.points), "planes": len(m.planes)}
    if overlap:
        worst = min(overlap)
        return CheckReport(
            name,
            FAIL,
            counterexample={"element": labels_of(s, worst)},
            stats=stats,
        )
    return CheckReport(name, PASS, stats=stats)


def _pencil_issue(s: IncidenceStructure, m: GeometryModel, a: int, b: int) -> Optional[dict]:
    """The counterexample of thm_pencil_intersection at the incident pair
    a < b, from the definitions, or None when the pair passes."""
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


def _replay_pencil_intersection(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    got = _pencil_issue(s, m, *sorted(_resolve(s, ce["pair"])))
    return got is not None and ("issue" in got) == ("issue" in ce)  # the same kind of failure


@registered("theorems", model=True, replay=_replay_pencil_intersection)
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
    try:
        classes = _labeled_classes(m)[0]
    except (NotTwoClassesError, MissingElementError) as e:
        return _dependency(name, e)
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
    ce = _pencil_issue(s, m, *table.pairs[p].tolist())
    return CheckReport(name, FAIL, counterexample=ce, stats={"pairs_examined": p + 1})


def _replay_exchange(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    t = _resolve(s, ce["triad"])
    issue = ce["issue"]
    B = perp_mask(s, mask_of_lines(t))
    if issue == "bracket_not_an_element":
        return B not in m.point_masks + m.plane_masks
    x, y = s.index(ce["x"]), s.index(ce["y"])
    inside = bool((B >> x) & 1 and (B >> y) & 1)
    if issue == "skew_pair_in_bracket":
        return inside and not s.adjacency[x, y]
    t_mask = mask_of_lines(t)
    if issue == "sigma_misses_triad":
        return inside and not (sigma_mask(s, x, y) & t_mask)
    pc, qc = _classes_at(m, x, y)
    refined = pc if ce["kind"] == "point" else qc
    return inside and not (refined & t_mask)


@registered("theorems", model=True, replay=_replay_exchange)
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
    try:
        found, examined = _model_triads(s, m)[name]
    except (NotTwoClassesError, MissingElementError) as e:
        return _dependency(name, e)
    if found is None:
        return CheckReport(name, PASS, stats={"cases_examined": examined})
    triad, k, pair = found
    ce = {"triad": labels_of(s, triad), "issue": "bracket_not_an_element"}
    if pair is not None:
        u, v = pair
        ce = {"triad": ce["triad"], "x": s.labels[u], "y": s.labels[v]}
        if not s.adjacency[u, v]:
            ce["issue"] = "skew_pair_in_bracket"
        elif not any(_in_sigma(s, u, v, z) for z in triad):
            ce["issue"] = "sigma_misses_triad"
        else:
            ce.update(kind="point" if model_index(s, m).kind[k] == 0 else "plane", issue="refined_class_misses_triad")
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


def _replay_not_singleton(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    p = tuple(sorted(_resolve(s, ce["point"])))
    q = tuple(sorted(_resolve(s, ce["plane"])))
    if p not in set(m.points) or q not in set(m.planes):
        return False
    return (mask_of_lines(p) & mask_of_lines(q)).bit_count() == 1


@registered("theorems", model=True, replay=_replay_not_singleton)
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
    ce = {
        "point": labels_of(s, m.points[i]),
        "plane": labels_of(s, m.planes[j]),
        "common": labels_of(s, lines_of_mask(m.point_masks[i] & m.plane_masks[j])),
    }
    return CheckReport(name, FAIL, counterexample=ce, stats={"pairs_examined": int(bad[0]) + 1})


def _replay_uniqueness(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    family = m.points if ce["kind"] == "point" else m.planes
    ea = tuple(sorted(_resolve(s, ce["element_a"])))
    eb = tuple(sorted(_resolve(s, ce["element_b"])))
    if ea == eb or ea not in set(family) or eb not in set(family):
        return False
    return (mask_of_lines(ea) & mask_of_lines(eb)).bit_count() > 1


@registered("theorems", model=True, replay=_replay_uniqueness)
def thm_uniqueness(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Two distinct same-kind elements share at most one line (both kinds)."""
    name = "thm_uniqueness"
    index = model_index(s, m)
    count = shared_lines(s, index.masks)[0]
    examined = 0
    for kind, masks, rows in (("point", m.point_masks, index.points), ("plane", m.plane_masks, index.planes)):
        hit, pairs = _first_pair(count[np.ix_(rows, rows)] > 1)
        examined += pairs
        if hit is not None:
            a, b = masks[hit[0]], masks[hit[1]]
            ce = {
                "kind": kind,
                "element_a": labels_of(s, lines_of_mask(a)),
                "element_b": labels_of(s, lines_of_mask(b)),
                "common": labels_of(s, lines_of_mask(a & b)),
            }
            return CheckReport(name, FAIL, counterexample=ce, stats={"pairs_examined": examined})
    return CheckReport(name, PASS, stats={"pairs_examined": examined})


def _replay_line_in_plane(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    kind, host_kind = ("point", "plane") if "point_a" in ce else ("plane", "point")
    a = mask_of_lines(_resolve(s, ce[f"{kind}_a"]))
    b = mask_of_lines(_resolve(s, ce[f"{kind}_b"]))
    if ce["issue"].endswith("without_unique_common_line"):
        return (a & b).bit_count() != 1
    host = mask_of_lines(_resolve(s, ce[host_kind]))
    l = s.index(ce["line"])
    return bool(a & host) and bool(b & host) and (a & b) == 1 << l and not ((host >> l) & 1)


@registered("theorems", model=True, replay=_replay_line_in_plane)
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
    for kind, host_kind, where in (("point", "plane", "in_plane"), ("plane", "point", "through_point")):
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
            ce = {f"{kind}_a": labels_of(s, elements[i]), f"{kind}_b": labels_of(s, elements[j])}
            if common[i, j] >= 0:
                ce[host_kind] = labels_of(s, hosts[lo + k])
                ce["line"] = s.labels[common[i, j]]
                ce["issue"] = f"common_line_not_{where}"
            else:
                ce["issue"] = f"{kind}s_without_unique_common_line"
            return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined})
    return CheckReport(name, PASS, stats={"cases_examined": examined})


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
    order, with their sides jk, ki and ij (-1 where two points do not share
    exactly one line) and their plane: the one model plane sharing a line
    with all three points, kept where its mask is the sides' bracket, else
    -1.  Against point k, the earlier points' lines and meeting planes are
    packed words, and the AND of two points' words holds what all three
    share.
    """

    def build():
        index = model_index(s, m)
        count, line = shared_lines(s, index.masks)
        n, P, adj = s.line_count, len(m.points), s.adjacency
        pts, line = index.incidence[index.points], line[np.ix_(index.points, index.points)]
        meets = count[np.ix_(index.points, index.planes)] > 0
        try:
            plane_rows = _labeled_classes(m)[1][1]
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

        def runs():
            for k in range(2, P):
                lines, planes = _words(pts[:k, pts[k]]), _words(meets[:k, meets[k]])
                i, j = np.nonzero(np.triu(~(lines[:, None] & lines).any(axis=2), 1))
                one = only_bits(planes[i] & planes[j])  # the place of the one plane meeting all three
                plane = np.append(np.flatnonzero(meets[k]), -1)[one]  # -1: none or several
                sides = np.stack((line[j, k], line[k, i], line[i, j]), axis=1)
                bracket = words[sides[:, 0]] & words[sides[:, 1]]  # where a side is -1, read as no line
                bracket &= words[sides[:, 2]]
                plane[(sides.min(axis=1) < 0) | (bracket != plane_words[plane]).any(axis=1)] = -1
                yield np.stack((i, j, np.full_like(i, k)), axis=1), sides, plane, bracket

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
            step = max(1, _CELLS_PER_STEP // (on.shape[1] ** 2 + words.shape[1]))
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
            _keep_least(first, triples[:1], vertex[:1])
            triples_total, cases_total = triples_total + len(triples), cases_total + int(cases.sum())
        least = {name: min(kept, default=None) for name, kept in found.items()}
        walk = ((t, {**dict.fromkeys(found, np.ones(len(t), int)), "vy_a3": a3(sides)[0]}) for t, sides, *_ in runs())
        below = _ranked(walk, {name: v[:3] for name, v in least.items() if v})
        below = {"thm_triangle": triples_total, "thm_tetrahedron": triples_total, "vy_a3": cases_total, **below}
        return {"first": min(first, default=None), **{name: (v, below[name]) for name, v in least.items()}}

    return s.cached(("point_triples", m), build)


def _point_labels(s, m, points) -> list:
    return [labels_of(s, m.points[x]) for x in points]


def _triangle_issue(s: IncidenceStructure, m: GeometryModel, points: list) -> Optional[dict]:
    """The first test of ``thm_triangle`` that three points sharing no line
    fail, from the definitions, as the counterexample's issue and fields;
    None when they form a triangle.  ``points`` are their masks."""
    masks, (A, B, C) = s.masks, points
    sides = (B & C, C & A, A & B)
    if any(side.bit_count() != 1 for side in sides):
        return {"issue": "points_without_unique_common_line"}
    a, b, c = (side.bit_length() - 1 for side in sides)
    if len({a, b, c}) != 3:
        return {"issue": "side_lines_not_distinct"}
    if not (masks[a] >> b & 1 and masks[b] >> c & 1 and masks[a] >> c & 1):
        return {"issue": "side_lines_not_pairwise_incident"}
    for third, u, v in ((a, b, c), (b, c, a), (c, a, b)):
        if not _classes_at(m, u, v)[1] >> third & 1:
            return {"issue": "side_not_in_plane_class", "line": s.labels[third], "of_pair": labels_of(s, (u, v))}
    bracket = masks[a] & masks[b] & masks[c]
    if bracket not in m.plane_masks:
        return {"issue": "bracket_not_a_plane"}
    through = [p for p in m.plane_masks if p & A and p & B and p & C]
    if through != [bracket]:
        return {"issue": "common_plane_not_unique", "planes_through": len(through)}
    return None


def _replay_triangle(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    points = [mask_of_lines(_resolve(s, p)) for p in ce["points"]]
    if not set(points) <= set(m.point_masks) or points[0] & points[1] & points[2]:
        return False
    return _triangle_issue(s, m, points) == {key: v for key, v in ce.items() if key != "points"}


@registered("theorems", model=True, replay=_replay_triangle)
def thm_triangle(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Three non-collinear points form a triangle with a unique common plane.

    Kernel: the point-triple pass, ``_point_triples``, proves a triple iff
    its sides are distinct and pairwise incident, each lies in the plane
    class of the other two, and its run names its plane.  The last is the
    scalar pair of tests "the sides' bracket is a plane p" and "exactly p
    meets all three points": a second plane with p's mask would meet them
    too.  So the pass flags exactly the triples that fail, and the least is
    named by the first test of ``_triangle_issue`` it fails.
    """
    name = "thm_triangle"
    try:
        _labeled_classes(m)
    except (NotTwoClassesError, MissingElementError) as e:
        return _dependency(name, e)
    found, examined = _point_triples(s, m)[name]
    if found is None:
        return CheckReport(name, PASS, stats={"cases_examined": examined})
    triple = found[:3]
    ce = {"points": _point_labels(s, m, triple), **_triangle_issue(s, m, [m.point_masks[x] for x in triple])}
    return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined + 1})


def _replay_tetrahedron(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    masks, adj = s.masks, s.adjacency
    A, B, C = points = [mask_of_lines(_resolve(s, p)) for p in ce["points"]]
    if not set(points) <= set(m.point_masks) or A & B & C:
        return False
    sides = [B & C, C & A, A & B]
    if any(side.bit_count() != 1 for side in sides):
        return ce["issue"] == "points_without_unique_common_line"
    sides = [side.bit_length() - 1 for side in sides]
    base = masks[sides[0]] & masks[sides[1]] & masks[sides[2]]
    for o in m.point_masks:
        edges = [o & p for p in points]
        if o & base or any(edge.bit_count() != 1 for edge in edges):
            continue
        six = sides + [edge.bit_length() - 1 for edge in edges]
        if len(set(six)) == 6 and all(adj[six[x], six[y]] != ((x, y) in _TETRA_SKEW) for x, y in _TETRA_PAIRS):
            return False
    return ce["issue"] == "no_completing_vertex"


@registered("theorems", model=True, replay=_replay_tetrahedron)
def thm_tetrahedron(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """Every triangle extends to a four-vertex figure with the six-line pattern.

    For each non-collinear point triple there must be a point off its
    plane, sharing no line with the bracket of its sides, whose three
    connecting edges complete six distinct lines, pairwise incident except
    the three opposite pairs; the least such point is the triple's vertex.

    Kernel: the point-triple pass, ``_point_triples``, a run at a time.
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
        issue = "no_completing_vertex" if min(found[3:]) >= 0 else "points_without_unique_common_line"
        ce = {"points": _point_labels(s, m, found[:3]), "issue": issue}
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


@registered("vy", model=True)
def vy_e0(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E0: at least three points on every line."""
    counts = _points_on_lines(s, m)
    bad = next((l for l, c in enumerate(counts) if c < 3), None)
    stats = {"lines_examined": s.line_count}
    if bad is not None:
        ce = {"line": s.labels[bad], "points_on_line": counts[bad]}
        return CheckReport("vy_e0", FAIL, counterexample=ce, stats=stats)
    if counts:
        stats["min_points_on_line"] = min(counts)
        stats["max_points_on_line"] = max(counts)
    return CheckReport("vy_e0", PASS, stats=stats)


@registered("vy", model=True)
def vy_e1(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E1: at least one line exists."""
    if s.line_count >= 1:
        return CheckReport("vy_e1", PASS, stats={"lines": s.line_count})
    return CheckReport("vy_e1", FAIL, counterexample={"reason": "no lines"}, stats={})


@registered("vy", model=True)
def vy_e2(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E2: not all points on one line."""
    pmasks = m.point_masks
    if not pmasks:
        return CheckReport("vy_e2", FAIL, counterexample={"reason": "no points"}, stats={})
    bad = next((l for l, c in enumerate(_points_on_lines(s, m)) if c == len(pmasks)), None)
    stats = {"points": len(pmasks)}
    if bad is not None:
        return CheckReport("vy_e2", FAIL, counterexample={"line": s.labels[bad]}, stats=stats)
    return CheckReport("vy_e2", PASS, stats=stats)


@registered("vy", model=True)
def vy_e3(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E3: for every plane, some point off it (none when there are no points)."""
    index = model_index(s, m)
    common = shared_lines(s, index.masks)[0][np.ix_(index.points, index.planes)]
    unavoidable = np.flatnonzero((common > 0).all(axis=0))
    stats = {"planes": len(m.plane_masks)}
    if len(unavoidable):
        ce = {"plane": labels_of(s, m.planes[int(unavoidable[0])])}
        return CheckReport("vy_e3", FAIL, counterexample=ce, stats=stats)
    return CheckReport("vy_e3", PASS, stats=stats)


def _pair_check(name: str, s: IncidenceStructure, m: GeometryModel, kind: str, violates) -> CheckReport:
    """Fails on the first two elements of one kind, in combinations order,
    whose counts of shared lines ``violates`` flags."""
    index = model_index(s, m)
    elements, rows = (m.points, index.points) if kind == "point" else (m.planes, index.planes)
    hit = _first_pair(violates(shared_lines(s, index.masks)[0][np.ix_(rows, rows)]))[0]
    stats = {f"{kind}s": len(elements)}
    if hit is None:
        return CheckReport(name, PASS, stats=stats)
    ce = {f"{kind}_a": labels_of(s, elements[hit[0]]), f"{kind}_b": labels_of(s, elements[hit[1]])}
    return CheckReport(name, FAIL, counterexample=ce, stats=stats)


@registered("vy", model=True)
def vy_e3p(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """E3': two distinct planes share a line."""
    return _pair_check("vy_e3p", s, m, "plane", lambda common: common == 0)


@registered("vy", model=True)
def vy_a1(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """A1: two distinct points share a line."""
    return _pair_check("vy_a1", s, m, "point", lambda common: common == 0)


@registered("vy", model=True)
def vy_a2(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """A2: two distinct points share at most one line."""
    return _pair_check("vy_a2", s, m, "point", lambda common: common > 1)


def _replay_vy_a3(s: IncidenceStructure, ce: dict, m: GeometryModel) -> bool:
    points = set(m.point_masks)
    named = {key: mask_of_lines(_resolve(s, ce[key])) for key in ("point_d", "point_e") if key in ce}
    if any(p not in points for p in named.values()):
        return False
    if ce.get("issue") == "joining_line_not_unique":
        return named["point_d"] != named["point_e"] and (named["point_d"] & named["point_e"]).bit_count() != 1
    A, B, C = (mask_of_lines(_resolve(s, p)) for p in ce["points"])
    sides = (B & C, C & A, A & B)
    if not {A, B, C} <= points or A & B & C:
        return False
    if ce.get("issue") == "points_without_unique_common_line":
        return any(side.bit_count() != 1 for side in sides)
    if any(side.bit_count() != 1 for side in sides):
        return False
    a, b, c = (side.bit_length() - 1 for side in sides)
    d, e, f = named["point_d"], named["point_e"], s.index(ce["joining_line"])
    on_sides = bool(d >> a & 1 and e >> b & 1) and d != e and d & e == 1 << f
    return on_sides and c == s.index(ce["ab_line"]) and not s.adjacency[c, f]


@registered("vy", model=True, replay=_replay_vy_a3)
def vy_a3(s: IncidenceStructure, m: GeometryModel) -> CheckReport:
    """A3: the line joining D on BC and E on CA meets AB.

    Kernel: the point-triple pass, ``_point_triples``.  Per side pair
    (a, b) of a run, the joins of a point on a and another point on b are
    read from ``shared_lines`` over padded arrays of the points on each
    line, and the lines meeting every join are the AND of their packed
    adjacency rows; a join that is not unique reads as the empty row.  A
    triple passes iff its joins are all unique and c is in that AND.  The
    sides a = jk and b = ki meet at the last point k, so a side pair's
    triples lie in one run, and the pairs are grouped per run.  The walk of
    the least triple flagged names its failing case.
    """
    found, examined = _point_triples(s, m)["vy_a3"]
    if found is None:
        return CheckReport("vy_a3", PASS, stats={"cases_examined": examined})
    *triple, a, b, c = found
    points = _point_labels(s, m, triple)
    if min(a, b, c) < 0:
        ce = {"points": points, "issue": "points_without_unique_common_line"}
    else:
        P = m.point_masks
        on_a, on_b = ([d for d, p in enumerate(P) if p >> x & 1] for x in (a, b))
        for examined, (d, e) in enumerate([(d, e) for d in on_a for e in on_b if d != e], examined + 1):
            join = P[d] & P[e]
            if join.bit_count() != 1 or not s.adjacency[c, join.bit_length() - 1]:
                break
        ends = {"point_d": labels_of(s, m.points[d]), "point_e": labels_of(s, m.points[e])}
        if join.bit_count() != 1:
            ce = {**ends, "issue": "joining_line_not_unique"}
        else:
            ce = {"points": points, **ends, "joining_line": s.labels[join.bit_length() - 1], "ab_line": s.labels[c]}
    return CheckReport("vy_a3", FAIL, counterexample=ce, stats={"cases_examined": examined})


VY_NAMES = names("vy")


def vy_axioms(s: IncidenceStructure, m: GeometryModel) -> list[CheckReport]:
    """The eight extension/alignment checks over the model's points and planes."""
    return run_checks(s, ("vy",), m)


def run_vy_battery(
    s: IncidenceStructure, m: Optional[GeometryModel] = None
) -> list[CheckReport]:
    """Run the eight derived-geometry checks, deriving a labeling if needed."""
    return run_checks(s, ("vy",), m)


def replay_theorem_counterexample(
    s: IncidenceStructure, report: CheckReport, m: Optional[GeometryModel] = None
) -> bool:
    """Re-evaluate a failing theorem report directly against the structure.

    Model-level reports need the same model they were produced against.
    Dispatches through the registry, like ``replay_counterexample``.
    """
    return replay(s, report, m)
