"""Exhaustive theorem verifiers: the shared walk, the structure pass and the
eight structure-level theorems.

Every verifier quantifies exhaustively from the raw definitions.  They
share the perp/bracket/sigma primitives, the tables below and the passes,
each of which judges several checks in one walk; the oracle tests judge
each check on its own, from the adjacency matrix alone, so a bug in what
they share cannot silently satisfy a check.  On any structure where the
axiom checks all pass, every verifier must pass as well; that
cross-validation is the package's main self-test.

Every pass is exhaustive.  A quantifier ranges over its support, the only
tuples that can violate it, rather than over every triple of lines; each
such verifier's docstring proves its reduction.  A failing report names
the lexicographically least violation, the same one an unrestricted loop
would meet first.  Vacuous hypotheses report a pass, never an error.

The verifiers live in three modules, one per pass, each importing only
the ones below it: this one, ``model_theorems`` and ``battery``.  A
constant or helper that tests patch has one owner module, through which
the modules above read it when a check runs.

Six checks quantify over every triad, and a triad lies in the perp of its
bracket, an element.  So ``_walk`` takes, element by element in bounded
runs, the triples of each element's perp, their sigma memberships and
whether each one's bracket is that element; no triad is kept.  Two passes
share it and cache each check's verdict for its checker: ``_triads``, here,
one walk per structure, and ``model_theorems._model_triads``, one per
structure and model.  ``_ranked`` proves the rule that names the least
violation of a walk that is not in lexicographic order, and counts the
cases below it.

The checks over incident pairs read one table per structure,
``core.perp_table``: each pair's perp among the distinct perps, and each
perp's sigma set and sigma's split into two classes, which the per-perp
kernels trust: they walk only the perps that do not split, the only ones
whose lines and skew rows the table keeps.  The pair-to-perp index reads
every per-pair set, each kept as one packed row per perp: sigma, and the
model's point and plane classes, from ``_labeled_classes``.

The costliest checks run array kernels, and every kernel judges as those
of axioms 2.2 and 2.3 do: it computes the check's predicate for every
item it walks, so the first it flags is the least violation, and the
report is read from its arrays, or named from the definitions at that
item.  No kernel hands an item to a scalar walk of its check.  Each check
names its counterexample, at the item its kernel flags, with one scalar
function from the definitions, which reads no kernel table but the element
set, and which its replay runs again.

Every check registers itself in the one ordered table of checks,
``registry.CHECKS``, with ``@registered``: its layer ("theorems", or "vy"
for the derived-geometry battery), its counterexample function, defined
just above it, and whether it needs the model.  The table gives the check
its place in ``run_theorem_suite``, ``vy_axioms`` and ``check``, and its
replay; adding a check takes no other edit.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .axioms import _resolve
from .core import (
    IncidenceStructure,
    _words,
    bit_rows,
    labels_of,
    least_bits,
    lines_of_mask,
    mask_of_lines,
    perp_mask,
    perp_table,
)
from .labeling import GeometryModel, MissingElementError, _labeled_split, _line_incidence, element_masks, model_index
from .registry import FAIL, PASS, CheckReport, registered
from .sigma import sigma_mask, sigma_partition, sigma_witness


_WALK_TRIPLES = 1 << 12  # triples per run of the element walk and per block of the point-triple walk


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
            _keep_least(runs["thm_sigma_equivalence"], triples[bad])
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
            _keep_least(runs["thm_mutual_membership"], keyed)
        runs["thm_bracket_closed"] = [tuple(first[e].tolist()) for e, B in enumerate(emasks) if perp_mask(s, B) != B]
        least = {name: min(found, default=None) for name, found in runs.items()}
        ranked = ("thm_sigma_equivalence", "thm_bracket_closed")
        found = {name: least[name] for name in ranked if least[name]}
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

    Entry k of the list is perp k's (point class mask, plane class mask);
    the array holds the point classes and the plane classes as ``bit_rows``.
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
        return per_perp, rows

    return s.cached(("labeled_classes", m.points, m.planes), build)


def _classes_at(m: GeometryModel, x: int, y: int) -> tuple[int, int]:
    """The (point class, plane class) of the pair {x, y}, both empty unless
    it is an incident pair of the model's structure.  ``sigma_partition``
    splits the pair's sigma set there; a class's element is the perp less
    the other class, of its kind in the model (a point if listed in both).
    MissingElementError unless the two are one point and one plane."""
    t = m.structure
    if x == y or not t.adjacency[x, y]:
        return 0, 0
    two, ab = sigma_partition(t, x, y).class_masks, t.masks[x] & t.masks[y]
    kinds = [0 if e in m.point_masks else 1 if e in m.plane_masks else -1 for e in (ab & ~two[1], ab & ~two[0])]
    if sorted(kinds) != [0, 1]:
        raise MissingElementError(f"sigma classes of ({t.labels[x]}, {t.labels[y]}) are not a point and a plane")
    return two[::-1] if kinds[0] else two


def _in_sigma(s: IncidenceStructure, x: int, y: int, z: int) -> bool:
    """Whether z lies in sigma(x, y), from the definitions."""
    return x != y and bool(s.adjacency[x, y]) and bool(sigma_mask(s, x, y) >> z & 1)


# ---------------------------------------------------------------------------
# Structure-level theorems


def _sigma_equivalence_issue(s: IncidenceStructure, triple, **_) -> Optional[dict]:
    a, b, c = _resolve(s, triple)
    m1, m2, m3 = _in_sigma(s, b, c, a), _in_sigma(s, c, a, b), _in_sigma(s, a, b, c)
    if m1 == m2 == m3:
        return None
    return {"triple": labels_of(s, (a, b, c)), "a_in_sigma_bc": m1, "b_in_sigma_ca": m2, "c_in_sigma_ab": m3}


@registered("theorems", _sigma_equivalence_issue)
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
    return CheckReport(name, FAIL, counterexample=_sigma_equivalence_issue(s, labels_of(s, found)), stats=stats)


@registered("theorems", sigma_witness)
def thm_two_classes(s: IncidenceStructure) -> CheckReport:
    """Incidence on every sigma(a, b) splits into exactly two classes.

    Kernel: the split depends only on perp({a, b}), so it is read per
    distinct perp from ``core.perp_table``; the first pair whose perp does
    not split fails, and ``sigma.sigma_witness`` names its witness.
    """
    name = "thm_two_classes"
    table = perp_table(s)
    stats = {"pairs_examined": len(table.pairs)}
    if len(table.unsplit):  # perps are numbered in order of their first pairs
        ce = sigma_witness(s, labels_of(s, table.pairs[table.first[table.unsplit[0]]].tolist()))
        return CheckReport(name, FAIL, counterexample=ce, stats=stats)
    if table.classes:
        stats["class_size_pairs"] = sorted(set(map(tuple, table.sizes.tolist())))
    return CheckReport(name, PASS, stats=stats)


def _bracket_welldefined_issue(s: IncidenceStructure, pair, c1, c2, **_) -> Optional[dict]:
    masks = s.masks
    a, b = _resolve(s, pair)
    c1, c2 = _resolve(s, (c1, c2))
    sig = sigma_mask(s, a, b)
    differs = masks[a] & masks[b] & (masks[c1] ^ masks[c2])
    if not (sig >> c1 & 1 and sig >> c2 & 1 and s.adjacency[c1, c2] and differs):
        return None
    named = {"pair": labels_of(s, (a, b)), "c1": s.labels[c1], "c2": s.labels[c2]}
    return {**named, "differs_on": labels_of(s, lines_of_mask(differs))}


@registered("theorems", _bracket_welldefined_issue)
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
        lambda u, x, y: (table.skew[u, x] != table.skew[u, y]).any(axis=1), incident=True
    )
    if hit is None:
        return CheckReport(name, PASS, stats={"cases_examined": cases})
    u, x, y = hit
    lines = table.lines[u].tolist()
    pair = labels_of(s, table.pairs[table.first[table.unsplit[u]]].tolist())
    ce = _bracket_welldefined_issue(s, pair, s.labels[lines[x]], s.labels[lines[y]])
    return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": cases})


def _line_selfperp_issue(s: IncidenceStructure, line, **_) -> Optional[dict]:
    l = s.index(line)
    dd = perp_mask(s, s.masks[l])
    return None if dd == 1 << l else {"line": s.labels[l], "double_perp": labels_of(s, lines_of_mask(dd))}


@registered("theorems", _line_selfperp_issue)
def thm_line_selfperp(s: IncidenceStructure) -> CheckReport:
    """The double perp of a single line is that line alone."""
    name = "thm_line_selfperp"
    for l in range(s.line_count):
        if perp_mask(s, s.masks[l]) != 1 << l:
            ce = _line_selfperp_issue(s, s.labels[l])
            return CheckReport(name, FAIL, counterexample=ce, stats={"lines_examined": l + 1})
    return CheckReport(name, PASS, stats={"lines_examined": s.line_count})


def _regulus_skew_issue(s: IncidenceStructure, triple, **_) -> Optional[dict]:
    """The least incident pair m < n in the bracket of the skew triple; a
    triple in the perp of an incident pair has that pair in its bracket."""
    adj = s.adjacency
    u, v, w = _resolve(s, triple)
    if adj[u, v] or adj[v, w] or adj[u, w]:
        return None
    B = perp_mask(s, mask_of_lines((u, v, w)))
    pair = next(((l, o) for l in lines_of_mask(B) for o in lines_of_mask(B & s.masks[l]) if o > l), None)
    if pair is None:
        return None
    return {"triple": labels_of(s, (u, v, w)), "m": s.labels[pair[0]], "n": s.labels[pair[1]]}


@registered("theorems", _regulus_skew_issue)
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
    for u, x, y in table.local_pairs():
        z = least_bits(table.skew[u, x] & table.skew[u, y] & above[y])
        _keep_least(found, table.lines[u[z >= 0, None], np.stack((x, y, z), axis=1)[z >= 0]])
    least = min(found, default=None)
    stats = {"pairs_examined": len(table.pairs)}
    if least is None:
        return CheckReport(name, PASS, stats=stats)
    return CheckReport(name, FAIL, counterexample=_regulus_skew_issue(s, labels_of(s, least)), stats=stats)


def _bracket_closed_issue(s: IncidenceStructure, triad, **_) -> Optional[dict]:
    t = _resolve(s, triad)
    B = perp_mask(s, mask_of_lines(t))
    differs = perp_mask(s, B) ^ B
    return {"triad": labels_of(s, t), "differs_on": labels_of(s, lines_of_mask(differs))} if differs else None


@registered("theorems", _bracket_closed_issue)
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
    return CheckReport(name, FAIL, counterexample=_bracket_closed_issue(s, labels_of(s, found)), stats=stats)


def _is_triad(s: IncidenceStructure, a: int, b: int, c: int) -> bool:
    return _in_sigma(s, b, c, a) or _in_sigma(s, c, a, b) or _in_sigma(s, a, b, c)


def _coherence_issue(s: IncidenceStructure, triple, triad_with_equal_bracket, **_) -> Optional[dict]:
    triple, triad = _resolve(s, triple), _resolve(s, triad_with_equal_bracket)
    same = perp_mask(s, mask_of_lines(triple)) == perp_mask(s, mask_of_lines(triad))
    if not same or _is_triad(s, *triple) or not _is_triad(s, *triad):
        return None
    return {"triple": labels_of(s, triple), "triad_with_equal_bracket": labels_of(s, triad)}


@registered("theorems", _coherence_issue)
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
    ce = _coherence_issue(s, labels_of(s, triple), labels_of(s, verdicts["first"][e].tolist()))
    return CheckReport(name, FAIL, counterexample=ce, stats={"cases_examined": examined})


def _mutual_membership_issue(s: IncidenceStructure, triad_a, triad_b, **_) -> Optional[dict]:
    ta, tb = mask_of_lines(_resolve(s, triad_a)), mask_of_lines(_resolve(s, triad_b))
    ba, bb = perp_mask(s, ta), perp_mask(s, tb)
    inside_ab, inside_ba = not tb & ~ba, not ta & ~bb
    if inside_ab != inside_ba:
        issue = "membership_not_symmetric"
    elif inside_ab and ba != bb:
        issue = "contained_but_brackets_differ"
    else:
        return None
    return {"triad_a": labels_of(s, lines_of_mask(ta)), "triad_b": labels_of(s, lines_of_mask(tb)), "issue": issue}


@registered("theorems", _mutual_membership_issue)
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
    rank, *j = found
    i = verdicts["first"][sorted(range(len(emasks)), key=emasks.__getitem__)[rank]].tolist()
    ce = _mutual_membership_issue(s, labels_of(s, i), labels_of(s, j))
    return CheckReport(name, FAIL, counterexample=ce, stats=stats)
