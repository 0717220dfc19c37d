"""Axiom checkers with replayable witnesses.

Each checker exhausts its quantifiers over the structure and returns a
CheckReport.  A failing report always carries a counterexample, named by
its check's counterexample function, which ``replay_counterexample`` runs
again against the structure; passing existential checks carry one sample
witness.  Line references inside witnesses are labels, not indices, so
serialized reports read the same as the in-memory ones.

The fourth axiom is operationalized through the seeded labeling: the check
fails when the labeling verification finds a concrete violation, and
reports dependency_unmet when some sigma set has no valid two-class split,
since the point/plane machinery is then undefined rather than violated.

The checks live in one ordered table, ``registry.CHECKS``.  To add a
check, define its counterexample function and its checker here (or in a
theorem module) and decorate the checker with ``@registered``: that one line
gives the check its place in every battery, its display name and its replay.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    IncidenceStructure,
    LabelInconsistencyError,
    _places,
    _words,
    bracket,
    find_skew_pair_mask,
    find_skew_triple_mask,
    incident_pairs,
    labels_of,
    least_bits,
    lines_of_mask,
    mask_of_lines,
    perp,
    perp_table,
)
from .registry import (
    DEPENDENCY_UNMET,
    FAIL,
    PASS,
    CheckReport,
    registered,
    replay,
    run_checks,
)
from .sigma import NotTwoClassesError, sigma, sigma_partition, sigma_witness


def _resolve(s: IncidenceStructure, labels) -> list[int]:
    return [s.index(x) for x in labels]


def _axiom1_issue(s: IncidenceStructure, line, **_) -> Optional[dict]:
    l = s.index(line)
    if find_skew_triple_mask(s, s.masks[l]) is not None:
        return None
    perp = labels_of(s, lines_of_mask(s.masks[l]))
    return {"line": s.labels[l], "perp": perp, "reason": "perp contains no pairwise-skew triple"}


@registered("axioms", _axiom1_issue, name="axiom1", display="AXIOM [1]")
def check_axiom1(s: IncidenceStructure) -> CheckReport:
    """Every line's perp must contain a pairwise-skew triple."""
    masks = s.masks
    witness = None
    for l in range(s.line_count):
        triple = find_skew_triple_mask(s, masks[l])
        if triple is None:
            ce = _axiom1_issue(s, s.labels[l])
            return CheckReport("axiom1", FAIL, counterexample=ce, stats={"lines_examined": l + 1})
        if witness is None:
            witness = {"line": s.labels[l], "skew_triple": labels_of(s, triple)}
    return CheckReport(
        "axiom1", PASS, witness_sample=witness, stats={"lines_examined": s.line_count}
    )


def _axiom2_1_issue(s: IncidenceStructure, pair, **_) -> Optional[dict]:
    a, b = _resolve(s, pair)
    members = s.masks[a] & s.masks[b]
    if a == b or not s.adjacency[a, b] or find_skew_pair_mask(s, members) is not None:
        return None
    perp = labels_of(s, lines_of_mask(members))
    return {"pair": labels_of(s, (a, b)), "perp": perp, "reason": "perp of the pair is pairwise incident"}


# uint64 words of packed rows per array in a run of check_axiom2_1
_WORDS_PER_RUN = 1 << 18


@registered("axioms", _axiom2_1_issue, name="axiom2_1", display="AXIOM [2.1]")
def check_axiom2_1(s: IncidenceStructure) -> CheckReport:
    """perp({a, b}) of every incident distinct pair must contain a skew pair.

    Kernel: in bounded runs of pairs, the AND of the packed adjacency rows
    of a and b is the perp; let x be its least line.  A line of the perp
    outside row x is skew to x, and x lies in the perp, so a pair with
    ``perp & ~row[x]`` non-zero holds a skew pair and passes.  Otherwise x
    meets every line of the perp, and the scalar search decides, on those
    pairs alone, in order, once per distinct perp.  Each pair's verdict is
    the search's, so the first failing pair and ``pairs_examined`` are
    those of a walk that searches every pair; the witness is the search's
    least skew pair in the perp of the first pair.
    """
    masks = s.masks
    pairs = incident_pairs(s)
    rows = _words(s.adjacency)
    step = max(1, _WORDS_PER_RUN // rows.shape[1])
    passed = set()
    for lo in range(0, len(pairs), step):
        run = pairs[lo : lo + step]
        perps = rows[run[:, 0]] & rows[run[:, 1]]
        undecided = ~(perps & ~rows[least_bits(perps)]).any(axis=1)
        for p in (np.flatnonzero(undecided) + lo).tolist():
            a, b = pairs[p].tolist()
            members = masks[a] & masks[b]
            if members in passed:
                continue
            if find_skew_pair_mask(s, members) is None:
                ce = _axiom2_1_issue(s, labels_of(s, (a, b)))
                return CheckReport("axiom2_1", FAIL, counterexample=ce, stats={"pairs_examined": p + 1})
            passed.add(members)
    witness = None
    if len(pairs):
        a, b = pairs[0].tolist()
        skew = find_skew_pair_mask(s, masks[a] & masks[b])
        witness = {"pair": labels_of(s, (a, b)), "skew_pair": labels_of(s, skew)}
    return CheckReport(
        "axiom2_1", PASS, witness_sample=witness, stats={"pairs_examined": len(pairs)}
    )


def _axiom2_2_issue(s: IncidenceStructure, pair, z, x, y, **_) -> Optional[dict]:
    a, b = _resolve(s, pair)
    z, x, y = _resolve(s, (z, x, y))
    if not ({x, y} <= bracket(s, a, b, z) and z in sigma(s, a, b)) or s.adjacency[x, y]:
        return None
    named = {"pair": labels_of(s, (a, b)), "z": s.labels[z], "x": s.labels[x], "y": s.labels[y]}
    return {**named, "reason": "skew pair inside bracket(a, b, z)"}


@registered("axioms", _axiom2_2_issue, name="axiom2_2", display="AXIOM [2.2]")
def check_axiom2_2(s: IncidenceStructure) -> CheckReport:
    """bracket(a, b, z) must be pairwise incident for every z in sigma(a, b).

    Reduction: bracket(a, b, z) holds the skew pair x, y exactly when x, y
    is a skew pair of perp({a, b}) and z meets both, so the check depends
    only on the perp and is judged once per distinct perp; each pair adds
    |sigma(a, b)| cases.  Kernel: per skew pair of a perp, the members of
    sigma meeting both lines are sigma less the OR of their skew rows.  The
    first perp, in order of first pairs, with any such member fails: z is
    its least one, and x, y the first skew pair, in lexicographic order,
    whose array holds z, the least skew pair in bracket(a, b, z).  A perp
    whose sigma splits holds none: a skew pair there has one line in each
    class, and each line's row is the other's class, so their OR is sigma.
    """
    table = perp_table(s)
    sigma_words = np.bitwise_or.reduce(table.skew, axis=1)  # sigma: the places skew to some place
    per_pair = table.sizes.sum(axis=1)[table.perp]  # the classes partition sigma
    for u, x, y in table.local_pairs():  # a run holds each of its perps whole
        meet = sigma_words[u] & ~(table.skew[u, x] | table.skew[u, y])
        bad = np.flatnonzero(meet.any(axis=1))
        if len(bad):
            break
    else:
        return CheckReport("axiom2_2", PASS, stats={"triples_examined": int(per_pair.sum())})
    mine = u == u[bad[0]]
    u, x, y = int(u[bad[0]]), x[mine], y[mine]
    held = _places(meet[mine], table.lines.shape[1])
    z = int(held.any(axis=0).argmax())
    i = int(held[:, z].argmax())
    p = int(table.first[table.unsplit[u]])
    lines = table.lines[u].tolist()
    zxy = (s.labels[lines[z]], s.labels[lines[x[i]]], s.labels[lines[y[i]]])
    ce = _axiom2_2_issue(s, labels_of(s, table.pairs[p].tolist()), *zxy)
    examined = int(per_pair[:p].sum() + _places(sigma_words[u], table.lines.shape[1])[:z].sum()) + 1
    return CheckReport("axiom2_2", FAIL, counterexample=ce, stats={"triples_examined": examined})


def _axiom2_3_issue(s: IncidenceStructure, pair, x, y, uncovered, **_) -> Optional[dict]:
    a, b = _resolve(s, pair)
    x, y, m = _resolve(s, (x, y, uncovered))
    adj = s.adjacency
    if not {x, y, m} <= perp(s, (a, b)) or adj[x, y] or adj[m, x] or adj[m, y]:
        return None
    named = {"pair": labels_of(s, (a, b)), "x": s.labels[x], "y": s.labels[y], "uncovered": s.labels[m]}
    return {**named, "reason": "line in perp of the pair meets neither x nor y"}


@registered("axioms", _axiom2_3_issue, name="axiom2_3", display="AXIOM [2.3]")
def check_axiom2_3(s: IncidenceStructure) -> CheckReport:
    """Each member of perp({a, b}) must meet x or y for every skew pair x, y there.

    Reduction: depends only on perp({a, b}), so it is judged once per
    distinct perp, and each pair adds its perp's skew pairs as cases.
    Kernel: the lines of the perp meeting neither x nor y are those skew to
    both, the AND of their skew rows.  The first skew pair with a nonzero
    AND, in order of the perps' first pairs and then lexicographic, fails,
    and the least line of its AND is uncovered.  A perp whose sigma splits
    has none: x and y lie in different classes, and each one's row is the
    other's class, so the rows are disjoint.
    """
    table = perp_table(s)
    hit, cases = table.first_flagged(
        lambda u, x, y: (table.skew[u, x] & table.skew[u, y]).any(axis=1)
    )
    if hit is None:
        return CheckReport("axiom2_3", PASS, stats={"skew_pairs_examined": cases})
    u, x, y = hit
    lines = table.lines[u].tolist()
    uncovered = lines[least_bits(table.skew[u, [x]] & table.skew[u, [y]])[0]]
    pair = labels_of(s, table.pairs[table.first[table.unsplit[u]]].tolist())
    ce = _axiom2_3_issue(s, pair, s.labels[lines[x]], s.labels[lines[y]], s.labels[uncovered])
    return CheckReport("axiom2_3", FAIL, counterexample=ce, stats={"skew_pairs_examined": cases})


def _axiom3_issue(s: IncidenceStructure, element, **_) -> Optional[dict]:
    from .labeling import element_ids

    emasks, triads = element_ids(s)[:2]
    em = mask_of_lines(_resolve(s, element))
    if em not in emasks or any(not em & other for other in emasks):
        return None
    named = {"element": labels_of(s, lines_of_mask(em)), "triad": labels_of(s, triads[emasks.index(em)])}
    return {**named, "reason": "no disjoint secondary element exists"}


@registered("axioms", _axiom3_issue, name="axiom3", display="AXIOM [3]")
def check_axiom3(s: IncidenceStructure) -> CheckReport:
    """Every secondary element needs a second element disjoint from it.

    Checked per distinct element rather than per triad tuple: bracket
    equality makes triads interchangeable here.  An element's partner is
    the least element sharing no line with it in ``labeling.shared_lines``,
    whose diagonal, each element's size, is never 0.
    """
    from .labeling import element_ids, shared_lines

    emasks, triads, _ = element_ids(s)
    disjoint = shared_lines(s, emasks)[0] == 0
    samples = []
    for i, em in enumerate(emasks):
        partner = int(disjoint[i].argmax())
        if not disjoint[i, partner]:
            ce = _axiom3_issue(s, labels_of(s, lines_of_mask(em)))
            stats = {"elements_examined": i + 1, "elements_total": len(emasks)}
            return CheckReport("axiom3", FAIL, counterexample=ce, stats=stats)
        samples.append(
            {"triad": labels_of(s, triads[i]), "disjoint_triad": labels_of(s, triads[partner])}
        )
    witness = {"per_element": samples} if samples else None
    return CheckReport(
        "axiom3", PASS, witness_sample=witness, stats={"elements_examined": len(emasks)}
    )


def _axiom4_issue(s: IncidenceStructure, pair=None, seed=None, element_a=None, element_b=None, **_):
    """The labeling's witness, from the named pair whose sigma does not
    split, or from the named seed and pair or elements."""
    from .labeling import element_masks

    if seed is None:
        witness = sigma_witness(s, pair)
        return witness and {"issue": "sigma_not_two_classes", **witness}
    a, b = _resolve(s, seed["pair"])
    chosen = sigma_partition(s, a, b).class_masks[seed["class_of"]]
    z = s.masks[a] & s.masks[b] & s.masks[(chosen & -chosen).bit_length() - 1]
    seed_info = {"pair": labels_of(s, (a, b)), "class_of": seed["class_of"]}

    def kind(em):  # the seeded singleton rule
        return "point" if em == z or (em & z).bit_count() == 1 else "plane"

    if element_a is None:
        p, q = _resolve(s, pair)
        c0, c1 = sigma_partition(s, p, q).class_masks
        kinds = {kind(s.masks[p] & s.masks[q] & s.masks[c]) for c in lines_of_mask(c0 | c1)}
        if len(kinds) != 1:
            return None
        return {"issue": "pair_classes_same_kind", "pair": labels_of(s, (p, q)), "kind": kinds.pop(), "seed": seed_info}
    ea, eb = (mask_of_lines(_resolve(s, e)) for e in (element_a, element_b))
    common = (ea & eb).bit_count()
    if ea == eb or not {ea, eb} <= set(element_masks(s)) or (kind(ea) == kind(eb)) == (common == 1):
        return None
    named = {"element_a": labels_of(s, lines_of_mask(ea)), "element_b": labels_of(s, lines_of_mask(eb))}
    named.update(common_count=common, seed=seed_info)
    if kind(ea) != kind(eb):
        return {"issue": "point_plane_share_one", **named}
    return {"issue": "same_kind_share_many" if common else "same_kind_share_none", "kind": kind(ea), **named}


@registered("axioms", _axiom4_issue, name="axiom4", display="AXIOM [4]")
def check_axiom4(s: IncidenceStructure) -> CheckReport:
    """Two points always share a line, and dually two planes; via seeded
    labeling, whose verification makes every two same-kind elements share
    exactly one line."""
    from .labeling import coordinate_labels

    pairs = incident_pairs(s)
    try:
        m = coordinate_labels(s)
    except NotTwoClassesError as e:
        return CheckReport(
            "axiom4",
            DEPENDENCY_UNMET,
            counterexample={"issue": "sigma_not_two_classes", **e.witness},
            stats={"pairs_examined": len(pairs)},
        )
    except LabelInconsistencyError as e:
        return CheckReport(
            "axiom4",
            FAIL,
            counterexample=e.witness,
            stats={"pairs_examined": len(pairs)},
        )
    return CheckReport(
        "axiom4",
        PASS,
        stats={
            "pairs_examined": len(pairs),
            "points": len(m.points),
            "planes": len(m.planes),
        },
    )


def check_all(s: IncidenceStructure) -> list[CheckReport]:
    """Run the six axiom checks in fixed order.

    Later checks that depend on machinery an earlier failure breaks still
    run; they report dependency_unmet instead of pass/fail when the
    machinery itself is undefined.
    """
    return run_checks(s, ("axioms",))


def replay_counterexample(s: IncidenceStructure, report: CheckReport) -> bool:
    """Re-evaluate a failing report's counterexample against the structure.

    Returns True when the named configuration still violates the claim and
    the check's counterexample function names the same counterexample;
    reports are machine-checkable in this sense.  Raises on reports that
    carry no counterexample.  Dispatches through the registry, so any
    check whose replay needs no model replays here.
    """
    return replay(s, report)
