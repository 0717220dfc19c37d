"""Axiom checkers with replayable witnesses.

Each checker exhausts its quantifiers over the structure and returns a
CheckReport.  A failing report always carries a counterexample whose named
lines can be re-evaluated directly against the structure (see
``replay_counterexample``); passing existential checks carry one sample
witness.  Line references inside witnesses are labels, not indices, so
serialized reports read the same as the in-memory ones.

The fourth axiom is operationalized through the seeded labeling: the check
fails when the labeling verification finds a concrete violation, and
reports dependency_unmet when some sigma set has no valid two-class split,
since the point/plane machinery is then undefined rather than violated.

The checks live in one ordered table, ``registry.CHECKS``.  To add a
check, define its replayer and its checker here (or in a theorem module) and
decorate the checker with ``@registered``: that one line gives the check its
place in every battery, its display name and its replay.
"""

from __future__ import annotations

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
from .sigma import NotTwoClassesError, incidence_classes, sigma, sigma_mask, sigma_partition


def _resolve(s: IncidenceStructure, labels) -> list[int]:
    return [s.index(x) for x in labels]


def _replay_axiom1(s: IncidenceStructure, ce: dict) -> bool:
    return find_skew_triple_mask(s, s.masks[s.index(ce["line"])]) is None


@registered("axioms", name="axiom1", display="AXIOM [1]", replay=_replay_axiom1)
def check_axiom1(s: IncidenceStructure) -> CheckReport:
    """Every line's perp must contain a pairwise-skew triple."""
    masks = s.masks
    witness = None
    for l in range(s.line_count):
        triple = find_skew_triple_mask(s, masks[l])
        if triple is None:
            return CheckReport(
                "axiom1",
                FAIL,
                counterexample={
                    "line": s.labels[l],
                    "perp": labels_of(s, lines_of_mask(masks[l])),
                    "reason": "perp contains no pairwise-skew triple",
                },
                stats={"lines_examined": l + 1},
            )
        if witness is None:
            witness = {"line": s.labels[l], "skew_triple": labels_of(s, triple)}
    return CheckReport(
        "axiom1", PASS, witness_sample=witness, stats={"lines_examined": s.line_count}
    )


def _replay_axiom2_1(s: IncidenceStructure, ce: dict) -> bool:
    a, b = _resolve(s, ce["pair"])
    return find_skew_pair_mask(s, s.masks[a] & s.masks[b]) is None


# uint64 words of packed rows per array in a run of check_axiom2_1
_WORDS_PER_RUN = 1 << 18


@registered("axioms", name="axiom2_1", display="AXIOM [2.1]", replay=_replay_axiom2_1)
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
                return CheckReport(
                    "axiom2_1",
                    FAIL,
                    counterexample={
                        "pair": labels_of(s, (a, b)),
                        "perp": labels_of(s, lines_of_mask(members)),
                        "reason": "perp of the pair is pairwise incident",
                    },
                    stats={"pairs_examined": p + 1},
                )
            passed.add(members)
    witness = None
    if len(pairs):
        a, b = pairs[0].tolist()
        skew = find_skew_pair_mask(s, masks[a] & masks[b])
        witness = {"pair": labels_of(s, (a, b)), "skew_pair": labels_of(s, skew)}
    return CheckReport(
        "axiom2_1", PASS, witness_sample=witness, stats={"pairs_examined": len(pairs)}
    )


def _replay_axiom2_2(s: IncidenceStructure, ce: dict) -> bool:
    a, b = _resolve(s, ce["pair"])
    z, x, y = s.index(ce["z"]), s.index(ce["x"]), s.index(ce["y"])
    inside = {x, y} <= bracket(s, a, b, z)
    return inside and z in sigma(s, a, b) and not s.adjacency[x, y]


@registered("axioms", name="axiom2_2", display="AXIOM [2.2]", replay=_replay_axiom2_2)
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
    sigma_words = _words(table.in_sigma)
    per_pair = table.in_sigma.sum(axis=1)[table.perp]
    for k, x, y in table.local_pairs(np.flatnonzero(~table.split)):  # a run holds each of its perps whole
        meet = sigma_words[k] & ~(table.skew[k, x] | table.skew[k, y])
        bad = np.flatnonzero(meet.any(axis=1))
        if len(bad):
            break
    else:
        return CheckReport("axiom2_2", PASS, stats={"triples_examined": int(per_pair.sum())})
    mine = k == k[bad[0]]
    k, x, y = int(k[bad[0]]), x[mine], y[mine]
    held = _places(meet[mine], table.lines.shape[1])
    z = int(held.any(axis=0).argmax())
    i = int(held[:, z].argmax())
    p = int(table.first[k])
    lines = table.lines[k].tolist()
    return CheckReport(
        "axiom2_2",
        FAIL,
        counterexample={
            "pair": labels_of(s, table.pairs[p].tolist()),
            "z": s.labels[lines[z]],
            "x": s.labels[lines[x[i]]],
            "y": s.labels[lines[y[i]]],
            "reason": "skew pair inside bracket(a, b, z)",
        },
        stats={"triples_examined": int(per_pair[:p].sum() + table.in_sigma[k, :z].sum()) + 1},
    )


def _replay_axiom2_3(s: IncidenceStructure, ce: dict) -> bool:
    a, b = _resolve(s, ce["pair"])
    x, y, m = s.index(ce["x"]), s.index(ce["y"]), s.index(ce["uncovered"])
    members = perp(s, (a, b))
    return (
        {x, y, m} <= members
        and not s.adjacency[x, y]
        and not s.adjacency[m, x]
        and not s.adjacency[m, y]
    )


@registered("axioms", name="axiom2_3", display="AXIOM [2.3]", replay=_replay_axiom2_3)
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
        lambda k, x, y: (table.skew[k, x] & table.skew[k, y]).any(axis=1)
    )
    if hit is None:
        return CheckReport("axiom2_3", PASS, stats={"skew_pairs_examined": cases})
    k, x, y = hit
    lines = table.lines[k].tolist()
    return CheckReport(
        "axiom2_3",
        FAIL,
        counterexample={
            "pair": labels_of(s, table.pairs[table.first[k]].tolist()),
            "x": s.labels[lines[x]],
            "y": s.labels[lines[y]],
            "uncovered": s.labels[table.lines_at(k, table.skew[k, x] & table.skew[k, y])[0]],
            "reason": "line in perp of the pair meets neither x nor y",
        },
        stats={"skew_pairs_examined": cases},
    )


def _replay_axiom3(s: IncidenceStructure, ce: dict) -> bool:
    from .labeling import element_masks

    em = mask_of_lines(_resolve(s, ce["element"]))
    emasks = element_masks(s)
    return em in emasks and all(other == em or (em & other) for other in emasks)


@registered("axioms", name="axiom3", display="AXIOM [3]", replay=_replay_axiom3)
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
            return CheckReport(
                "axiom3",
                FAIL,
                counterexample={
                    "element": labels_of(s, lines_of_mask(em)),
                    "triad": labels_of(s, triads[i]),
                    "reason": "no disjoint secondary element exists",
                },
                stats={"elements_examined": i + 1, "elements_total": len(emasks)},
            )
        samples.append(
            {"triad": labels_of(s, triads[i]), "disjoint_triad": labels_of(s, triads[partner])}
        )
    witness = {"per_element": samples} if samples else None
    return CheckReport(
        "axiom3", PASS, witness_sample=witness, stats={"elements_examined": len(emasks)}
    )


def _replay_axiom4(s: IncidenceStructure, ce: dict) -> bool:
    from .labeling import element_masks

    issue = ce.get("issue")
    if issue == "sigma_not_two_classes":
        return _replay_not_two_classes(s, ce)
    seed_info = ce["seed"]
    a, b = _resolve(s, seed_info["pair"])
    chosen = sigma_partition(s, a, b).class_masks[seed_info["class_of"]]
    z = s.masks[a] & s.masks[b] & s.masks[(chosen & -chosen).bit_length() - 1]

    def is_point(em):  # the seeded singleton rule
        return em == z or (em & z).bit_count() == 1

    if issue in ("same_kind_share_none", "same_kind_share_many", "point_plane_share_one"):
        ea = mask_of_lines(_resolve(s, ce["element_a"]))
        eb = mask_of_lines(_resolve(s, ce["element_b"]))
        if not {ea, eb} <= set(element_masks(s)):
            return False
        common = (ea & eb).bit_count()
        same = is_point(ea) == is_point(eb)
        if issue == "same_kind_share_none":
            return same and common == 0
        if issue == "same_kind_share_many":
            return same and common > 1
        return (not same) and common == 1
    if issue == "pair_classes_same_kind":
        p, q = _resolve(s, ce["pair"])
        part = sigma_partition(s, p, q)
        base = s.masks[p] & s.masks[q]
        per_class = [
            {is_point(base & s.masks[c]) for c in lines_of_mask(cls)} for cls in part.class_masks
        ]
        return all(len(seen) == 1 for seen in per_class) and per_class[0] == per_class[1]
    raise ValueError(f"unknown axiom4 witness issue {issue!r}")


def _replay_not_two_classes(s: IncidenceStructure, ce: dict) -> bool:
    a, b = _resolve(s, ce["pair"])
    sig = sigma_mask(s, a, b)
    if "p" in ce:
        p, q, r = s.index(ce["p"]), s.index(ce["q"]), s.index(ce["r"])
        return (
            not (mask_of_lines((p, q, r)) & ~sig)
            and s.adjacency[p, q]
            and s.adjacency[q, r]
            and not s.adjacency[p, r]
        )
    if ce.get("class_count") == 0:
        return not sig
    # Class-count witness: recount components of incidence on sigma.
    count = len(incidence_classes(s, sig))
    return count == ce["class_count"] and count != 2


@registered("axioms", name="axiom4", display="AXIOM [4]", replay=_replay_axiom4)
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

    Returns True when the named configuration still violates the claim;
    reports are machine-checkable in this sense.  Raises on reports that
    carry no counterexample.  Dispatches through the registry, so any
    check whose replay needs no model replays here.
    """
    return replay(s, report)
