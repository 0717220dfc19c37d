"""Theorem verifiers: green on models, failing with replayable witnesses otherwise."""

import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest

from linespace import (
    GeometryModel,
    IncidenceStructure,
    LinespaceError,
    check_all,
    check_axiom1,
    check_axiom2_1,
    check_axiom2_2,
    check_axiom2_3,
    coordinate_labels,
    dualize,
    find_skew_triple,
    gen_negative,
    gen_pg3,
    perp,
    replay_theorem_counterexample,
    run_theorem_suite,
    save_reports,
    thm_bracket_closed,
    thm_bracket_welldefined,
    thm_coherence,
    thm_exchange,
    thm_line_in_plane,
    thm_line_selfperp,
    thm_mutual_membership,
    thm_not_singleton,
    thm_pencil_intersection,
    thm_point_ne_plane,
    thm_regulus_skew,
    thm_sigma_equivalence,
    thm_tetrahedron,
    thm_triad_typing,
    thm_triangle,
    thm_two_classes,
    thm_uniqueness,
    vy_axioms,
)
from conftest import one_perp_regulus
from linespace import battery, labeling, model_theorems, theorems
from linespace.core import _incidence, bit_rows, mask_of_lines, perp_mask
from linespace.labeling import element_masks, model_index
from linespace.registry import names, run_checks


class TestSuiteOnModels:
    """Cross-validation: whatever passes check_all must pass every verifier."""

    def test_tetra_all_pass(self, tetra):
        for r in run_theorem_suite(tetra):
            assert r.passed, (r.check_name, r.counterexample)

    def test_pg2_all_pass(self, pg2, pg2_model):
        for r in run_theorem_suite(pg2, pg2_model):
            assert r.passed, (r.check_name, r.counterexample)

    def test_checked_structures_pass_everything(self, pg2, pg2_model):
        assert all(r.passed for r in check_all(pg2))
        assert all(r.passed for r in run_theorem_suite(pg2, pg2_model))
        assert all(r.passed for r in vy_axioms(pg2, pg2_model))


class TestVacuousCases:
    def test_regulus_on_tetra_is_vacuous(self, tetra):
        # no pairwise-skew triple exists, so none of the 12 incident pairs'
        # perps can hold one
        assert find_skew_triple(tetra, range(tetra.line_count)) is None
        r = thm_regulus_skew(tetra)
        assert r.passed
        assert r.stats["pairs_examined"] == 12

    def test_welldefined_on_tetra_is_vacuous(self, tetra):
        # both sigma classes are singletons, so no incident pair inside one
        r = thm_bracket_welldefined(tetra)
        assert r.passed
        assert r.stats["cases_examined"] == 0

    def test_empty_families(self):
        s = IncidenceStructure.from_skew_pairs(2, [(0, 1)])
        m = coordinate_labels(s)
        assert thm_point_ne_plane(s, m).passed
        assert thm_not_singleton(s, m).stats["pairs_examined"] == 0


class TestCounts:
    def test_tetra_triads(self, tetra):
        assert thm_sigma_equivalence(tetra).stats == {"triads_examined": 8}

    def test_pg2_triads(self, pg2):
        # 28 tripods per point and 28 trigons per plane: 15 * 28 * 2
        assert thm_sigma_equivalence(pg2).stats == {"triads_examined": 840}

    def test_pg2_regulus_sizes(self, pg2):
        # every pairwise-skew triple has exactly q + 1 = 3 transversals
        import itertools

        masks = pg2.masks
        adj = pg2.adjacency
        count = 0
        for u, v, w in itertools.combinations(range(pg2.line_count), 3):
            if adj[u, v] or adj[u, w] or adj[v, w]:
                continue
            count += 1
            assert bin(masks[u] & masks[v] & masks[w]).count("1") == 3
        assert count > 0

    def test_pg2_typing_split(self, pg2, pg2_model):
        # triads split evenly between point-side and plane-side
        sides = {"point": 0, "plane": 0}
        index = model_index(pg2, pg2_model)
        for _, _, triples, held, same in theorems._walk(pg2):
            for t in triples[held.any(axis=0) & same].tolist():
                row = index.masks.index(perp_mask(pg2, mask_of_lines(t)))
                sides[("point", "plane")[index.kind[row]]] += 1
        assert sides["point"] == 420
        assert sides["plane"] == 420


class TestStructureLevelFailures:
    def test_selfperp_fails_on_complete_incidence(self):
        s = IncidenceStructure.from_skew_pairs(4, [])
        r = thm_line_selfperp(s)
        assert r.status == "fail"
        assert len(r.counterexample["double_perp"]) == 4
        assert replay_theorem_counterexample(s, r)

    def test_regulus_fails_with_incident_transversals(self):
        # u, v, w pairwise skew; m, n meet all three and each other.
        s = IncidenceStructure.from_skew_pairs(
            5, [(0, 1), (0, 2), (1, 2)], labels=("u", "v", "w", "m", "n")
        )
        r = thm_regulus_skew(s)
        assert r.status == "fail"
        assert {r.counterexample["m"], r.counterexample["n"]} == {"m", "n"}
        assert replay_theorem_counterexample(s, r)

    def test_regulus_names_a_triple_held_by_one_perp(self):
        # a search that skips perp(L3, L4), the numerically least perp, finds
        # no skew triple at all
        s = one_perp_regulus()
        r = thm_regulus_skew(s)
        assert r.to_dict() == {
            "check_name": "thm_regulus_skew",
            "passed": False,
            "status": "fail",
            "counterexample": {"triple": ["L0", "L1", "L2"], "m": "L3", "n": "L4"},
            "stats": {"pairs_examined": 19},
        }
        assert min(theorems.perp_table(s).masks) == 0b11111
        assert replay_theorem_counterexample(s, r)

    def test_sigma_equivalence_fails_on_pasch_fixture(self):
        s = gen_negative("pasch_violation")
        r = thm_sigma_equivalence(s)
        assert r.status == "fail"
        assert replay_theorem_counterexample(s, r)

    def test_two_classes_fails_on_pasch_fixture(self):
        s = gen_negative("pasch_violation")
        r = thm_two_classes(s)
        assert r.status == "fail"
        assert replay_theorem_counterexample(s, r)

    def test_welldefined_fails_on_pasch_fixture(self):
        s = gen_negative("pasch_violation")
        r = thm_bracket_welldefined(s)
        assert r.status == "fail"
        assert replay_theorem_counterexample(s, r)

    def test_bracket_closed_fails_on_pasch_fixture(self):
        # bracket(a, b, z) = {a, b, z, x, y} contains the skew pair (x, y),
        # so its perp drops lines and cannot equal the bracket.
        s = gen_negative("pasch_violation")
        r = thm_bracket_closed(s)
        assert r.status == "fail"
        assert replay_theorem_counterexample(s, r)


class TestModelLevelFailures:
    def test_point_ne_plane_detects_shared_element(self, tetra):
        m = coordinate_labels(tetra)
        broken = GeometryModel(
            structure=tetra,
            points=m.points,
            planes=m.planes[:-1] + (m.points[0],),
            seed=m.seed,
        )
        r = thm_point_ne_plane(tetra, broken)
        assert r.status == "fail"
        assert replay_theorem_counterexample(tetra, r, broken)

    def test_not_singleton_detects_moved_point(self, pg2, pg2_model):
        moved = pg2_model.points[0]
        broken = GeometryModel(
            structure=pg2,
            points=pg2_model.points[1:],
            planes=pg2_model.planes + (moved,),
            seed=pg2_model.seed,
        )
        r = thm_not_singleton(pg2, broken)
        assert r.status == "fail"
        assert replay_theorem_counterexample(pg2, r, broken)

    def test_uniqueness_detects_moved_point(self, pg2, pg2_model):
        moved = pg2_model.points[0]
        broken = GeometryModel(
            structure=pg2,
            points=pg2_model.points[1:],
            planes=pg2_model.planes + (moved,),
            seed=pg2_model.seed,
        )
        r = thm_uniqueness(pg2, broken)
        assert r.status == "fail"
        assert r.counterexample["kind"] == "plane"
        assert replay_theorem_counterexample(pg2, r, broken)

    def test_line_in_plane_detects_truncated_plane(self, pg2, pg2_model):
        target = pg2_model.planes[0]
        truncated = target[1:]
        broken = GeometryModel(
            structure=pg2,
            points=pg2_model.points,
            planes=(truncated,) + pg2_model.planes[1:],
            seed=pg2_model.seed,
        )
        r = thm_line_in_plane(pg2, broken)
        assert r.status == "fail"
        assert replay_theorem_counterexample(pg2, r, broken)

    def test_model_theorems_report_dependency_without_labeling(self):
        s = gen_negative("two_components")
        reports = run_theorem_suite(s)
        by_name = {r.check_name: r for r in reports}
        assert by_name["thm_triad_typing"].status == "dependency_unmet"
        assert by_name["thm_tetrahedron"].status == "dependency_unmet"
        # structure-level checks still ran on their own
        assert by_name["thm_line_selfperp"].status == "pass"


def swapped_classes(m):
    """The labeled classes of ``m``, each perp's point and plane class swapped."""
    masks, rows = theorems._labeled_classes(m)
    return [(qc, pc) for pc, qc in masks], rows[::-1]


class TestExchangeFailures:
    """Each failure branch of thm_exchange names the same case as it always has.

    The expected reports were recorded before the bracket rows were built
    once per bracket.  The structure supplies the triads, brackets and
    sigma sets and the model the labeled classes, so a flipped bit, a
    doctored class table or a model over another structure reaches each
    branch.
    """

    def exchange_ce(self, s, m):
        r = thm_exchange(s, m)
        assert r.status == "fail"
        return r.counterexample, r.stats["cases_examined"]

    def test_pg2_walks_every_case(self, pg2, pg2_model):
        assert thm_exchange(pg2, pg2_model).stats == {"cases_examined": 17640}

    def test_skew_pair_in_bracket(self, pg2, pg2_model):
        adj = np.array(pg2.adjacency)
        adj[3, 5] = adj[5, 3] = False
        mutant = IncidenceStructure(adj, labels=pg2.labels)
        ce = {"triad": ["L00", "L01", "L02"], "x": "L03", "y": "L05"}
        assert self.exchange_ce(mutant, pg2_model) == (
            {**ce, "issue": "skew_pair_in_bracket"},
            17,
        )

    def test_refined_class_misses_triad(self, pg2, pg2_model, monkeypatch):
        # With each perp's point and plane class swapped in the table the
        # kernel reads, the kernel flags the first triad's first row, where
        # the counterexample function, which reads the model, finds none: a
        # disagreement replay rejects.  A fresh copy of PG(3,2), so that no
        # verdict is cached on it yet.
        s = IncidenceStructure(pg2.adjacency, labels=pg2.labels)
        swapped = swapped_classes(pg2_model)
        monkeypatch.setattr(theorems, "_labeled_classes", lambda m: swapped)
        r = thm_exchange(s, dataclasses.replace(pg2_model, structure=s))
        assert (r.status, r.counterexample, r.stats) == ("fail", None, {"cases_examined": 1})
        # The branch, from the definitions: the pencil L00, L01, L06 has as
        # bracket its point and its plane together, listed here as a plane.
        # L02 lies on the point and off the plane, and L01 lies in
        # sigma(L00, L02), but in that pair's point class, not its plane class.
        bracket = tuple(sorted(perp(pg2, (0, 1, 6))))
        assert len(bracket) == 11  # a point and a plane, 7 lines each, sharing the pencil
        m = dataclasses.replace(pg2_model, planes=pg2_model.planes + (bracket,))
        ce = {"triad": ["L00", "L01", "L06"], "x": "L00", "y": "L02", "kind": "plane"}
        got = model_theorems._exchange_issue(pg2, m, ["L00", "L01", "L06"], x="L00", y="L02")
        assert got == {**ce, "issue": "refined_class_misses_triad"}

    def test_sigma_misses_triad(self, tetra):
        # the tetrahedron with ah and bh made skew, against the tetrahedron's
        # own model: the refined classes come from the model's structure,
        # where the plane class of (c, bh) holds a, but sigma comes from the
        # mutant, where sigma(c, bh) misses the triad (a, c, bh)
        m = coordinate_labels(tetra)
        mutant = IncidenceStructure.from_skew_pairs(6, [*tetra.skew_pairs(), (3, 4)], labels=tetra.labels)
        assert m.structure is not mutant
        ce = {"triad": ["a", "c", "bh"], "x": "c", "y": "bh", "issue": "sigma_misses_triad"}
        assert self.exchange_ce(mutant, m) == (ce, 9)
        assert replay_theorem_counterexample(mutant, thm_exchange(mutant, m), m) is True


class TestTriangleFailures:
    def test_side_not_in_plane_class(self, pg2, pg2_model, monkeypatch):
        # With each perp's point and plane class swapped in the table the
        # kernel reads, every side misses its plane class there, and the
        # kernel flags the first triple, where the counterexample function,
        # which reads the model, finds none.  A fresh copy of PG(3,2), so
        # that no verdict is cached on it yet.
        s = IncidenceStructure(pg2.adjacency, labels=pg2.labels)
        swapped = swapped_classes(pg2_model)
        monkeypatch.setattr(theorems, "_labeled_classes", lambda m: swapped)
        r = thm_triangle(s, dataclasses.replace(pg2_model, structure=s))
        assert (r.status, r.counterexample, r.stats) == ("fail", None, {"cases_examined": 1})
        # The branch, from the definitions: three listed points of two lines
        # each, whose sides L00, L01, L02 meet in one point and lie in no
        # plane, so L00 lies in the point class of sigma(L01, L02).
        points = [["L01", "L02"], ["L00", "L02"], ["L00", "L01"]]
        m = dataclasses.replace(pg2_model, points=pg2_model.points + ((1, 2), (0, 2), (0, 1)))
        ce = {"points": points, "issue": "side_not_in_plane_class", "line": "L00", "of_pair": ["L01", "L02"]}
        assert battery._triangle_issue(pg2, m, points) == ce


class TestTetrahedronExtraction:
    def test_witness_substructure_is_the_six_line_pattern(self, pg2, pg2_model):
        from conftest import is_isomorphic
        from linespace import gen_tetrahedron
        from linespace.battery import thm_tetrahedron

        r = thm_tetrahedron(pg2, pg2_model)
        assert r.passed
        six = [pg2.index(lab) for lab in r.witness_sample["six_lines"]]
        induced = IncidenceStructure(pg2.adjacency[six][:, six])
        assert is_isomorphic(induced, gen_tetrahedron())


class TestVyBattery:
    def test_pg2_all_pass_with_exact_e0(self, pg2, pg2_model):
        reports = vy_axioms(pg2, pg2_model)
        assert [r.check_name for r in reports] == list(names("vy"))
        assert all(r.passed for r in reports)
        e0 = reports[0]
        assert e0.stats["min_points_on_line"] == 3
        assert e0.stats["max_points_on_line"] == 3

    def test_tetra_fails_e0_only(self, tetra):
        # every line of the six-line fixture lies in just two derived points
        reports = vy_axioms(tetra)
        by_name = {r.check_name: r for r in reports}
        assert by_name["vy_e0"].status == "fail"
        assert by_name["vy_e0"].counterexample["points_on_line"] == 2
        for name in names("vy")[1:]:
            assert by_name[name].passed, name

    def test_unlabelable_structure_reports_dependency(self):
        s = gen_negative("no_skew_anywhere")
        reports = vy_axioms(s)
        assert [r.status for r in reports] == ["dependency_unmet"] * 8

    def test_dual_model_passes_battery(self, pg2, pg2_model):
        from linespace import dualize

        dual = dualize(pg2_model)
        assert all(r.passed for r in vy_axioms(pg2, dual))


class TestExhaustiveCounts:
    """Each support-restricted quantifier walks its whole support on PG(3,2)."""

    def test_sigma_equivalence_walks_every_triad(self, pg2):
        assert thm_sigma_equivalence(pg2).stats == {"triads_examined": 840}

    def test_regulus_walks_every_incident_pair(self, pg2):
        # 35 lines, each meeting (q + 1)(q^2 + q) = 18 others
        assert thm_regulus_skew(pg2).stats == {"pairs_examined": 315}

    def test_coherence_walks_the_triples_of_each_element(self, pg2):
        # perp(E) = E for each of the 30 elements of 7 lines: 30 * C(7, 3)
        assert thm_coherence(pg2).stats == {"cases_examined": 1050, "triads": 840}

    def test_mutual_membership_walks_every_triad(self, pg2):
        r = thm_mutual_membership(pg2)
        assert r.passed
        assert r.stats == {"triads_examined": 840}

    def test_no_report_names_a_sampling_mode(self, pg2, pg2_model):
        for r in run_theorem_suite(pg2, pg2_model):
            assert "mode" not in r.stats and "sample_seed" not in r.stats, r.check_name


PERTURBED_GOLDEN = Path(__file__).parent / "golden" / "perturbed"

# How each perturbed PG(3,3) case departs from the default model; the
# comment after each names where a first failure falls.
PERTURBED = {
    # A point also listed as a plane: its mask still reads as a point, so
    # thm_exchange passes, and every triangle finds a second common plane.
    "point_0_also_plane": ("also_plane", 0),
    "point_20_also_plane": ("also_plane", 20),
    "point_39_also_plane": ("also_plane", 39),
    "plane_5_moved_to_points": ("moved", 5),  # tetrahedron, vy_a3: first triples
    "point_15_dropped": ("dropped", 15),  # tetrahedron passes on 8,658 triples
    # Point 3 with line 118 swapped for line 47, first or last in the family.
    "non_element_first": ("added", 0),
    "non_element_last": ("added", 40),
    # The default model against PG(3,3) with one incidence flipped.
    "flip_2_6": ("flip", (2, 6)),  # exchange: first triad
    "flip_58_68": ("flip", (58, 68)),  # tetrahedron: triple 5,612 of 9,360
    "flip_95_118": ("flip", (95, 118)),  # exchange: case 341,391 of 1,460,160, latest found
    "flip_67_93": ("flip", (67, 93)),  # triangle: triple 6,605
    "flip_65_96": ("flip", (65, 96)),  # tetrahedron: triple 6,311
    "flip_34_102": ("flip", (34, 102)),  # exchange: case 128,055; vy_a3: case 104,499 of 140,400
}


def perturbed(s, m, kind, arg):
    """The (structure, model) pair of one PERTURBED case."""
    points, planes = list(m.points), list(m.planes)
    if kind == "flip":
        adj = np.array(s.adjacency)
        i, j = arg
        adj[i, j] = adj[j, i] = not adj[i, j]
        return IncidenceStructure(adj, labels=s.labels), m
    if kind == "also_plane":
        planes.append(points[arg])
    elif kind == "moved":
        points.insert(0, planes.pop(arg))
    elif kind == "dropped":
        del points[arg]
    elif kind == "added":
        points.insert(arg, tuple(sorted(set(points[3]) - {118} | {47})))
    return s, GeometryModel(structure=s, points=tuple(points), planes=tuple(planes), seed=m.seed)


class TestPerturbedGoldens:
    """thm_exchange, the point-triple checks and vy_axioms keep their report
    bytes, stats and witness samples included, on failing PG(3,3) cases.

    tests/golden/perturbed/<name>.json was recorded before these checks
    moved to bitset kernels, so a failure found first by a kernel must be
    named, and counted, exactly as the scalar walk always did.
    """

    @pytest.mark.parametrize("name", sorted(PERTURBED))
    def test_report_bytes_match_golden(self, name, pg3, pg3_model, tmp_path):
        s, m = perturbed(pg3, pg3_model, *PERTURBED[name])
        reports = [thm_exchange(s, m), thm_triangle(s, m), thm_tetrahedron(s, m), *vy_axioms(s, m)]
        save_reports(reports, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_bytes() == (PERTURBED_GOLDEN / f"{name}.json").read_bytes()


def seeded_mutant(s, k, seed=11):
    """Mutant k of ``s`` drawn from ``random.Random(seed)``: 1-3 incidences flipped."""
    rng = random.Random(seed)
    for _ in range(k + 1):
        count = rng.randint(1, 3)
        flips = sorted({tuple(sorted(rng.sample(range(s.line_count), 2))) for _ in range(count)})
    adj = np.array(s.adjacency)
    for i, j in flips:
        adj[i, j] = adj[j, i] = not adj[i, j]
    return IncidenceStructure(adj, labels=s.labels)


class TestTriadGoldens:
    """The triad checks keep their report bytes on failing PG(3,3) cases.

    tests/golden/perturbed/triads_seed11_<k>.json holds the structure-level
    triad checks, then thm_triad_typing and thm_exchange against the
    default model, on seeded mutant k; triad_typing.json holds
    thm_triad_typing on every PERTURBED case.  Both were recorded before the
    triad checks moved to array kernels.  On mutants 0-7,
    thm_sigma_equivalence fails at triads 326, 1,452, 1,265, 38, 746, 54,
    10 and 1,388; thm_coherence and thm_mutual_membership walk every triad.
    """

    @pytest.mark.parametrize("k", range(8))
    def test_mutant_reports_match_golden(self, k, pg3, pg3_model, tmp_path):
        t = seeded_mutant(pg3, k)
        reports = [
            thm_sigma_equivalence(t),
            thm_two_classes(t),
            thm_bracket_closed(t),
            thm_coherence(t),
            thm_mutual_membership(t),
            thm_triad_typing(t, pg3_model),
            thm_exchange(t, pg3_model),
        ]
        save_reports(reports, tmp_path / "r.json")
        golden = PERTURBED_GOLDEN / f"triads_seed11_{k}.json"
        assert (tmp_path / "r.json").read_bytes() == golden.read_bytes()

    def test_triad_typing_on_perturbed_models(self, pg3, pg3_model, tmp_path):
        cases = [perturbed(pg3, pg3_model, *PERTURBED[n]) for n in sorted(PERTURBED)]
        reports = [thm_triad_typing(s, m) for s, m in cases]
        save_reports(reports, tmp_path / "r.json")
        golden = PERTURBED_GOLDEN / "triad_typing.json"
        assert (tmp_path / "r.json").read_bytes() == golden.read_bytes()


def perp_reports(t, m):
    """The five checks over the distinct perps of ``t``: the last against
    ``m`` and, when ``t`` has a labeling of its own, against that too."""
    reports = [
        check_axiom2_2(t),
        check_axiom2_3(t),
        thm_bracket_welldefined(t),
        thm_regulus_skew(t),
        thm_pencil_intersection(t, m),
    ]
    try:
        own = coordinate_labels(t)
    except LinespaceError:
        return reports
    return reports + [thm_pencil_intersection(t, own)]


class TestPerpGoldens:
    """The five checks over distinct perps keep their report bytes, stats
    included, on failing structures.

    tests/golden/perturbed/perps_pg3<q>_<k>.json holds axioms 2.2 and 2.3,
    thm_bracket_welldefined, thm_regulus_skew and thm_pencil_intersection
    (against the default model of PG(3,q)) on seeded mutant k of PG(3,q),
    for 8 mutants of PG(3,3) and 24 of PG(3,2).  They were recorded before
    the five checks moved to kernels over the perp table; no mutant among
    them has a labeling of its own.
    """

    @pytest.mark.parametrize("q, k", [(3, k) for k in range(8)] + [(2, k) for k in range(24)])
    def test_mutant_reports_match_golden(self, q, k, pg2, pg2_model, pg3, pg3_model, tmp_path):
        s, m = (pg2, pg2_model) if q == 2 else (pg3, pg3_model)
        save_reports(perp_reports(seeded_mutant(s, k), m), tmp_path / "r.json")
        golden = PERTURBED_GOLDEN / f"perps_pg3{q}_{k}.json"
        assert (tmp_path / "r.json").read_bytes() == golden.read_bytes()


PERTURBED_REPLAYS = json.loads((PERTURBED_GOLDEN / "replays.json").read_text())


def replay_outcome(s, report, m):
    """What replaying ``report`` gives: its value, or the error it raises."""
    try:
        return replay_theorem_counterexample(s, report, m)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


class TestPerturbedSuiteGoldens:
    """The whole theorem suite and vy battery keep their report bytes on every
    PERTURBED case, and each failing report replays as it always has.

    tests/golden/perturbed/suite_<name>.json holds run_theorem_suite then
    vy_axioms against the case's model; replays.json holds, per case,
    each failing check with what its replay returned or raised.  Both were
    recorded before the checks moved to one registry.
    """

    @pytest.mark.parametrize("name", sorted(PERTURBED))
    def test_suite_bytes_and_replays(self, name, pg3, pg3_model, tmp_path):
        s, m = perturbed(pg3, pg3_model, *PERTURBED[name])
        reports = run_theorem_suite(s, m) + vy_axioms(s, m)
        save_reports(reports, tmp_path / "r.json")
        golden = PERTURBED_GOLDEN / f"suite_{name}.json"
        assert (tmp_path / "r.json").read_bytes() == golden.read_bytes()
        got = [[r.check_name, replay_outcome(s, r, m)] for r in reports if r.status == "fail"]
        assert got == PERTURBED_REPLAYS[name]


def test_mask_in_both_families_is_a_point(pg2, pg2_model):
    """A mask listed as a point and as a plane reads as a point everywhere:
    thm_exchange refines its triads by their point class, as the labeled
    classes do, so only the checks that forbid the overlap fail."""
    m = dataclasses.replace(pg2_model, planes=pg2_model.planes + pg2_model.points[:1])
    index = model_index(pg2, m)
    assert index.kind[index.points[0]] == 0 and index.kind[index.planes[-1]] == 0
    assert thm_exchange(pg2, m).to_dict() == thm_exchange(pg2, pg2_model).to_dict()
    assert thm_point_ne_plane(pg2, m).status == "fail"


# The model theorems that swapping points and planes maps to themselves.
SELF_DUAL = (
    thm_triad_typing,
    thm_point_ne_plane,
    thm_pencil_intersection,
    thm_exchange,
    thm_not_singleton,
    thm_uniqueness,
    thm_line_in_plane,
)


class TestDualMetamorphic:
    """A self-dual theorem gives the same verdict on a model and its dual.

    Duality swaps the point and plane families and maps each theorem in
    SELF_DUAL to itself, so on any structure its status against the
    default model and against ``dualize`` of that model must agree, pass
    or fail.  A check that treats the two kinds differently breaks this.
    The vy checks speak of points only, so their dual is another claim and
    they are left out.
    """

    def assert_dual_agrees(self, s, m):
        d = dualize(m)
        got = [(f.__name__, f(s, m).status, f(s, d).status) for f in SELF_DUAL]
        assert [(n, a) for n, a, _ in got] == [(n, b) for n, _, b in got]

    def test_projective_spaces(self, pg2, pg2_model, pg3, pg3_model):
        self.assert_dual_agrees(pg2, pg2_model)
        self.assert_dual_agrees(pg3, pg3_model)

    @pytest.mark.parametrize("name", [n for n in sorted(PERTURBED) if PERTURBED[n][0] == "flip"])
    def test_perturbed_flips(self, name, pg3, pg3_model):
        self.assert_dual_agrees(*perturbed(pg3, pg3_model, *PERTURBED[name]))

    @pytest.mark.parametrize("k", range(24))
    def test_seeded_flips(self, k, pg3, pg3_model):
        self.assert_dual_agrees(seeded_mutant(pg3, k), pg3_model)

    @pytest.mark.parametrize("name", ["tetra", "pg2", "pg3"])
    def test_whole_battery(self, name, request):
        """Duality as an oracle: every theorem report has the same status and
        stats on the default model and on its dual, and every vy check the
        same status.  Run on the dual, the vy checks check the dual axioms."""
        s = request.getfixturevalue(name)
        m = coordinate_labels(s)
        d = dualize(m)
        suite = lambda model: [(r.check_name, r.status, r.stats) for r in run_theorem_suite(s, model)]
        vy = lambda model: [(r.check_name, r.status) for r in vy_axioms(s, model)]
        assert suite(m) == suite(d)
        assert vy(m) == vy(d)


class TestPairIndex:
    """Every per-pair set is one row per perp, read through the perp table's
    pair-to-perp index."""

    @pytest.mark.parametrize("mutant", [False, True])
    def test_index_names_the_perp_of_each_incident_pair(self, mutant, pg2):
        s = seeded_mutant(pg2, 3) if mutant else pg2
        table = theorems.perp_table(s)
        index = table.index
        assert index.dtype == np.int32 and np.array_equal(index, index.T)
        off = ~s.adjacency | np.eye(s.line_count, dtype=bool)  # skew pairs and the diagonal
        assert (index[off] == -1).all() and (index[~off] >= 0).all()
        x, y = np.nonzero(~off)
        got = [table.masks[k] for k in index[x, y].tolist()]
        assert got == [s.masks[a] & s.masks[b] for a, b in zip(x.tolist(), y.tolist())]

    def test_index_is_built_on_first_use(self):
        s, _ = gen_pg3(2)
        check_axiom1(s), check_axiom2_1(s)
        assert "index" not in vars(theorems.perp_table(s))
        copy = IncidenceStructure(s.adjacency, labels=s.labels)
        m = coordinate_labels(copy)
        assert "index" not in vars(theorems.perp_table(copy))
        dualize(GeometryModel(structure=s, points=m.points, planes=m.planes, seed=m.seed))
        assert "index" not in vars(theorems.perp_table(s))

    def test_class_rows_built_once_per_model(self, monkeypatch):
        s, _ = gen_pg3(2)
        m = coordinate_labels(s)
        built = []
        monkeypatch.setattr(theorems, "bit_rows", lambda *a: built.append(a) or bit_rows(*a))
        for check in (thm_triad_typing, thm_pencil_intersection, thm_exchange, thm_triangle):
            assert check(s, m).passed
        assert len(built) == 2  # the point rows and the plane rows

    def test_battery_builds_one_perp_table(self):
        """Each distinct perp's lines, skew rows, sigma set and sigma classes
        come from the one walk of ``perp_table``; no second table of sigma
        classes is cached."""
        s, _ = gen_pg3(3)
        assert all(r.passed for r in run_checks(s, ("axioms", "theorems", "vy")))
        kinds = [key if isinstance(key, str) else key[0] for key in s._cache]
        assert kinds.count("perp_table") == 1
        assert "sigma_classes" not in kinds

    def test_battery_builds_one_shared_lines_table(self, monkeypatch):
        """The labeling's table over the derived elements is the one every
        model check reads, and the element masks become an incidence array
        once, read by the labeling, the model index and the triad checks."""
        s, _ = gen_pg3(3)
        converted = []
        spy = lambda masks, width: converted.append(tuple(masks)) or _incidence(masks, width)
        for module in (labeling, theorems):
            monkeypatch.setattr(module, "_incidence", spy, raising=False)
        assert all(r.passed for r in run_checks(s, ("axioms", "theorems", "vy")))
        emasks = element_masks(s)
        keys = [key for key in s._cache if isinstance(key, tuple) and key[0] == "shared_lines"]
        assert keys == [("shared_lines", emasks)]
        assert converted == [emasks]
