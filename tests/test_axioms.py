"""Axiom checkers: expected vectors, witnesses, machine-checkable replay."""

import dataclasses

import pytest

from linespace import (
    IncidenceStructure,
    NEGATIVE_EXPECTATIONS,
    NEGATIVE_KINDS,
    check_all,
    check_axiom1,
    check_axiom2_1,
    check_axiom2_2,
    check_axiom2_3,
    check_axiom3,
    check_axiom4,
    gen_negative,
    replay_counterexample,
)
from linespace.registry import names


def status_vector(s):
    return {r.check_name: r.status for r in check_all(s)}


class TestTetrahedronVector:
    def test_only_first_axiom_fails(self, tetra):
        vec = status_vector(tetra)
        assert vec == {
            "axiom1": "fail",
            "axiom2_1": "pass",
            "axiom2_2": "pass",
            "axiom2_3": "pass",
            "axiom3": "pass",
            "axiom4": "pass",
        }

    def test_axiom1_counterexample_names_least_line(self, tetra):
        r = check_axiom1(tetra)
        assert r.counterexample["line"] == "a"
        assert replay_counterexample(tetra, r)

    def test_axiom3_witness_per_element(self, tetra):
        r = check_axiom3(tetra)
        assert r.passed
        assert len(r.witness_sample["per_element"]) == 8


class TestPg2Vector:
    def test_all_pass(self, pg2):
        assert all(r.passed for r in check_all(pg2))

    def test_fixed_order(self, pg2):
        assert [r.check_name for r in check_all(pg2)] == list(names("axioms"))

    def test_witness_samples_present(self, pg2):
        r1 = check_axiom1(pg2)
        assert r1.witness_sample["line"] == pg2.labels[0]
        assert len(r1.witness_sample["skew_triple"]) == 3
        r21 = check_axiom2_1(pg2)
        assert len(r21.witness_sample["skew_pair"]) == 2


class TestNegativeFixtures:
    @pytest.mark.parametrize("kind", NEGATIVE_KINDS)
    def test_expected_vector_exact(self, kind):
        s = gen_negative(kind)
        assert status_vector(s) == NEGATIVE_EXPECTATIONS[kind]["vector"]

    @pytest.mark.parametrize("kind", NEGATIVE_KINDS)
    def test_documented_axiom_does_fail(self, kind):
        vector = NEGATIVE_EXPECTATIONS[kind]["vector"]
        for name in NEGATIVE_EXPECTATIONS[kind]["documented"]:
            assert vector[name] != "pass"

    @pytest.mark.parametrize("kind", NEGATIVE_KINDS)
    def test_every_counterexample_replays(self, kind):
        s = gen_negative(kind)
        for r in check_all(s):
            if r.counterexample is not None:
                assert replay_counterexample(s, r), (kind, r.check_name, r.counterexample)

    def test_pasch_violation_witness_shape(self):
        s = gen_negative("pasch_violation")
        r = check_axiom2_2(s)
        ce = r.counterexample
        assert ce["pair"] == ["a", "b"]
        x, y = s.index(ce["x"]), s.index(ce["y"])
        assert not s.adjacency[x, y]

    def test_two_components_axiom4_witness(self):
        s = gen_negative("two_components")
        r = check_axiom4(s)
        assert r.status == "fail"
        assert replay_counterexample(s, r)

    def test_no_skew_axiom4_dependency(self):
        s = gen_negative("no_skew_anywhere")
        r = check_axiom4(s)
        assert r.status == "dependency_unmet"
        assert not r.passed
        assert r.counterexample["issue"] == "sigma_not_two_classes"
        assert replay_counterexample(s, r)


class TestAxiom23Formulations:
    def test_covering_formulation_agrees(self, tetra):
        # perp(pair) equals the union of the two single-extension brackets
        from linespace import bracket, perp, incident_pairs
        from linespace.core import find_skew_pair_mask

        for a, b in incident_pairs(tetra):
            members = perp(tetra, (a, b))
            pair = find_skew_pair_mask(tetra, tetra.masks[a] & tetra.masks[b])
            assert pair is not None
            x, y = pair
            assert members == bracket(tetra, a, b, x) | bracket(tetra, a, b, y)


class TestHandmadeViolations:
    def test_axiom2_3_failure_and_replay(self):
        # perp({a,b}) = {a,b,x,y,v} with x | y and v skew to both.
        s = IncidenceStructure.from_skew_pairs(
            7,
            [(2, 3), (2, 4), (3, 4), (2, 6), (3, 6), (4, 5)],
            labels=("a", "b", "x", "y", "v", "w", "u"),
        )
        r = check_axiom2_3(s)
        assert r.status == "fail"
        assert replay_counterexample(s, r)

    def test_axiom3_single_element_fails(self):
        # One element only: nothing disjoint exists.
        # Five lines, sigma(a, b) = {x, y} both extending to overlapping brackets.
        s = IncidenceStructure.from_skew_pairs(5, [(2, 3)], labels=("a", "b", "x", "y", "z"))
        r = check_axiom3(s)
        assert r.status == "fail"
        assert replay_counterexample(s, r)

    def test_one_line_structure(self):
        s = IncidenceStructure.from_skew_pairs(1, [])
        r = check_axiom1(s)
        assert r.status == "fail"
        assert replay_counterexample(s, r)


def scalar_axiom2_1(s):
    """Axiom 2.1 by a plain walk of every incident pair: (pairs walked, the
    first failing pair or None, the first pair's least skew pair)."""
    adj = s.adjacency.tolist()
    n = len(adj)
    walked, first_skew = 0, None
    for a in range(n):
        for b in range(a + 1, n):
            if not adj[a][b]:
                continue
            walked += 1
            members = [x for x in range(n) if adj[a][x] and adj[b][x]]
            skew = next(((x, y) for x in members for y in members if x < y and not adj[x][y]), None)
            if skew is None:
                return walked, (a, b), first_skew
            first_skew = first_skew or skew
    return walked, None, first_skew


class TestAxiom21Kernel:
    """The packed-row test settles a pair only when the least line of its
    perp has a skew partner there; every other pair goes to the scalar search."""

    # Lines 0, 1 and 2 meet every line, and 3, 4, 5 are pairwise skew: the
    # perp of (0, 1) and of (0, 2) is every line, its least line 0 meets all
    # of them, yet it holds skew pairs; (0, 3), the third pair, fails.
    FAILING = IncidenceStructure.from_skew_pairs(6, [(3, 4), (3, 5), (4, 5)])

    @staticmethod
    def least_line_meets_its_perp(s, a, b):
        adj = s.adjacency
        members = [x for x in range(s.line_count) if adj[a, x] and adj[b, x]]
        return all(adj[members[0], y] for y in members)

    def test_failure_after_perps_the_rows_cannot_settle(self):
        s = self.FAILING
        assert self.least_line_meets_its_perp(s, 0, 1)
        walked, pair, _ = scalar_axiom2_1(s)
        assert (walked, pair) == (3, (0, 3))
        r = check_axiom2_1(s)
        assert r.status == "fail"
        assert r.stats == {"pairs_examined": walked}
        assert r.counterexample["pair"] == [s.labels[x] for x in pair]
        assert replay_counterexample(s, r)

    def test_pass_with_perps_the_rows_cannot_settle(self, pg2):
        walked, pair, skew = scalar_axiom2_1(pg2)
        assert pair is None
        pairs = [(a, b) for a in range(pg2.line_count) for b in range(a + 1, pg2.line_count) if pg2.adjacency[a, b]]
        assert any(self.least_line_meets_its_perp(pg2, a, b) for a, b in pairs)
        r = check_axiom2_1(pg2)
        assert r.status == "pass" and r.stats == {"pairs_examined": walked}
        assert r.witness_sample == {
            "pair": [pg2.labels[x] for x in pairs[0]],
            "skew_pair": [pg2.labels[x] for x in skew],
        }


class TestReportShape:
    def test_to_dict_roundtrip_fields(self, tetra):
        for r in check_all(tetra):
            d = r.to_dict()
            assert d["check_name"] == r.check_name
            assert d["passed"] == r.passed
            assert d["status"] == r.status
            assert "stats" in d

    def test_stats_count_cases(self, tetra):
        r = check_axiom2_2(tetra)
        assert r.stats["triples_examined"] == 24  # 12 pairs x 2 sigma lines

    def test_axiom4_counts_each_family(self, pg2, pg2_model, monkeypatch):
        # a labeling with one plane fewer than points tells the two counts apart
        from linespace import labeling

        fewer = dataclasses.replace(pg2_model, planes=pg2_model.planes[1:])
        monkeypatch.setattr(labeling, "coordinate_labels", lambda s: fewer)
        r = check_axiom4(pg2)
        assert (r.status, r.stats["points"], r.stats["planes"]) == ("pass", 15, 14)

    def test_replay_requires_counterexample(self, tetra):
        r = check_axiom2_1(tetra)
        with pytest.raises(ValueError):
            replay_counterexample(tetra, r)
