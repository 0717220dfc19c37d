"""Sigma sets, their class partition, triads and their brackets."""

import pytest

from linespace import (
    NEGATIVE_KINDS,
    IncidenceStructure,
    NotTwoClassesError,
    PreconditionError,
    bracket,
    gen_negative,
    incident_pairs,
    perp,
    sigma,
    sigma_partition,
)
from linespace.core import perp_table

from conftest import names_for
from test_theorems import seeded_mutant


def oracle_sigma(s, a, b):
    """Independent route: perp of the pair minus its double perp, via sets."""
    ab = perp(s, (a, b))
    dd = perp(s, ab)
    return ab - dd


class TestSigma:
    def test_tetra_sigma_ab(self, tetra):
        assert names_for(tetra, sigma(tetra, 0, 1)) == ["c", "ch"]

    def test_tetra_sigma_hatted_pair(self, tetra):
        # sigma(ah, bh) evaluates over the same four-line bracket
        assert names_for(tetra, sigma(tetra, 3, 4)) == ["c", "ch"]

    def test_symmetric_in_arguments(self, tetra):
        assert sigma(tetra, 0, 1) == sigma(tetra, 1, 0)

    def test_matches_oracle_everywhere(self, tetra, pg2):
        for s in (tetra, pg2):
            for a, b in incident_pairs(s):
                assert sigma(s, a, b) == oracle_sigma(s, a, b)

    def test_pg2_sigma_size(self, pg2):
        # 2 q^2 lines for every incident distinct pair
        for a, b in incident_pairs(pg2):
            assert len(sigma(pg2, a, b)) == 8

    def test_identical_arguments_rejected(self, tetra):
        with pytest.raises(PreconditionError, match="distinct"):
            sigma(tetra, 2, 2)

    def test_skew_pair_rejected(self, tetra):
        with pytest.raises(PreconditionError, match="skew"):
            sigma(tetra, 0, 3)


class TestSigmaPartition:
    def test_tetra_classes(self, tetra):
        part = sigma_partition(tetra, 0, 1)
        assert names_for(tetra, part.class_0) == ["c"]
        assert names_for(tetra, part.class_1) == ["ch"]
        assert sigma(tetra, 0, 1) == part.class_0 | part.class_1

    def test_pg2_class_sizes(self, pg2):
        # q^2 lines per class
        for a, b in incident_pairs(pg2):
            part = sigma_partition(pg2, a, b)
            assert len(part.class_0) == 4
            assert len(part.class_1) == 4

    def test_class_0_holds_least_line(self, pg2):
        for a, b in incident_pairs(pg2)[:40]:
            part = sigma_partition(pg2, a, b)
            assert min(sigma(pg2, a, b)) in part.class_0

    def test_classes_are_cliques_and_cross_skew(self, pg2):
        adj = pg2.adjacency
        for a, b in incident_pairs(pg2)[:20]:
            part = sigma_partition(pg2, a, b)
            for cls in part.classes:
                for x in cls:
                    for y in cls:
                        assert adj[x, y]
            for x in part.class_0:
                for y in part.class_1:
                    assert not adj[x, y]

    def test_transitivity_violation_raises_with_witness(self):
        # Six lines; z sits in sigma(a, b) but the incidence there chains
        # z - x - w with z skew to w, collapsing sigma into one class.
        s = IncidenceStructure.from_skew_pairs(
            6, [(2, 3), (4, 5)], labels=("a", "b", "z", "w", "x", "y")
        )
        with pytest.raises(NotTwoClassesError) as exc:
            sigma_partition(s, 0, 1)
        witness = exc.value.witness
        assert witness["pair"] == ["a", "b"]
        assert witness["class_count"] == 1

    def test_empty_sigma_raises(self):
        s = IncidenceStructure.from_skew_pairs(4, [])
        with pytest.raises(NotTwoClassesError) as exc:
            sigma_partition(s, 0, 1)
        assert exc.value.witness["class_count"] == 0

    def test_transitivity_witness_shape(self):
        # Two components inside sigma(a, b), one of which is a chain rather
        # than a clique: p - q - r with p skew to r, s isolated.
        s = IncidenceStructure.from_skew_pairs(
            6,
            [(2, 4), (2, 5), (3, 5), (4, 5)],
            labels=("a", "b", "p", "q", "r", "s"),
        )
        assert names_for(s, sigma(s, 0, 1)) == ["p", "q", "r", "s"]
        with pytest.raises(NotTwoClassesError) as exc:
            sigma_partition(s, 0, 1)
        w = exc.value.witness
        p, q, r = (s.index(w[k]) for k in ("p", "q", "r"))
        assert s.adjacency[p, q] and s.adjacency[q, r]
        assert not s.adjacency[p, r]

    def test_partition_agrees_with_the_perp_table(self, tetra, pg2, pg3):
        """On every incident pair of the fixtures, PG(3,2), PG(3,3) and its
        seeded mutants, sigma_partition over a fresh copy splits where the
        perp table of the structure does, into its classes, and raises
        elsewhere; the copy is left with the sigma memo alone."""
        for s in (tetra, *map(gen_negative, NEGATIVE_KINDS), pg2, pg3, *(seeded_mutant(pg3, k) for k in range(12))):
            fresh, table = IncidenceStructure(s.adjacency, labels=s.labels), perp_table(s)
            for (a, b), k in zip(table.pairs.tolist(), table.perp.tolist()):
                if table.split[k]:
                    assert sigma_partition(fresh, a, b).class_masks == table.classes[k]
                else:
                    with pytest.raises(NotTwoClassesError):
                        sigma_partition(fresh, a, b)
            assert {key if isinstance(key, str) else key[0] for key in fresh._cache} <= {"sigma"}, s.name


class TestTriads:
    """A triad is three pairwise incident lines, the third in the sigma set
    of the first two; its secondary element is its bracket."""

    def test_tetra_triad(self, tetra):
        assert all(tetra.adjacency[x, y] for x, y in ((0, 1), (1, 2), (0, 2)))  # a, b, c
        assert 2 in sigma(tetra, 0, 1)

    def test_not_pairwise_incident(self, tetra):
        assert not tetra.adjacency[0, 3]  # ah is skew to a

    def test_secondary_element_tetra(self, tetra):
        assert names_for(tetra, bracket(tetra, 0, 1, 2)) == ["a", "b", "c"]
        assert names_for(tetra, bracket(tetra, 0, 1, 5)) == ["a", "b", "ch"]

    def test_secondary_element_size_pg2(self, pg2):
        for a, b in incident_pairs(pg2)[:10]:
            for c in sorted(sigma(pg2, a, b)):
                assert len(bracket(pg2, a, b, c)) == 7


class TestSigmaInvariants:
    def test_membership_symmetry_tetra(self, tetra):
        import itertools

        for a, b, c in itertools.permutations(range(6), 3):
            conds = []
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                if x != y and tetra.adjacency[x, y]:
                    conds.append(z in sigma(tetra, x, y))
                else:
                    conds.append(False)
            assert len(set(conds)) == 1

    def test_class_covering(self, tetra, pg2):
        # perp of the pair is the union of the two class brackets
        for s in (tetra, pg2):
            for a, b in incident_pairs(s)[:30]:
                part = sigma_partition(s, a, b)
                union = bracket(s, a, b, min(part.class_0)) | bracket(
                    s, a, b, min(part.class_1)
                )
                assert union == perp(s, (a, b))

    def test_welldefined_within_class(self, pg2):
        for a, b in incident_pairs(pg2)[:20]:
            part = sigma_partition(pg2, a, b)
            for cls in part.classes:
                brackets = {bracket(pg2, a, b, c) for c in cls}
                assert len(brackets) == 1
