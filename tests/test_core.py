"""Core structure construction and perp/bracket behavior."""

import numpy as np
import pytest

from linespace import (
    NEGATIVE_KINDS,
    CapacityError,
    IncidenceStructure,
    StructureError,
    bracket,
    coordinate_labels,
    find_skew_triple,
    gen_negative,
    incident_pairs,
    perp,
)
from linespace.core import (
    find_skew_pair_mask,
    find_skew_triple_mask,
    line_cap,
    lines_of_mask,
    mask_of_lines,
    perp_table,
)

from conftest import names_for


def oracle_perp(s, members):
    """Independent perp: direct double loop over the adjacency matrix."""
    return frozenset(
        l
        for l in range(s.line_count)
        if all(s.adjacency[l, x] for x in members)
    )


class TestConstruction:
    def test_from_skew_pairs_counts(self, tetra):
        assert tetra.line_count == 6
        assert tetra.skew_pairs() == [(0, 3), (1, 4), (2, 5)]
        assert len(incident_pairs(tetra)) == 12  # C(6,2) - 3

    def test_adjacency_is_reflexive_and_symmetric(self, tetra):
        adj = tetra.adjacency
        assert adj.diagonal().all()
        assert (adj == adj.T).all()

    def test_asymmetric_matrix_rejected(self):
        adj = np.ones((3, 3), dtype=bool)
        adj[0, 1] = False
        with pytest.raises(StructureError, match="symmetric"):
            IncidenceStructure(adj)

    def test_false_diagonal_rejected(self):
        adj = np.ones((2, 2), dtype=bool)
        adj[1, 1] = False
        with pytest.raises(StructureError, match="itself"):
            IncidenceStructure(adj)

    def test_skew_self_pair_rejected(self):
        with pytest.raises(StructureError, match="itself"):
            IncidenceStructure.from_skew_pairs(3, [(1, 1)])

    def test_duplicate_skew_pairs_accepted(self):
        s1 = IncidenceStructure.from_skew_pairs(3, [(0, 1), (1, 0), (0, 1)])
        s2 = IncidenceStructure.from_skew_pairs(3, [(0, 1)])
        assert s1 == s2

    def test_duplicate_labels_rejected(self):
        with pytest.raises(StructureError, match="unique"):
            IncidenceStructure.from_skew_pairs(2, [], labels=("x", "x"))

    def test_capacity_enforced(self, monkeypatch):
        monkeypatch.setenv("LINESPACE_MAX_LINES", "8")
        assert line_cap() == 8
        with pytest.raises(CapacityError):
            IncidenceStructure.from_skew_pairs(9, [])
        IncidenceStructure.from_skew_pairs(8, [])

    def test_capacity_checked_before_allocation(self, monkeypatch):
        # A structure over the cap must raise before any n-by-n matrix exists.
        allocations = []

        def spy(shape, *args, **kwargs):
            allocations.append(shape)
            raise AssertionError(f"allocated {shape} before the cap check")

        monkeypatch.setenv("LINESPACE_MAX_LINES", "8")
        for name in ("ones", "zeros", "empty", "full"):
            monkeypatch.setattr(np, name, spy)
        with pytest.raises(CapacityError, match="9 lines, cap is 8"):
            IncidenceStructure.from_skew_pairs(9, [(0, 1)])
        assert allocations == []

    @pytest.mark.parametrize("raw", ["46340", "100000", "0", "-3"])
    def test_capacity_outside_int32_keys_rejected(self, monkeypatch, raw):
        # n * (n + 1) + n must fit an int32 key: 46,339 lines is the largest cap
        monkeypatch.setenv("LINESPACE_MAX_LINES", raw)
        with pytest.raises(CapacityError, match=r"must be in \[1, 46339\]"):
            line_cap()
        monkeypatch.setenv("LINESPACE_MAX_LINES", "46339")
        assert line_cap() == 46339

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(0, 1), (2, 4), (5, 1)], r"skew pair \(2, 4\) out of range"),
            ([(0, 1), (-1, 2), (1, 1)], r"skew pair \(-1, 2\) out of range"),
            ([(0, 1), (2, 2), (0, 9)], "line 2 cannot be skew to itself"),
            # an entry that is not two indices, before any range is checked
            ([(0, 1.5)], r"skew pair \(0, 1\.5\) must be two indices"),
            (np.array([[0, 1.7]]), r"skew pair \[0\.0, 1\.7\] must be two indices"),
            ([(0, 9), (True, 2)], r"skew pair \(True, 2\) must be two indices"),
            ([(0, 1), (2,)], r"skew pair \(2,\) must be two indices"),
            ([("0", "1")], r"skew pair \('0', '1'\) must be two indices"),
        ],
    )
    def test_first_bad_pair_is_named(self, pairs, message):
        with pytest.raises(StructureError, match=message):
            IncidenceStructure.from_skew_pairs(4, pairs)

    def test_fill_matches_pair_loop(self):
        rng = np.random.default_rng(5)
        for n in (2, 7, 40):
            pairs = [tuple(p) for p in rng.integers(0, n, size=(3 * n, 2)) if p[0] != p[1]]
            expected = np.ones((n, n), dtype=bool)
            for i, j in pairs:
                expected[i, j] = expected[j, i] = False
            s = IncidenceStructure.from_skew_pairs(n, pairs)
            assert np.array_equal(s.adjacency, expected)

    def test_masks_match_bit_loop(self, tetra, pg2):
        for s in (tetra, pg2, IncidenceStructure.from_skew_pairs(0)):
            expected = tuple(
                sum(1 << j for j in range(s.line_count) if s.adjacency[i, j])
                for i in range(s.line_count)
            )
            assert s.masks == expected

    def test_adjacency_is_frozen(self, tetra):
        with pytest.raises(ValueError):
            tetra.adjacency[0, 0] = False

    def test_empty_structure_allowed(self):
        s = IncidenceStructure.from_skew_pairs(0, [])
        assert s.line_count == 0
        assert perp(s, []) == frozenset()
        assert IncidenceStructure.from_skew_pairs(2, np.array([])).skew_pairs() == []  # float64, and empty


class TestIncidentPairs:
    """incident_pairs is one read-only (P, 2) int32 array of sorted rows."""

    @pytest.fixture(params=["tetrahedron", "pg2", *NEGATIVE_KINDS])
    def structure(self, request, tetra, pg2):
        return {"tetrahedron": tetra, "pg2": pg2}.get(request.param) or gen_negative(request.param)

    def test_equals_the_pair_loop(self, structure):
        n, adj = structure.line_count, structure.adjacency
        loop = [[a, b] for a in range(n) for b in range(a + 1, n) if adj[a, b]]
        pairs = incident_pairs(structure)
        assert pairs.dtype == np.int32 and pairs.shape == (len(loop), 2)
        assert pairs.tolist() == loop

    def test_read_only_cached_and_shared_with_the_perp_table(self, structure):
        pairs = incident_pairs(structure)
        assert not pairs.flags.writeable
        with pytest.raises(ValueError):
            pairs[:1] = 0
        assert incident_pairs(structure) is pairs
        assert perp_table(structure).pairs is pairs

    def test_no_pairs_derives_the_empty_model(self):
        s = gen_negative("single_line")
        assert incident_pairs(s).shape == (0, 2)
        m = coordinate_labels(s)
        assert (m.points, m.planes, m.seed) == ((), (), None)


class TestIncidence:
    def test_opposite_edges_skew(self, tetra):
        assert not tetra.adjacency[0, 3]  # a | ah

    def test_reflexive(self, tetra):
        assert tetra.adjacency.diagonal().all()

    def test_cross_edges_incident(self, tetra):
        assert tetra.adjacency[0, 4]  # a meets bh

    def test_index_out_of_range(self, tetra):
        with pytest.raises(StructureError, match="out of range"):
            tetra.check_index(6)


class TestPerpAndBracket:
    def test_perp_pair_exact(self, tetra):
        assert names_for(tetra, perp(tetra, (0, 1))) == ["a", "b", "c", "ch"]

    def test_perp_empty_is_all(self, tetra):
        assert perp(tetra, ()) == frozenset(range(6))

    def test_perp_matches_oracle_on_tetra(self, tetra):
        import itertools

        for r in range(4):
            for members in itertools.combinations(range(6), r):
                assert perp(tetra, members) == oracle_perp(tetra, members)

    def test_perp_singleton_size_pg2(self, pg2):
        # every line of PG(3,2) meets 19 lines including itself
        for l in range(pg2.line_count):
            assert len(perp(pg2, [l])) == 19

    def test_bracket_equals_perp_of_set(self, tetra):
        assert bracket(tetra, 0, 1, 2) == perp(tetra, {0, 1, 2})

    def test_bracket_examples(self, tetra):
        assert names_for(tetra, bracket(tetra, 0, 1, 2)) == ["a", "b", "c"]
        assert names_for(tetra, bracket(tetra, 0)) == ["a", "b", "bh", "c", "ch"]

    def test_bracket_duplicates_ignored(self, tetra):
        assert bracket(tetra, 0, 0, 1) == bracket(tetra, 0, 1)

    def test_bracket_empty_args(self, tetra):
        assert bracket(tetra) == frozenset(range(6))

    def test_bracket_contains_line(self, pg2):
        for l in range(pg2.line_count):
            assert l in bracket(pg2, l)


class TestSkewSearch:
    def test_skew_pair_in_tetra_bracket(self, tetra):
        assert find_skew_pair_mask(tetra, mask_of_lines(perp(tetra, (0, 1)))) == (2, 5)  # c, ch

    def test_skew_pair_singleton_absent(self, tetra):
        assert find_skew_pair_mask(tetra, mask_of_lines([0])) is None

    def test_skew_pair_present_in_every_pg2_perp(self, pg2):
        for l in range(pg2.line_count):
            x, y = find_skew_pair_mask(pg2, mask_of_lines(perp(pg2, [l])))
            assert x < y and not pg2.adjacency[x, y]

    def test_skew_triple_absent_in_tetra(self, tetra):
        assert find_skew_triple(tetra, bracket(tetra, 0)) is None

    def test_skew_triple_present_in_every_pg2_perp(self, pg2):
        for l in range(pg2.line_count):
            triple = find_skew_triple(pg2, perp(pg2, [l]))
            assert triple is not None
            x, y, z = triple
            adj = pg2.adjacency
            assert not (adj[x, y] or adj[y, z] or adj[x, z])

    def test_skew_triple_small_input(self, tetra):
        assert find_skew_triple(tetra, [0, 3]) is None

    def test_mask_searches_take_the_perp_mask(self, pg2):
        for l in range(pg2.line_count):
            members = perp(pg2, [l])
            assert find_skew_triple_mask(pg2, pg2.masks[l]) == find_skew_triple(pg2, members)

    def test_skew_triple_validates_indices(self, tetra):
        with pytest.raises(StructureError, match="out of range"):
            find_skew_triple(tetra, [0, 6])


class TestMaskHelpers:
    def test_roundtrip(self):
        assert lines_of_mask(mask_of_lines([5, 1, 3])) == [1, 3, 5]

    def test_empty(self):
        assert lines_of_mask(0) == []
        assert mask_of_lines([]) == 0
