"""Property-based checks of the perp operator and sigma machinery."""

import itertools

from hypothesis import given, settings, strategies as st

from linespace import (
    IncidenceStructure,
    NotTwoClassesError,
    bracket,
    perp,
    sigma,
    sigma_partition,
)


@st.composite
def structures(draw, min_lines=1, max_lines=16):
    n = draw(st.integers(min_lines, max_lines))
    all_pairs = list(itertools.combinations(range(n), 2))
    if all_pairs:
        skew = draw(st.sets(st.sampled_from(all_pairs)))
    else:
        skew = set()
    return IncidenceStructure.from_skew_pairs(n, skew)


@st.composite
def structure_and_subsets(draw):
    s = draw(structures())
    lines = st.integers(0, s.line_count - 1)
    s1 = draw(st.frozensets(lines, max_size=s.line_count))
    s2 = draw(st.frozensets(lines, max_size=s.line_count))
    return s, s1, s2


@given(structure_and_subsets())
@settings(max_examples=200, deadline=None)
def test_perp_is_antitone(case):
    s, s1, s2 = case
    small, large = (s1, s1 | s2)
    assert perp(s, large) <= perp(s, small)


@given(structure_and_subsets())
@settings(max_examples=200, deadline=None)
def test_perp_is_extensive(case):
    s, s1, _ = case
    assert s1 <= perp(s, perp(s, s1))


@given(structure_and_subsets())
@settings(max_examples=200, deadline=None)
def test_perp_is_idempotent_after_one_step(case):
    s, s1, _ = case
    once = perp(s, s1)
    assert perp(s, perp(s, once)) == once


@given(structure_and_subsets())
@settings(max_examples=200, deadline=None)
def test_perp_is_intersection_of_brackets(case):
    s, s1, _ = case
    expected = frozenset(range(s.line_count))
    for l in s1:
        expected &= bracket(s, l)
    assert perp(s, s1) == expected


@given(structures(min_lines=2))
@settings(max_examples=150, deadline=None)
def test_sigma_symmetric_and_partition_sound(s):
    for a in range(s.line_count):
        for b in range(a + 1, s.line_count):
            if not s.adjacency[a, b]:
                continue
            assert sigma(s, a, b) == sigma(s, b, a)
            try:
                part = sigma_partition(s, a, b)
            except NotTwoClassesError:
                continue
            assert part.class_0 | part.class_1 == sigma(s, a, b)
            assert not (part.class_0 & part.class_1)
            assert min(sigma(s, a, b)) in part.class_0
            for cls in part.classes:
                for x in cls:
                    for y in cls:
                        assert s.adjacency[x, y]
            for x in part.class_0:
                for y in part.class_1:
                    assert not s.adjacency[x, y]


@given(structures())
@settings(max_examples=100, deadline=None)
def test_reflexive_diagonal_and_bracket_membership(s):
    for l in range(s.line_count):
        assert l in bracket(s, l)


@given(structures())
@settings(max_examples=100, deadline=None)
def test_skew_pairs_sorted_canonically(s):
    pairs = s.skew_pairs()
    assert pairs == sorted(pairs)
    assert all(i < j for i, j in pairs)
