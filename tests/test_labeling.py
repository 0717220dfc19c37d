"""Element enumeration, coordinated labeling, meet/join, duality."""

import hashlib
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linespace import (
    GeometryModel,
    IncidenceStructure,
    Kind,
    LabelInconsistencyError,
    LinespaceError,
    MissingElementError,
    PreconditionError,
    SecondaryElement,
    check_axiom4,
    coordinate_labels,
    dualize,
    enumerate_secondary_elements,
    gen_negative,
    gen_tetrahedron,
    incident_pairs,
    join_plane,
    meet_point,
    perp,
    sigma_partition,
)
from linespace.core import mask_of_lines, perp_table
from linespace.labeling import element_masks, model_index, shared_lines
from linespace.theorems import _classes_at

from conftest import names_for
from test_model_oracle import perturbed_families
from test_theorems import PERTURBED, perturbed, seeded_mutant


def named_family(s, family):
    return sorted(sorted(s.labels[i] for i in e) for e in family)


class TestEnumeration:
    def test_tetra_eight_elements(self, tetra):
        elements = enumerate_secondary_elements(tetra)
        assert len(elements) == 8
        expected = [
            ["a", "b", "c"],
            ["a", "b", "ch"],
            ["a", "bh", "c"],
            ["a", "bh", "ch"],
            ["ah", "b", "c"],
            ["ah", "b", "ch"],
            ["ah", "bh", "c"],
            ["ah", "bh", "ch"],
        ]
        assert sorted(names_for(tetra, e) for e in elements) == expected

    def test_pg2_thirty_elements_of_seven(self, pg2):
        elements = enumerate_secondary_elements(pg2)
        assert len(elements) == 30
        assert all(len(e) == 7 for e in elements)

    def test_no_incident_pairs_no_elements(self):
        s = IncidenceStructure.from_skew_pairs(3, [(0, 1), (0, 2), (1, 2)])
        assert enumerate_secondary_elements(s) == []

    def test_elements_are_perp_closed(self, tetra, pg2):
        for s in (tetra, pg2):
            for e in enumerate_secondary_elements(s):
                assert perp(s, e) == e


class TestCoordinateLabels:
    def test_tetra_seeded_vertices_as_points(self, tetra):
        m = coordinate_labels(tetra, (0, 1, 1))
        assert named_family(tetra, m.points) == [
            ["a", "b", "ch"],
            ["a", "bh", "c"],
            ["ah", "b", "c"],
            ["ah", "bh", "ch"],
        ]
        assert named_family(tetra, m.planes) == [
            ["a", "b", "c"],
            ["a", "bh", "ch"],
            ["ah", "b", "ch"],
            ["ah", "bh", "c"],
        ]

    def test_table_that_disagrees_with_the_definitions_is_loud(self, pg2):
        # a perp table doctored to find no split where sigma_partition, from
        # the definitions, finds one: the labeling raises, not mislabels
        s = IncidenceStructure(pg2.adjacency, labels=pg2.labels)
        perp_table(s).split[0] = False
        with pytest.raises(AssertionError, match="perp_table finds no split where sigma_witness finds one"):
            coordinate_labels(s)

    def test_default_seed_deterministic(self, tetra):
        m1 = coordinate_labels(tetra)
        m2 = coordinate_labels(tetra)
        assert m1 == m2
        assert m1.seed == (0, 1, 0)

    def test_swapped_seed_swaps_kinds(self, tetra):
        m0 = coordinate_labels(tetra, (0, 1, 0))
        m1 = coordinate_labels(tetra, (0, 1, 1))
        assert m0.points == m1.planes
        assert m0.planes == m1.points

    def test_pg2_counts(self, pg2_model):
        assert len(pg2_model.points) == 15
        assert len(pg2_model.planes) == 15
        assert all(len(e) == 7 for e in pg2_model.points + pg2_model.planes)

    def test_empty_structure_empty_model(self):
        s = IncidenceStructure.from_skew_pairs(2, [(0, 1)])
        m = coordinate_labels(s)
        assert m.points == () and m.planes == () and m.seed is None

    def test_two_components_inconsistent(self):
        # Everything in the far component misses the seed point, so both
        # sigma classes of its pairs land on the plane side; the pair
        # coverage check trips first, on the least second-component pair.
        s = gen_negative("two_components")
        with pytest.raises(LabelInconsistencyError) as exc:
            coordinate_labels(s)
        witness = exc.value.witness
        assert witness["issue"] == "pair_classes_same_kind"
        assert witness["pair"] == ["a2", "b2"]
        assert witness["kind"] == "plane"

    def test_failed_labeling_raises_on_every_call(self):
        s = gen_negative("two_components")
        for _ in range(2):
            with pytest.raises(LabelInconsistencyError):
                coordinate_labels(s)

    def test_model_cached_per_normalized_seed(self, tetra):
        m = coordinate_labels(tetra)
        assert coordinate_labels(tetra, m.seed) is m
        assert coordinate_labels(tetra, (m.seed[1], m.seed[0], m.seed[2])) is m
        assert coordinate_labels(tetra, m.seed[:2] + (1,)) is not m

    def test_bad_seed_rejected(self, tetra):
        with pytest.raises(PreconditionError):
            coordinate_labels(tetra, (0, 0, 0))
        with pytest.raises(PreconditionError):
            coordinate_labels(tetra, (0, 3, 0))  # skew pair
        with pytest.raises(PreconditionError):
            coordinate_labels(tetra, (0, 1, 2))

    def test_every_pair_covered_one_point_one_plane(self, pg2, pg2_model):
        from linespace import sigma_partition, bracket

        point_set = {frozenset(e) for e in pg2_model.points}
        plane_set = {frozenset(e) for e in pg2_model.planes}
        for a, b in incident_pairs(pg2):
            part = sigma_partition(pg2, a, b)
            kinds = set()
            for cls in part.classes:
                fs = bracket(pg2, a, b, min(cls))
                kinds.add("point" if fs in point_set else "plane" if fs in plane_set else "?")
            assert kinds == {"point", "plane"}


class TestMeetJoin:
    def test_tetra_examples(self, tetra):
        m = coordinate_labels(tetra, (0, 1, 1))
        assert names_for(tetra, meet_point(m, 0, 1).lines) == ["a", "b", "ch"]
        assert names_for(tetra, join_plane(m, 0, 1).lines) == ["a", "b", "c"]
        assert meet_point(m, 0, 1).kind is Kind.POINT
        assert join_plane(m, 0, 1).kind is Kind.PLANE

    def test_meet_size_pg2(self, pg2, pg2_model):
        for a, b in incident_pairs(pg2)[:25]:
            assert len(meet_point(pg2_model, a, b).lines) == 7

    def test_pencil_size_pg2(self, pg2, pg2_model):
        for a, b in incident_pairs(pg2)[:25]:
            pencil = set(meet_point(pg2_model, a, b).lines) & set(
                join_plane(pg2_model, a, b).lines
            )
            assert len(pencil) == 3
            assert pencil == perp(pg2, perp(pg2, (a, b)))

    def test_skew_pair_rejected(self, tetra):
        m = coordinate_labels(tetra)
        with pytest.raises(PreconditionError, match="skew"):
            meet_point(m, 0, 3)

    def test_identical_rejected(self, tetra):
        m = coordinate_labels(tetra)
        with pytest.raises(PreconditionError, match="distinct"):
            join_plane(m, 0, 0)

    def test_lookups_cache_no_kernel_table(self, pg3, pg3_model):
        """On a fresh PG(3,3), sigma_partition, meet_point and join_plane
        compute from the definitions: they leave only the sigma memo."""
        s = IncidenceStructure(pg3.adjacency, labels=pg3.labels)
        m = GeometryModel(structure=s, points=pg3_model.points, planes=pg3_model.planes, seed=pg3_model.seed)
        for a, b in incident_pairs(pg3).tolist():
            sigma_partition(s, a, b)
            assert len(meet_point(m, a, b).lines) == len(join_plane(m, a, b).lines) == 13
        assert {key if isinstance(key, str) else key[0] for key in s._cache} == {"sigma"}

    def test_missing_element_on_corrupt_model(self, tetra):
        m = coordinate_labels(tetra)
        broken = GeometryModel(
            structure=tetra, points=(), planes=m.planes, seed=m.seed
        )
        with pytest.raises(MissingElementError):
            meet_point(broken, 0, 1)

    @pytest.mark.parametrize("family, line", [("point", 35), ("point", 40), ("plane", 36)])
    def test_line_outside_the_structure_rejected(self, pg2_model, family, line):
        m = pg2_model
        listed = m.points if family == "point" else m.planes
        element = listed[0] + (line,)
        families = {"points": m.points, "planes": m.planes, f"{family}s": (element,) + listed[1:]}
        message = f"{family} {list(element)} holds a line outside the structure's 35 lines"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            GeometryModel(structure=m.structure, seed=m.seed, **families)

    @pytest.mark.parametrize("line", [1.0, "1", True, None])
    def test_non_integer_line_rejected(self, pg2_model, line):
        m = pg2_model
        element = (line,) + m.points[0][1:]
        message = f"point {list(element)} holds a non-integer line {line!r}"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            GeometryModel(m.structure, (element,) + m.points[1:], m.planes, m.seed)

    @pytest.mark.parametrize("edit", ["reversed", "repeated"])
    def test_element_not_strictly_ascending_rejected(self, pg2_model, edit):
        """Elements are compared as tuples, so a plane given as a point's
        lines out of order, or with one repeated, would pass as a plane
        distinct from that point."""
        m = pg2_model
        point = m.points[0]
        plane = point[::-1] if edit == "reversed" else point + point[-1:]
        message = f"plane {list(plane)} is not strictly ascending"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            GeometryModel(m.structure, m.points, (plane,) + m.planes[1:], m.seed)

    def test_numpy_integer_lines_held_as_ints(self, pg2_model):
        """A numpy integer shifts as a fixed-width int: ``1 << np.int32(34)`` is 0."""
        m = pg2_model
        same = GeometryModel(m.structure, *(tuple(tuple(map(np.int32, e)) for e in f) for f in (m.points, m.planes)), m.seed)
        assert same == m and same.point_masks == m.point_masks and same.plane_masks == m.plane_masks
        assert {type(line) for f in (same.points, same.planes) for e in f for line in e} == {int}


class TestDualize:
    def test_involution(self, tetra, pg2_model):
        m = coordinate_labels(tetra)
        assert dualize(dualize(m)) == m
        assert dualize(dualize(pg2_model)) == pg2_model

    def test_swaps_families(self, pg2_model):
        d = dualize(pg2_model)
        assert d.points == pg2_model.planes
        assert d.planes == pg2_model.points
        assert len(d.points) == 15 and len(d.planes) == 15

    def test_seed_class_flips(self, pg2_model):
        a, b, k = pg2_model.seed
        assert dualize(pg2_model).seed == (a, b, 1 - k)

    def test_empty_model(self):
        s = IncidenceStructure.from_skew_pairs(2, [(0, 1)])
        m = coordinate_labels(s)
        assert dualize(m) == m

    def test_dual_rejects_corrupt_model(self, tetra):
        m = coordinate_labels(tetra)
        # Drop one plane: the swapped families no longer verify.
        broken = GeometryModel(
            structure=tetra, points=m.points, planes=m.planes[:-1], seed=m.seed
        )
        with pytest.raises(LabelInconsistencyError):
            dualize(broken)

    @pytest.mark.parametrize(
        "points, planes, issue, element",
        [
            (lambda m: m.points + ((0, 1),), lambda m: m.planes, "element_not_derived", [0, 1]),
            (lambda m: m.points + m.points[2:3], lambda m: m.planes, "element_listed_twice", 2),
            (lambda m: m.points, lambda m: m.planes + m.points[:1], "element_listed_twice", 0),
            (lambda m: m.points, lambda m: m.planes[:3] + m.planes[4:], "element_missing", None),
        ],
        ids=["extra", "repeated_point", "point_as_plane", "dropped_plane"],
    )
    def test_families_must_be_the_derived_elements(
        self, pg2, pg2_model, points, planes, issue, element
    ):
        broken = GeometryModel(pg2, points(pg2_model), planes(pg2_model), pg2_model.seed)
        with pytest.raises(LabelInconsistencyError) as exc:
            dualize(broken)
        if element is None:  # the least derived element left out
            element = pg2_model.planes[3]
        elif isinstance(element, int):
            element = pg2_model.points[element]
        assert exc.value.witness == {"issue": issue, "element": [pg2.labels[i] for i in element]}


class TestLabeledClasses:
    def test_point_class_matches_meet(self, pg2, pg2_model):
        for a, b in incident_pairs(pg2)[:15]:
            pc, qc = _classes_at(pg2_model, a, b)
            meet = set(meet_point(pg2_model, a, b).lines)
            join = set(join_plane(pg2_model, a, b).lines)
            pencil = meet & join
            assert pc == mask_of_lines(meet - pencil)
            assert qc == mask_of_lines(join - pencil)

    def test_classes_need_one_point_and_one_plane(self, pg2, pg2_model):
        """Off the incident pairs both classes are empty; on one, a model
        that lists its plane nowhere, or also as a point, has no classes."""
        skew = int(np.flatnonzero(~pg2.adjacency[0])[0])
        assert _classes_at(pg2_model, 0, 0) == _classes_at(pg2_model, 0, skew) == (0, 0)
        join = join_plane(pg2_model, 0, 1).lines
        unlisted = GeometryModel(pg2, pg2_model.points, tuple(p for p in pg2_model.planes if p != join), pg2_model.seed)
        for m in (unlisted, GeometryModel(pg2, pg2_model.points + (join,), pg2_model.planes, pg2_model.seed)):
            with pytest.raises(MissingElementError, match="not a point and a plane"):
                _classes_at(m, 0, 1)


LABELING_GOLDEN = Path(__file__).parent / "golden" / "perturbed" / "labeling.json"


def altered_models(m):
    """``m`` with one point repeated, with a point also listed as a plane,
    with a plane that is no element (one line swapped), and with no elements."""
    stray = tuple(sorted(set(m.planes[-1]) - {m.planes[-1][0]} | {m.points[-1][0]}))
    families = {
        "repeated_point": (m.points + m.points[1:2], m.planes),
        "point_also_plane": (m.points, m.planes + m.points[:1]),
        "non_element_plane": (m.points, m.planes[:2] + (stray,) + m.planes[2:]),
        "empty": ((), ()),
    }
    return {name: GeometryModel(m.structure, *f, m.seed) for name, f in families.items()}


# About 1.7 times the two tables of the mutant below: one line's ordered
# pairs at a time add little to them.
MUTANT_TABLE_PEAK_BYTES = 1_500_000


class TestSharedLines:
    """``shared_lines`` counts the lines every two masks share, the diagonal
    included, and names the one line exactly where they share one; a model
    reads it through the rows of its ``model_index``."""

    @staticmethod
    def assert_matches_popcount(count, line, masks):
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                common = a & b
                assert count[i, j] == common.bit_count(), (i, j)
                assert line[i, j] == (common.bit_length() - 1 if common.bit_count() == 1 else -1), (i, j)

    def assert_index_reads_model(self, s, m):
        """The index's rows are the derived elements, then the model's other
        masks once each; each point and plane names its row, and the table
        read through those rows is the popcount of the model's masks."""
        index, emasks = model_index(s, m), element_masks(s)
        masks = m.point_masks + m.plane_masks
        assert index.masks == emasks + tuple(dict.fromkeys(em for em in masks if em not in set(emasks)))
        rows = np.concatenate((index.points, index.planes)).tolist()
        assert [index.masks[r] for r in rows] == list(masks)
        # a mask listed in both families reads as a point
        code = {**dict.fromkeys(m.plane_masks, 1), **dict.fromkeys(m.point_masks, 0)}
        assert index.kind.tolist() == [code.get(em, -1) for em in index.masks]
        assert index.incidence.tolist() == [[bool(em >> l & 1) for l in range(s.line_count)] for em in index.masks]
        count, line = shared_lines(s, index.masks)
        self.assert_matches_popcount(count[np.ix_(rows, rows)], line[np.ix_(rows, rows)], masks)

    def test_pg2_model(self, pg2, pg2_model):
        m = pg2_model
        masks = m.point_masks + m.plane_masks
        self.assert_matches_popcount(*shared_lines(pg2, masks), masks)
        # point 0 also listed as a plane, and a one-line element
        masks = m.point_masks + m.plane_masks + (m.point_masks[0], 1 << 7)
        self.assert_matches_popcount(*shared_lines(pg2, masks), masks)
        count, line = shared_lines(pg2, masks)
        assert (count[0, 0], line[0, 0]) == (7, -1)
        assert (count[-1, -1], line[-1, -1]) == (1, 7)

    def test_mutant_table_builds_in_little_more_than_its_size(self, pg3):
        # mutant 6 of PG(3,3) has 269 elements, and up to 88 of them hold one
        # line, where PG(3,3) has 8; its two tables take 0.87 MB
        s = seeded_mutant(pg3, 6)
        masks = element_masks(s)
        assert len(masks) > 200
        tracemalloc.start()
        try:
            count, line = shared_lines(s, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < MUTANT_TABLE_PEAK_BYTES, f"shared_lines traced a {peak / 1e6:.2f} MB peak"
        self.assert_matches_popcount(count, line, masks)

    @pytest.mark.parametrize("q", [2, 3])
    def test_derived_model_reads_the_labeling_table(self, q, pg2_model, pg3_model):
        m = pg2_model if q == 2 else pg3_model
        self.assert_index_reads_model(m.structure, m)
        assert model_index(m.structure, m).masks == element_masks(m.structure)

    @pytest.mark.parametrize("name", ["repeated_point", "point_also_plane", "non_element_plane", "empty"])
    def test_altered_models(self, name, pg2_model):
        m = altered_models(pg2_model)[name]
        self.assert_index_reads_model(m.structure, m)

    def test_mutant_against_the_model_it_came_from(self, pg2, pg2_model):
        self.assert_index_reads_model(seeded_mutant(pg2, 3), pg2_model)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_perturbed_families(self, pg2, pg2_model, data):
        points, planes = data.draw(perturbed_families(pg2_model))
        masks = tuple(map(mask_of_lines, points + planes))
        self.assert_matches_popcount(*shared_lines(pg2, masks), masks)
        self.assert_index_reads_model(pg2, GeometryModel(pg2, tuple(points), tuple(planes), pg2_model.seed))

    @pytest.mark.parametrize("name", ["derived", "repeated_point", "point_also_plane", "non_element_plane", "empty"])
    def test_meet_and_join_scan_the_families(self, name, pg2, pg2_model):
        """meet_point and join_plane name the one element of their family
        holding both lines, and raise MissingElementError where none or
        several do, as a scan of the family finds."""
        m = pg2_model if name == "derived" else altered_models(pg2_model)[name]
        for a, b in incident_pairs(pg2):
            for lookup, family, kind in ((meet_point, m.points, Kind.POINT), (join_plane, m.planes, Kind.PLANE)):
                hits = [e for e in family if a in e and b in e]
                if len(hits) == 1:
                    assert lookup(m, a, b) == lookup(m, b, a) == SecondaryElement(hits[0], kind)
                else:
                    with pytest.raises(MissingElementError):
                        lookup(m, a, b)


def pair_graph(points: int) -> IncidenceStructure:
    """The lines of AG(3,2): every two of its 8 points, incident when they share one."""
    lines = list(itertools.combinations(range(points), 2))
    return IncidenceStructure([[bool(set(x) & set(y)) for y in lines] for x in lines])


def without_lines(s, dropped) -> IncidenceStructure:
    keep = [i for i in range(s.line_count) if i not in dropped]
    return IncidenceStructure(s.adjacency[np.ix_(keep, keep)], labels=[s.labels[i] for i in keep])


def swapped(m, i, j) -> GeometryModel:
    """``m`` with point i and plane j exchanged between the families."""
    points, planes = list(m.points), list(m.planes)
    points[i], planes[j] = planes[j], points[i]
    return GeometryModel(m.structure, tuple(points), tuple(planes), m.seed)


def two_tetrahedra_model() -> GeometryModel:
    """``two_components`` with each tetrahedron labeled as on its own: every
    sigma class is consistent, and points of the two components share no line."""
    m = coordinate_labels(gen_tetrahedron())
    shift = lambda family: family + tuple(tuple(x + 6 for x in e) for e in family)
    return GeometryModel(gen_negative("two_components"), shift(m.points), shift(m.planes), m.seed)


def labeling_cases(pg2, pg2_model, pg3, pg3_model):
    """(name, structure, model to dualize or None) for the labeling goldens."""
    for q, s, m, count in ((2, pg2, pg2_model, 24), (3, pg3, pg3_model, 8)):
        for k in range(count):
            t = seeded_mutant(s, k)
            yield f"pg3{q}_mutant_{k}", t, GeometryModel(t, m.points, m.planes, m.seed)
        for i, j in ((0, 0), (3, 7), (len(m.points) - 1, 0)):
            yield f"pg3{q}_swap_{i}_{j}", s, swapped(m, i, j)
    for name in sorted(PERTURBED):
        yield name, *perturbed(pg3, pg3_model, *PERTURBED[name])
    for name in ("no_skew_anywhere", "pasch_violation", "two_components", "single_line"):
        yield name, gen_negative(name), None
    yield "two_tetrahedra", two_tetrahedra_model().structure, two_tetrahedra_model()
    yield "affine_lines", pair_graph(8), None
    yield "pg32_without_27", without_lines(pg2, {27}), None
    yield "pg32_without_3_5", without_lines(pg2, {3, 5}), None
    # Random 7-line structures whose first sigma set has 3 and 4 classes.
    for name, skew in (
        ("three_classes", [(0, 2), (0, 4), (1, 4), (2, 3), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (5, 6)]),
        ("four_classes", [(0, 6), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6)]),
    ):
        yield name, IncidenceStructure.from_skew_pairs(7, skew), None


def labeling_outcomes(s, m) -> dict:
    """axiom4's report, coordinate_labels with the default seed and with class 1
    of the least pair, and dualize of ``m`` (else of the derived model): each an
    error's class, message and witness, or a digest of the model."""

    def outcome(f):
        try:
            got = f()
        except LinespaceError as e:
            return [type(e).__name__, str(e), getattr(e, "witness", None)]
        families = json.dumps([got.points, got.planes, got.seed]).encode()
        return ["GeometryModel", len(got.points), len(got.planes), hashlib.sha256(families).hexdigest()]

    pairs = incident_pairs(s).tolist()
    out = {"axiom4": check_axiom4(s).to_dict()}
    out["labels_default"] = outcome(lambda: coordinate_labels(s))
    out["labels_class1"] = outcome(lambda: coordinate_labels(s, (*pairs[0], 1))) if pairs else None
    if m is None and out["labels_default"][0] == "GeometryModel":
        m = coordinate_labels(s)
    out["dualize"] = outcome(lambda: dualize(m)) if m is not None else None
    return out


class TestLabelingGoldens:
    """axiom4, coordinate_labels and dualize fail with the same error class,
    message and witness, and succeed with the same families, on seeded
    mutants, point/plane swaps, every PERTURBED model and hand-built
    structures.  tests/golden/perturbed/labeling.json was recorded before
    the labeling was judged by array kernels.  Together the cases raise
    both forms of NotTwoClassesError (class counts 0, 1, 3 and 4, and
    p, q, r) and every labeling issue the verification can reach:
    pair_classes_same_kind, same_kind_share_none, point_plane_share_one and
    the three family issues of dualize.
    """

    def test_outcomes_match_golden(self, pg2, pg2_model, pg3, pg3_model):
        golden = json.loads(LABELING_GOLDEN.read_text())
        got = {name: labeling_outcomes(s, m) for name, s, m in labeling_cases(pg2, pg2_model, pg3, pg3_model)}
        assert list(got) == list(golden)
        for name in golden:
            assert json.loads(json.dumps(got[name])) == golden[name], name
