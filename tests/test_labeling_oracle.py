"""Sigma partitions, the seeded labeling and dualize against frozenset oracles.

The oracles below work from the adjacency matrix with plain Python sets:
sigma classes by union-find, elements as frozensets of lines, kinds keyed
by frozenset.  They share no code with ``linespace.sigma`` or
``linespace.labeling``.  Agreement on the classes, the model, and on every
error message and witness (key order included, since the CLI prints
witnesses in that order) shows that finding classes by mask closure once
per sigma mask, keying kinds by element mask and verifying each distinct
perp once change no outcome.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from linespace import (
    GeometryModel,
    IncidenceStructure,
    LabelInconsistencyError,
    NotTwoClassesError,
    coordinate_labels,
    dualize,
    gen_negative,
    gen_pg3,
    gen_tetrahedron,
    sigma,
    sigma_partition,
)


class OracleNotTwoClasses(Exception):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class Oracle:
    def __init__(self, s):
        n = s.line_count
        self.labels = s.labels
        self.adj = s.adjacency.tolist()
        self.nbrs = [frozenset(j for j in range(n) if self.adj[i][j]) for i in range(n)]
        self.everything = frozenset(range(n))
        self.pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if self.adj[a][b]]

    def names(self, lines):
        return [self.labels[i] for i in sorted(lines)]

    def perp(self, lines):
        out = self.everything
        for l in lines:
            out &= self.nbrs[l]
        return out

    def sigma(self, a, b):
        ab = self.perp((a, b))
        return sorted(ab - self.perp(ab))

    def union_find(self, members):
        parent = {l: l for l in members}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for x, y in itertools.combinations(members, 2):
            if self.adj[x][y]:
                rx, ry = find(x), find(y)
                parent[max(rx, ry)] = min(rx, ry)
        groups = {}
        for l in members:
            groups.setdefault(find(l), []).append(l)
        return list(groups.values())

    def partition(self, a, b):
        """The two classes as sorted lists, or OracleNotTwoClasses."""
        members = self.sigma(a, b)
        pair = self.names((a, b))
        name = f"sigma({pair[0]}, {pair[1]})"
        witness = {"pair": pair, "sigma": self.names(members)}
        groups = self.union_find(members)
        if not members:
            raise OracleNotTwoClasses(f"{name} is empty", {**witness, "class_count": 0})
        if len(groups) != 2:
            raise OracleNotTwoClasses(
                f"{name} has {len(groups)} incidence classes, expected 2",
                {**witness, "class_count": len(groups)},
            )
        for q, p, r in itertools.permutations(members, 3):
            if self.adj[p][q] and self.adj[q][r] and not self.adj[p][r]:
                labels = {"p": self.labels[p], "q": self.labels[q], "r": self.labels[r]}
                message = f"incidence is not transitive on {name}"
                raise OracleNotTwoClasses(message, {**witness, **labels})
        return groups

    def elements(self):
        found = {self.perp((a, b, c)) for a, b in self.pairs for c in self.sigma(a, b)}
        return sorted(found, key=sorted)

    def verify(self, elements, kinds, seed):
        seed_info = {"pair": self.names(seed[:2]), "class_of": seed[2]}
        for p, q in self.pairs:
            class_kinds = []
            for cls in self.partition(p, q):
                seen = {kinds[self.perp((p, q, c))] for c in cls}
                if len(seen) != 1:
                    return {
                        "issue": "class_yields_mixed_kinds",
                        "pair": self.names((p, q)),
                        "class": self.names(cls),
                        "seed": seed_info,
                    }
                class_kinds.append(seen.pop())
            if class_kinds[0] == class_kinds[1]:
                return {
                    "issue": "pair_classes_same_kind",
                    "pair": self.names((p, q)),
                    "kind": class_kinds[0],
                    "seed": seed_info,
                }
        for e, f in itertools.combinations(elements, 2):
            common = len(e & f)
            same = kinds[e] == kinds[f]
            if same and common != 1:
                return {
                    "issue": "same_kind_share_none" if common == 0 else "same_kind_share_many",
                    "kind": kinds[e],
                    "element_a": self.names(e),
                    "element_b": self.names(f),
                    "common_count": common,
                    "seed": seed_info,
                }
            if not same and common == 1:
                return {
                    "issue": "point_plane_share_one",
                    "element_a": self.names(e),
                    "element_b": self.names(f),
                    "common_count": common,
                    "seed": seed_info,
                }
        return None

    def model(self, elements, kinds, seed):
        points = tuple(tuple(sorted(e)) for e in elements if kinds[e] == "point")
        planes = tuple(tuple(sorted(e)) for e in elements if kinds[e] == "plane")
        return ("model", points, planes, seed)

    def classify(self, seed):
        a, b, k = seed
        z = self.perp((a, b, self.partition(a, b)[k][0]))
        return {e: "point" if e == z or len(e & z) == 1 else "plane" for e in self.elements()}

    def derive(self, seed=None):
        if not self.pairs:
            return ("model", (), (), None)
        seed = seed or (*self.pairs[0], 0)
        try:
            kinds = self.classify(seed)
            elements = self.elements()
            witness = self.verify(elements, kinds, seed)
        except OracleNotTwoClasses as e:
            return ("sigma", str(e), list(e.witness.items()))
        if witness is not None:
            return ("label", list(witness.items()))
        return self.model(elements, kinds, seed)

    def dualize(self, points, planes, seed):
        elements = self.elements()
        kinds = {}
        for i, e in enumerate(map(frozenset, points + planes)):
            if e not in elements or e in kinds:
                issue = "element_not_derived" if e not in elements else "element_listed_twice"
                return ("label", [("issue", issue), ("element", self.names(e))])
            kinds[e] = "plane" if i < len(points) else "point"
        for e in elements:
            if e not in kinds:
                return ("label", [("issue", "element_missing"), ("element", self.names(e))])
        if seed is None:
            return ("model", planes, points, None)
        flipped = (seed[0], seed[1], 1 - seed[2])
        try:
            witness = self.verify(elements, kinds, flipped)
        except OracleNotTwoClasses as e:
            return ("sigma", str(e), list(e.witness.items()))
        if witness is not None:
            return ("label", list(witness.items()))
        return ("model", planes, points, flipped)


def outcome(call):
    try:
        m = call()
    except NotTwoClassesError as e:
        return ("sigma", str(e), list(e.witness.items()))
    except LabelInconsistencyError as e:
        return ("label", list(e.witness.items()))
    return ("model", m.points, m.planes, m.seed)


def assert_partitions_match(s):
    o = Oracle(s)
    for a, b in o.pairs:
        try:
            expected = ("classes", o.partition(a, b))
        except OracleNotTwoClasses as e:
            expected = ("error", str(e), list(e.witness.items()))
        try:
            part = sigma_partition(s, b, a)
            got = ("classes", [sorted(part.class_0), sorted(part.class_1)])
            assert sigma(s, a, b) == part.class_0 | part.class_1
        except NotTwoClassesError as e:
            got = ("error", str(e), list(e.witness.items()))
        assert got == expected


@st.composite
def small_structures(draw):
    n = draw(st.integers(3, 12))
    pairs = list(itertools.combinations(range(n), 2))
    return IncidenceStructure.from_skew_pairs(n, draw(st.sets(st.sampled_from(pairs))))


PG2 = gen_pg3(2)[0]
PG2_PAIRS = list(itertools.combinations(range(35), 2))
FIXTURES = [gen_tetrahedron(), *(gen_negative(k) for k in ("pasch_violation", "two_components"))]


@st.composite
def pg2_variants(draw):
    """PG(3,2) with up to 2 incidences flipped, then up to 8 lines deleted.

    Deleting lines keeps many sigma sets split in two, so the labeling gets
    past the partitions and fails (or passes) its later checks.
    """
    adj = np.array(PG2.adjacency)
    for i, j in draw(st.lists(st.sampled_from(PG2_PAIRS), max_size=2, unique=True)):
        adj[i, j] = adj[j, i] = not adj[i, j]
    gone = draw(st.sets(st.integers(0, 34), max_size=8))
    keep = [l for l in range(35) if l not in gone]
    return IncidenceStructure(adj[np.ix_(keep, keep)], labels=[PG2.labels[l] for l in keep])


def any_structure():
    return st.one_of(small_structures(), pg2_variants(), st.sampled_from(FIXTURES))


@st.composite
def seeded(draw, structures):
    """A structure and a seed on one of its incident pairs, or None."""
    s = draw(structures)
    pairs = Oracle(s).pairs
    if not pairs:
        return s, None
    return s, (*draw(st.sampled_from(pairs)), draw(st.integers(0, 1)))


@given(any_structure())
@settings(max_examples=200, deadline=None)
def test_sigma_partition_matches_union_find(s):
    o = Oracle(s)
    for a, b in o.pairs:
        try:
            expected = ("classes", o.partition(a, b))
        except OracleNotTwoClasses as e:
            expected = ("error", str(e), list(e.witness.items()))
        try:
            part = sigma_partition(s, b, a)
            got = ("classes", [sorted(part.class_0), sorted(part.class_1)])
            assert sigma(s, a, b) == part.class_0 | part.class_1
        except NotTwoClassesError as e:
            got = ("error", str(e), list(e.witness.items()))
        assert got == expected


@given(seeded(any_structure()))
@settings(max_examples=300, deadline=None)
def test_coordinate_labels_matches_reference(case):
    s, seed = case
    assert outcome(lambda: coordinate_labels(s)) == Oracle(s).derive()
    if seed is not None:
        assert outcome(lambda: coordinate_labels(s, seed)) == Oracle(s).derive(seed)


def test_coordinate_labels_pg2(pg2):
    assert outcome(lambda: coordinate_labels(pg2)) == Oracle(pg2).derive()


@st.composite
def labeled_families(draw):
    """A structure, point and plane families around its elements, and a seed.

    The families start from the seeded singleton rule when the seed pair
    splits in two, else from a random split.  Then an element may move to
    the other family or be dropped or repeated, or a line set that is no
    element may be added.
    """
    s, seed = draw(seeded(any_structure()))
    o = Oracle(s)
    elements = o.elements()
    kinds = None
    if seed is not None:
        try:
            kinds = o.classify(seed)
        except OracleNotTwoClasses:
            pass
    if kinds is None:
        kinds = {e: draw(st.sampled_from(["point", "plane"])) for e in elements}
    families = {"point": [], "plane": []}
    for e in elements:
        families[kinds[e]].append(tuple(sorted(e)))
    source, target = draw(st.permutations(list(families.values())))
    edit = draw(st.sampled_from(["none", "move", "drop", "repeat", "extra"]))
    if edit in ("move", "drop") and source:
        moved = source.pop(draw(st.integers(0, len(source) - 1)))
        if edit == "move":
            target.append(moved)
    elif edit == "repeat" and source:
        target.append(draw(st.sampled_from(source)))
    elif edit == "extra":
        lines = draw(st.sets(st.integers(0, s.line_count - 1), max_size=4))
        target.append(tuple(sorted(lines)))
    return s, tuple(sorted(families["point"])), tuple(sorted(families["plane"])), seed


@given(labeled_families())
@settings(max_examples=300, deadline=None)
def test_dualize_matches_reference(case):
    s, points, planes, seed = case
    got = outcome(lambda: dualize(GeometryModel(s, points, planes, seed)))
    assert got == Oracle(s).dualize(points, planes, seed)


def test_dualize_derived_models(pg2, pg2_model, tetra):
    for m in (pg2_model, coordinate_labels(tetra), coordinate_labels(tetra, (0, 1, 1))):
        o = Oracle(m.structure)
        assert outcome(lambda: dualize(m)) == o.dualize(m.points, m.planes, m.seed)
