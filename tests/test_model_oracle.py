"""thm_triad_typing, thm_point_ne_plane, thm_pencil_intersection,
thm_exchange, the element-pair checks, the point-triple checks and
vy_axioms against brute-force oracles.

Each oracle below walks every triad, every triad's bracket pairs, every
incident pair, every two elements and every triple of points straight
from the adjacency matrices and the model's two families, with plain
Python sets.  It shares no code with ``linespace.theorems``: agreement on
the whole ``to_dict()`` (status, counterexample, witness and stats) shows
that the kernels, which judge every item in bulk, name the same least
failure and count the same cases as a walk over every item.

The checked structure ``s`` supplies triads, sigma sets, brackets and
incidence; the model's own structure supplies the labeled sigma classes.
The two differ when a mutant is checked against the model of the
structure it was made from.  A set listed in both families counts as a
point, when a sigma class is labeled and when a triad's bracket is typed,
as the model's one lookup, the ``kind`` of ``labeling.model_index``, does.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from linespace import (
    NEGATIVE_KINDS,
    GeometryModel,
    IncidenceStructure,
    LinespaceError,
    PreconditionError,
    coordinate_labels,
    gen_negative,
    perp,
    thm_exchange,
    thm_line_in_plane,
    thm_not_singleton,
    thm_pencil_intersection,
    thm_tetrahedron,
    thm_triad_typing,
    thm_triangle,
    thm_uniqueness,
    vy_axioms,
)
from linespace import battery, model_theorems, theorems
from linespace.core import mask_of_lines
from linespace.registry import run_checks
from conftest import names_for, oracle_reports

UNAVAILABLE = object()
RAISES = object()


class Oracle:
    def __init__(self, s, m):
        n = s.line_count
        self.labels = s.labels
        self.n = n
        self.adj = s.adjacency.tolist()
        self.nbrs = [frozenset(j for j in range(n) if self.adj[i][j]) for i in range(n)]
        self.points = [frozenset(p) for p in m.points]
        self.planes = [frozenset(p) for p in m.planes]
        self.on_line = [[d for d, p in enumerate(self.points) if l in p] for l in range(n)]
        self._sigma = {}
        self.classes = self.labeled_classes(m.structure.adjacency.tolist())

    def names(self, lines):
        return [self.labels[i] for i in sorted(lines)]

    def perp(self, lines, nbrs=None):
        nbrs = nbrs or self.nbrs
        out = frozenset(range(self.n))
        for l in lines:
            out &= nbrs[l]
        return out

    def sigma(self, x, y, nbrs=None):
        if nbrs is not None:
            ab = self.perp((x, y), nbrs)
            return ab - self.perp(ab, nbrs)
        key = (x, y) if x < y else (y, x)
        if key not in self._sigma:
            self._sigma[key] = self.sigma(x, y, self.nbrs)
        return self._sigma[key]

    def labeled_classes(self, adj):
        """(point class, plane class) of sigma(x, y) per incident pair of the
        model's structure, or UNAVAILABLE if some pair has no labeled split."""
        nbrs = [frozenset(j for j in range(self.n) if adj[i][j]) for i in range(self.n)]
        kind = {e: "plane" for e in self.planes}
        kind.update({e: "point" for e in self.points})
        out = {}
        for x, y in itertools.combinations(range(self.n), 2):
            if not adj[x][y]:
                continue
            sig = self.sigma(x, y, nbrs)
            parts = []
            left = set(sig)
            while left:
                part = {min(left)}
                grow = part
                while grow:
                    grow = {z for w in grow for z in nbrs[w] & left} - part
                    part |= grow
                parts.append(frozenset(part))
                left -= part
            if len(parts) != 2 or any(p - nbrs[w] for p in parts for w in p):
                return UNAVAILABLE
            kinds = [kind.get(self.perp((x, y), nbrs) & nbrs[min(p)]) for p in parts]
            if None in kinds or kinds[0] == kinds[1]:
                return UNAVAILABLE
            out[x, y] = tuple(parts) if kinds[0] == "point" else tuple(reversed(parts))
        return out

    def triads(self):
        def member(x, y, z):
            return x != y and self.adj[x][y] and z in self.sigma(x, y)

        return [
            (a, b, c)
            for a, b, c in itertools.combinations(range(self.n), 3)
            if member(b, c, a) or member(c, a, b) or member(a, b, c)
        ]

    def triad_typing(self):
        name = "thm_triad_typing"
        if self.classes is UNAVAILABLE:
            return None

        def side(x, y, third):
            got = self.classes.get((min(x, y), max(x, y)))
            if got is None:
                return None
            if third in got[0]:
                return "point"
            return "plane" if third in got[1] else None

        tri = self.triads()
        for examined, (a, b, c) in enumerate(tri, start=1):
            sides = [side(b, c, a), side(c, a, b), side(a, b, c)]
            if sides[0] is None or len(set(sides)) != 1:
                ce = {"triad": self.names((a, b, c)), "sides": sides}
                return report(name, "fail", ce, {"triads_examined": examined})
        return report(name, "pass", None, {"triads_examined": len(tri)})

    def point_ne_plane(self):
        both = sorted(sorted(e) for e in set(self.points) & set(self.planes))
        ce = {"element": self.names(both[0])} if both else None
        stats = {"points": len(self.points), "planes": len(self.planes)}
        return report("thm_point_ne_plane", "fail" if both else "pass", ce, stats)

    def pencil_intersection(self):
        """RAISES for a pair of ``s`` not incident in the model's structure."""
        name = "thm_pencil_intersection"
        if self.classes is UNAVAILABLE:
            return None
        pairs = [(x, y) for x, y in itertools.combinations(range(self.n), 2) if self.adj[x][y]]
        for examined, (x, y) in enumerate(pairs, start=1):
            if (x, y) not in self.classes:
                return RAISES
            found = []
            for kind, family in (("point", self.points), ("plane", self.planes)):
                holding = [e for e in family if x in e and y in e]
                if len(holding) != 1:
                    issue = (
                        f"no unique {kind} contains {self.labels[x]!r} and {self.labels[y]!r}; "
                        "model is inconsistent"
                    )
                    ce = {"pair": self.names((x, y)), "issue": issue}
                    return report(name, "fail", ce, {"pairs_examined": examined})
                found += holding
            meet, join = found
            double_perp = self.perp(self.perp((x, y)))
            point_class, plane_class = self.classes[x, y]
            for identity, got, expected in (
                ("meet_join_intersection", meet & join, double_perp),
                ("point_class_identity", point_class, meet - double_perp),
                ("plane_class_identity", plane_class, join - double_perp),
            ):
                if got != expected:
                    ce = {
                        "pair": self.names((x, y)),
                        "identity": identity,
                        "got": self.names(got),
                        "expected": self.names(expected),
                    }
                    return report(name, "fail", ce, {"pairs_examined": examined})
        return report(name, "pass", None, {"pairs_examined": len(pairs)})

    def exchange(self):
        name = "thm_exchange"
        if self.classes is UNAVAILABLE:
            return None
        kind = {e: "plane" for e in self.planes}
        kind.update({e: "point" for e in self.points})
        examined = 0
        for t in self.triads():
            bracket = self.perp(t)
            if bracket not in kind:
                ce = {"triad": self.names(t), "issue": "bracket_not_an_element"}
                return report(name, "fail", ce, {"cases_examined": examined})
            triad = set(t)
            refined = kind[bracket] == "plane"
            for x, y in itertools.combinations(sorted(bracket), 2):
                examined += 1
                if not self.adj[x][y]:
                    issue = "skew_pair_in_bracket"
                elif triad.isdisjoint(self.sigma(x, y)):
                    issue = "sigma_misses_triad"
                elif triad.isdisjoint(self.classes[x, y][refined]):
                    issue = "refined_class_misses_triad"
                else:
                    continue
                ce = {"triad": self.names(t), "x": self.labels[x], "y": self.labels[y]}
                if issue == "refined_class_misses_triad":
                    ce["kind"] = kind[bracket]
                ce["issue"] = issue
                return report(name, "fail", ce, {"cases_examined": examined})
        return report(name, "pass", None, {"cases_examined": examined})

    def not_singleton(self):
        name = "thm_not_singleton"
        pairs = list(itertools.product(self.points, self.planes))
        for examined, (p, q) in enumerate(pairs, start=1):
            if len(p & q) == 1:
                ce = {"point": self.names(p), "plane": self.names(q), "common": self.names(p & q)}
                return report(name, "fail", ce, {"pairs_examined": examined})
        return report(name, "pass", None, {"pairs_examined": len(pairs)})

    def uniqueness(self):
        name = "thm_uniqueness"
        examined = 0
        for kind, family in (("point", self.points), ("plane", self.planes)):
            for x, y in itertools.combinations(family, 2):
                examined += 1
                if len(x & y) > 1:
                    ce = {
                        "kind": kind,
                        "element_a": self.names(x),
                        "element_b": self.names(y),
                        "common": self.names(x & y),
                    }
                    return report(name, "fail", ce, {"pairs_examined": examined})
        return report(name, "pass", None, {"pairs_examined": examined})

    def line_in_plane(self):
        name = "thm_line_in_plane"
        examined = 0
        for kind, host_kind, where in (("point", "plane", "in_plane"), ("plane", "point", "through_point")):
            family, hosts = (self.points, self.planes) if kind == "point" else (self.planes, self.points)
            for host in hosts:
                for x, y in itertools.combinations([e for e in family if e & host], 2):
                    examined += 1
                    common = x & y
                    if len(common) == 1 and common <= host:
                        continue
                    ce = {f"{kind}_a": self.names(x), f"{kind}_b": self.names(y)}
                    if len(common) == 1:
                        ce[host_kind] = self.names(host)
                        ce["line"] = self.labels[min(common)]
                        ce["issue"] = f"common_line_not_{where}"
                    else:
                        ce["issue"] = f"{kind}s_without_unique_common_line"
                    return report(name, "fail", ce, {"cases_examined": examined})
        return report(name, "pass", None, {"cases_examined": examined})

    def noncollinear(self):
        P = self.points
        for i, j, k in itertools.combinations(range(len(P)), 3):
            if not P[i] & P[j] & P[k]:
                yield i, j, k

    def sides(self, i, j, k):
        common = [self.points[u] & self.points[v] for u, v in ((j, k), (k, i), (i, j))]
        if any(len(x) != 1 for x in common):
            return None
        return [min(x) for x in common]

    def point_names(self, triple):
        return [self.names(self.points[x]) for x in triple]

    def triangle(self):
        name = "thm_triangle"
        if self.classes is UNAVAILABLE:
            return None
        P, L = self.points, self.planes
        plane_index = {pl: idx for idx, pl in enumerate(L)}
        examined = 0
        for triple in self.noncollinear():
            examined += 1
            ce = {"points": self.point_names(triple)}
            sides = self.sides(*triple)
            if sides is None:
                issue = "points_without_unique_common_line"
            elif len(set(sides)) != 3:
                issue = "side_lines_not_distinct"
            elif not all(self.adj[u][v] for u, v in itertools.combinations(sides, 2)):
                issue = "side_lines_not_pairwise_incident"
            else:
                a, b, c = sides
                issue = None
                for third, (u, v) in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
                    key = (min(u, v), max(u, v))
                    if third not in self.classes[key][1]:
                        issue = "side_not_in_plane_class"
                        ce.update(line=self.labels[third], of_pair=self.names(key))
                        break
                if issue is None:
                    through = [p for p, pl in enumerate(L) if all(pl & P[x] for x in triple)]
                    bracket = self.perp(sides)
                    if bracket not in plane_index:
                        issue = "bracket_not_a_plane"
                    elif through != [plane_index[bracket]]:
                        issue = "common_plane_not_unique"
                        ce["planes_through"] = len(through)
            if issue is not None:
                ce = {"points": ce.pop("points"), "issue": issue, **ce}
                return report(name, "fail", ce, {"cases_examined": examined})
        return report(name, "pass", None, {"cases_examined": examined})

    def tetrahedron(self):
        name = "thm_tetrahedron"
        P = self.points
        examined = 0
        witness = None
        for triple in self.noncollinear():
            examined += 1
            sides = self.sides(*triple)
            if sides is None:
                ce = {"points": self.point_names(triple), "issue": "points_without_unique_common_line"}
                return report(name, "fail", ce, {"cases_examined": examined})
            base = self.perp(sides)
            found = None
            for o, po in enumerate(P):
                edges = [po & P[v] for v in triple]
                if po & base or any(len(e) != 1 for e in edges):
                    continue
                six = sides + [min(e) for e in edges]
                if len(set(six)) != 6:
                    continue
                opposite = {(0, 3), (1, 4), (2, 5)}
                if all(
                    bool(self.adj[six[x]][six[y]]) != ((x, y) in opposite)
                    for x, y in itertools.combinations(range(6), 2)
                ):
                    found = (o, six)
                    break
            if found is None:
                ce = {"points": self.point_names(triple), "issue": "no_completing_vertex"}
                return report(name, "fail", ce, {"cases_examined": examined})
            if witness is None:
                witness = {
                    "base_points": self.point_names(triple),
                    "vertex": self.names(P[found[0]]),
                    "six_lines": [self.labels[x] for x in found[1]],
                }
        return report(name, "pass", None, {"cases_examined": examined}, witness)

    def vy(self):
        P, L, n = self.points, self.planes, self.n
        out = []
        counts = [sum(1 for p in P if l in p) for l in range(n)]
        short = [l for l in range(n) if counts[l] < 3]
        if short:
            ce = {"line": self.labels[short[0]], "points_on_line": counts[short[0]]}
            out.append(report("vy_e0", "fail", ce, {"lines_examined": n}))
        else:
            stats = {"lines_examined": n}
            if counts:
                stats.update(min_points_on_line=min(counts), max_points_on_line=max(counts))
            out.append(report("vy_e0", "pass", None, stats))
        if n:
            out.append(report("vy_e1", "pass", None, {"lines": n}))
        else:
            out.append(report("vy_e1", "fail", {"reason": "no lines"}, {}))
        if not P:
            out.append(report("vy_e2", "fail", {"reason": "no points"}, {}))
        else:
            full = [l for l in range(n) if all(l in p for p in P)]
            ce = {"line": self.labels[full[0]]} if full else None
            out.append(report("vy_e2", "fail" if full else "pass", ce, {"points": len(P)}))
        covered = [pl for pl in L if all(pl & p for p in P)]
        ce = {"plane": self.names(covered[0])} if covered else None
        out.append(report("vy_e3", "fail" if covered else "pass", ce, {"planes": len(L)}))
        apart = [(x, y) for x, y in itertools.combinations(L, 2) if not x & y]
        ce = {"plane_a": self.names(apart[0][0]), "plane_b": self.names(apart[0][1])} if apart else None
        out.append(report("vy_e3p", "fail" if apart else "pass", ce, {"planes": len(L)}))
        for check, bad in (("vy_a1", lambda c: c == 0), ("vy_a2", lambda c: c > 1)):
            pair = next(
                ((x, y) for x, y in itertools.combinations(P, 2) if bad(len(x & y))), None
            )
            ce = {"point_a": self.names(pair[0]), "point_b": self.names(pair[1])} if pair else None
            out.append(report(check, "fail" if pair else "pass", ce, {"points": len(P)}))
        out.append(self.vy_a3())
        return out

    def vy_a3(self):
        P = self.points
        examined = 0
        for triple in self.noncollinear():
            sides = self.sides(*triple)
            if sides is None:
                ce = {"points": self.point_names(triple), "issue": "points_without_unique_common_line"}
                return report("vy_a3", "fail", ce, {"cases_examined": examined})
            a, b, c = sides
            for d, e in itertools.product(self.on_line[a], self.on_line[b]):
                if d == e:
                    continue
                examined += 1
                join = P[d] & P[e]
                if len(join) != 1:
                    ce = {
                        "point_d": self.names(P[d]),
                        "point_e": self.names(P[e]),
                        "issue": "joining_line_not_unique",
                    }
                    return report("vy_a3", "fail", ce, {"cases_examined": examined})
                (f,) = join
                if not self.adj[f][c]:
                    ce = {
                        "points": self.point_names(triple),
                        "point_d": self.names(P[d]),
                        "point_e": self.names(P[e]),
                        "joining_line": self.labels[f],
                        "ab_line": self.labels[c],
                    }
                    return report("vy_a3", "fail", ce, {"cases_examined": examined})
        return report("vy_a3", "pass", None, {"cases_examined": examined})


def report(name, status, ce, stats, witness=None):
    out = {"check_name": name, "passed": status == "pass", "status": status}
    if ce is not None:
        out["counterexample"] = ce
    if witness is not None:
        out["witness_sample"] = witness
    out["stats"] = stats
    return out


def assert_matches_oracle(s, m):
    o = Oracle(s, m)
    for c, expected in oracle_reports(o, __name__):
        if expected is RAISES:  # the pair is not incident in the model's structure
            with pytest.raises(PreconditionError):
                c.checker(s, m)
            continue
        got = c.checker(s, m).to_dict()
        if expected is None:  # no labeled classes: the detail names the labeling's error
            assert got["status"] == "dependency_unmet", got
        else:
            assert got == expected, c.name
    assert [r.to_dict() for r in vy_axioms(s, m)] == o.vy()


def test_fixtures_match_oracle(tetra):
    """The fixtures that have a labeling, against it; and a tetrahedron with
    one skew pair made incident, against the tetrahedron's model: its first
    pair is then no incident pair of the model's structure."""
    for s in (tetra, *map(gen_negative, NEGATIVE_KINDS)):
        try:
            m = coordinate_labels(s)
        except LinespaceError:
            continue
        assert_matches_oracle(s, m)
    m = coordinate_labels(IncidenceStructure.from_skew_pairs(6, [(0, 1), (2, 3), (4, 5)]))
    assert_matches_oracle(IncidenceStructure.from_skew_pairs(6, [(2, 3), (4, 5)]), m)


def test_pg2_matches_oracle(pg2, pg2_model):
    assert_matches_oracle(pg2, pg2_model)


def test_pg3_matches_oracle(pg3, pg3_model):
    assert_matches_oracle(pg3, pg3_model)


@pytest.mark.parametrize("q", [2, 3])
def test_labeled_classes_per_perp(q, pg2_model, pg3_model):
    """Every incident pair reads, through the pair-to-perp index, the
    oracle's (point class, plane class) of its sigma set, and the rows hold
    the same masks packed, then two empty classes, which -1 reads."""
    m = pg2_model if q == 2 else pg3_model
    masks, rows = theorems._labeled_classes(m)
    table = theorems.perp_table(m.structure)
    want = {pair: tuple(mask_of_lines(c) for c in two) for pair, two in Oracle(m.structure, m).classes.items()}
    assert {pair: masks[table.index[pair]] for pair in want} == want
    assert len(masks) == len(table.masks)
    width = m.structure.line_count // 8 + 1
    for kind in (0, 1):
        assert rows[kind].tolist() == [list(two[kind].to_bytes(width, "little")) for two in masks + [(0, 0)]]


@st.composite
def perturbed_families(draw, model):
    """The PG(3,2) families with 1-3 edits: an element moved to the other
    family, dropped, copied into the other family, or a non-element added."""
    families = [list(model.points), list(model.planes)]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["move", "drop", "copy", "add"]))
        side = draw(st.integers(0, 1))
        family = families[side]
        if op == "add":
            lines = draw(st.sets(st.integers(0, 34), min_size=1, max_size=9))
            family.insert(draw(st.integers(0, len(family))), tuple(sorted(lines)))
            continue
        if not family:
            continue
        element = family[draw(st.integers(0, len(family) - 1))]
        if op != "copy":
            family.remove(element)
        if op != "drop":
            other = families[1 - side]
            other.insert(draw(st.integers(0, len(other))), element)
    return families


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_perturbed_pg2_models_match_oracle(pg2, pg2_model, data):
    points, planes = data.draw(perturbed_families(pg2_model))
    m = GeometryModel(structure=pg2, points=tuple(points), planes=tuple(planes), seed=pg2_model.seed)
    assert_matches_oracle(pg2, m)


def test_point_also_plane_matches_oracle(pg2, pg2_model):
    """A family that lists point 3 as a plane too fails thm_point_ne_plane
    at that point, as the oracle finds it."""
    m = GeometryModel(pg2, pg2_model.points, pg2_model.planes + pg2_model.points[3:4], pg2_model.seed)
    assert Oracle(pg2, m).point_ne_plane()["counterexample"] == {"element": names_for(pg2, pg2_model.points[3])}
    assert_matches_oracle(pg2, m)


PG2_PAIRS = list(itertools.combinations(range(35), 2))


# No PG(3,2) mutant with one flipped incidence has a labeling of its own,
# so mutants are checked against the model of PG(3,2) itself.
@given(st.lists(st.sampled_from(PG2_PAIRS), min_size=1, max_size=3, unique=True))
# Two edges from the first triangle's least off-plane vertex made skew: that
# vertex no longer completes the six-line pattern, though its edges exist.
@example(flips=[(2, 8)])
# The point triples are judged in runs, one per last point, so the first run
# that holds a violation need not hold the least: here a later run holds a
# lexicographically smaller one, for thm_triangle and for vy_a3.
@example(flips=[(3, 21)])
@example(flips=[(0, 29)])
@settings(max_examples=40, deadline=None)
def test_pg2_mutants_match_oracle(pg2, pg2_model, flips):
    adj = np.array(pg2.adjacency)
    for i, j in flips:
        adj[i, j] = adj[j, i] = not adj[i, j]
    assert_matches_oracle(IncidenceStructure(adj, labels=pg2.labels), pg2_model)


def test_short_runs_match_oracle(pg2, pg2_model, monkeypatch):
    """The kernels that judge in runs, of hosts or of triples, name the same
    failure and count the same cases when each run holds a few items and
    the failure falls in a later run."""
    # Each bound has one owner, which every reader reads it through when it
    # runs, so patching the owner reaches them all.
    for name, owner in (("_CELLS_PER_STEP", model_theorems), ("_WALK_TRIPLES", theorems)):
        assert [module for module in (theorems, model_theorems, battery) if name in vars(module)] == [owner]
    monkeypatch.setattr(model_theorems, "_CELLS_PER_STEP", 97)  # four hosts a run
    monkeypatch.setattr(theorems, "_WALK_TRIPLES", 53)
    # The point-triple blocks, as a failing pass walks them again to rank its
    # least violation: PG(3,2)'s runs of 0, 3, 5, 10, 14, 19, 25, ..., 84
    # triples, one per last point, make 8 blocks, the first of them 6 runs,
    # of which 5 hold a triple.
    blocks = []

    def ranked(walk, found):
        walk = list(walk)
        blocks.append([len(np.unique(triples[:, 2])) for triples, _ in walk])  # each block's runs
        return theorems._ranked(walk, found)

    monkeypatch.setattr(battery, "_ranked", ranked)
    m = pg2_model
    # A copy of the last plane with one line swapped for a line of the last
    # point, listed last: thm_line_in_plane fails at case 316, the first
    # pair of points on that plane.
    plane = tuple(sorted(set(m.planes[-1]) - {m.planes[-1][0]} | {m.points[-1][0]}))
    assert_matches_oracle(pg2, GeometryModel(structure=pg2, points=m.points, planes=m.planes + (plane,), seed=m.seed))
    # thm_tetrahedron fails at triple 388 of 420, and passes on all 420.
    for flip in ((19, 24), (20, 30)):
        adj = np.array(pg2.adjacency)
        adj[flip] = adj[flip[::-1]] = not adj[flip]
        assert_matches_oracle(IncidenceStructure(adj, labels=pg2.labels), m)
    assert [5, 1, 1, 1, 1, 1, 1, 1] in blocks


def test_vertex_shares_no_line_with_the_bracket(pg2, pg2_model):
    """The first triangle's vertex, given the line of the triangle's plane
    through none of its points, shares with each of its points the edge it
    shared before, so it still completes the six-line pattern; but it now
    shares a line with the bracket of the sides, and the next point off the
    plane is the vertex.  The points on that line are dropped, as the vertex
    would share two lines with each.  With the plane kept, the kernel's
    first try off the plane finds the vertex; with it dropped, so is that
    try, and the walk over every point finds it."""
    m = pg2_model
    witness = thm_tetrahedron(pg2, m).witness_sample
    base = [{pg2.index(x) for x in p} for p in witness["base_points"]]
    vertex = {pg2.index(x) for x in witness["vertex"]}
    plane = tuple(sorted(perp(pg2, [pg2.index(x) for x in witness["six_lines"][:3]])))
    (line,) = set(plane).difference(*base)
    moved = tuple(sorted(vertex | {line}))
    assert [set(moved) & b for b in base] == [vertex & b for b in base]  # the same three edges
    points = tuple(moved if set(p) == vertex else p for p in m.points if line not in p)
    for planes in (m.planes, tuple(p for p in m.planes if p != plane)):
        edited = GeometryModel(structure=pg2, points=points, planes=planes, seed=m.seed)
        assert_matches_oracle(pg2, edited)
        got = thm_tetrahedron(pg2, edited).witness_sample
        assert got["base_points"] == witness["base_points"]
        assert not {pg2.index(x) for x in got["vertex"]} & set(plane)


def stray_vertex_family(m):
    """The points of one plane, then a vertex off it that shares one line
    with each of them but whose lines are not concurrent: the only vertex
    off the plane, with edges to every triangle, and no six-line pattern for
    triangles through the first point."""
    plane = set(m.planes[0])
    on = [p for p in m.points if len(set(p) & plane) == 3]
    off = next(p for p in m.points if not set(p) & plane)
    joins = [(set(p) & set(off)).pop() for p in on]
    stray = min(set(on[0]) - plane - {joins[0]})
    return tuple(on) + (tuple(sorted({stray, *joins[1:]})),)


def handmade_families(pg2, pg2_model):
    """Families the random edits rarely reach: every point on one line, an
    empty family on either side, a stray vertex, and point 0 with line 2
    swapped for line 30, whose least thm_tetrahedron and vy_a3 violations
    lie in a later run of point triples than the first run that holds one."""
    collinear = tuple(p for p in pg2_model.points if 0 in p)
    planes = pg2_model.planes
    swapped = (tuple(sorted(set(pg2_model.points[0]) - {2} | {30})),) + pg2_model.points[1:]
    return [
        GeometryModel(structure=pg2, points=points, planes=planes, seed=pg2_model.seed)
        for points, planes in (
            (collinear, planes),
            ((), planes),
            (pg2_model.points, ()),
            (stray_vertex_family(pg2_model), planes),
            (swapped, planes),
        )
    ]


def test_handmade_families_match_oracle(pg2, pg2_model):
    for m in handmade_families(pg2, pg2_model):
        assert_matches_oracle(pg2, m)


def test_unlabeled_classes_report_alike_however_called(pg2, pg2_model):
    """On the handmade families that have no labeled classes, the four checks
    that read them report dependency_unmet, the same report called directly
    as through a battery; thm_uniqueness and the vy checks are judged, as
    the oracle judges them, either way."""
    unlabeled = [m for m in handmade_families(pg2, pg2_model) if Oracle(pg2, m).classes is UNAVAILABLE]
    assert len(unlabeled) == 5
    for m in unlabeled:
        o = Oracle(pg2, m)
        battery = {r.check_name: r for r in run_checks(pg2, ("theorems", "vy"), m)}
        for check in (thm_triad_typing, thm_pencil_intersection, thm_exchange, thm_triangle):
            direct = check(pg2, m)
            assert direct.status == "dependency_unmet", direct.check_name
            assert direct == battery[direct.check_name]
        assert battery["thm_uniqueness"].to_dict() == thm_uniqueness(pg2, m).to_dict() == o.uniqueness()
        assert [battery[r.check_name].to_dict() for r in vy_axioms(pg2, m)] == o.vy()
