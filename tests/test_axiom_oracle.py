"""The six axiom checks against brute-force oracles.

Each oracle below searches every line's perp for its least pairwise-skew
triple, every incident pair's perp for its least skew pair, every triad's
bracket for a skew pair, every skew pair of a pair's perp for a line
meeting neither, and every element for a disjoint one, straight from the
adjacency matrix with plain Python sets and ``itertools.combinations``;
axiom 4 reads the seeded labeling of ``test_labeling_oracle``'s oracle.
It shares no code with ``linespace.core``, ``linespace.labeling`` or
``linespace.axioms``: agreement on the whole ``to_dict()`` (status,
counterexample, witness and stats) shows that walking perp as int masks,
and checking each distinct bracket or perp once, finds the same least
configuration and counts the same cases as a search over the raw relation.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from linespace import IncidenceStructure
from conftest import MIXED_PERPS_FLIPS, oracle_reports
from test_labeling_oracle import Oracle as LabelingOracle


class Oracle:
    def __init__(self, s):
        n = s.line_count
        self.s = s
        self.labels = s.labels
        self.adj = s.adjacency.tolist()
        self.lines = range(n)

    def names(self, lines):
        return [self.labels[i] for i in sorted(lines)]

    def perp(self, *lines):
        return [m for m in self.lines if all(self.adj[m][l] for l in lines)]

    def least_skew(self, members, k):
        for combo in itertools.combinations(members, k):
            if not any(self.adj[x][y] for x, y in itertools.combinations(combo, 2)):
                return combo
        return None

    def axiom1(self):
        witness = None
        for l in self.lines:
            members = self.perp(l)
            triple = self.least_skew(members, 3)
            if triple is None:
                return {
                    "check_name": "axiom1",
                    "passed": False,
                    "status": "fail",
                    "counterexample": {
                        "line": self.labels[l],
                        "perp": self.names(members),
                        "reason": "perp contains no pairwise-skew triple",
                    },
                    "stats": {"lines_examined": l + 1},
                }
            if witness is None:
                witness = {"line": self.labels[l], "skew_triple": self.names(triple)}
        out = {"check_name": "axiom1", "passed": True, "status": "pass"}
        if witness is not None:
            out["witness_sample"] = witness
        out["stats"] = {"lines_examined": len(self.lines)}
        return out

    def axiom2_1(self):
        pairs = [(a, b) for a, b in itertools.combinations(self.lines, 2) if self.adj[a][b]]
        witness = None
        for count, (a, b) in enumerate(pairs, start=1):
            members = self.perp(a, b)
            skew = self.least_skew(members, 2)
            if skew is None:
                return {
                    "check_name": "axiom2_1",
                    "passed": False,
                    "status": "fail",
                    "counterexample": {
                        "pair": self.names((a, b)),
                        "perp": self.names(members),
                        "reason": "perp of the pair is pairwise incident",
                    },
                    "stats": {"pairs_examined": count},
                }
            if witness is None:
                witness = {"pair": self.names((a, b)), "skew_pair": self.names(skew)}
        out = {"check_name": "axiom2_1", "passed": True, "status": "pass"}
        if witness is not None:
            out["witness_sample"] = witness
        out["stats"] = {"pairs_examined": len(pairs)}
        return out


    def incident_pairs(self):
        return [(a, b) for a, b in itertools.combinations(self.lines, 2) if self.adj[a][b]]

    def axiom2_2(self):
        cases = 0
        for a, b in self.incident_pairs():
            members = self.perp(a, b)
            double = set(self.perp(*members))
            for z in members:
                if z in double:
                    continue
                cases += 1
                skew = self.least_skew(self.perp(a, b, z), 2)
                if skew is not None:
                    x, y = skew
                    return {
                        "check_name": "axiom2_2",
                        "passed": False,
                        "status": "fail",
                        "counterexample": {
                            "pair": self.names((a, b)),
                            "z": self.labels[z],
                            "x": self.labels[x],
                            "y": self.labels[y],
                            "reason": "skew pair inside bracket(a, b, z)",
                        },
                        "stats": {"triples_examined": cases},
                    }
        return self.passed("axiom2_2", {"triples_examined": cases})

    def axiom2_3(self):
        cases = 0
        for a, b in self.incident_pairs():
            members = self.perp(a, b)
            for x, y in itertools.combinations(members, 2):
                if self.adj[x][y]:
                    continue
                cases += 1
                for m in members:
                    if not self.adj[m][x] and not self.adj[m][y]:
                        return {
                            "check_name": "axiom2_3",
                            "passed": False,
                            "status": "fail",
                            "counterexample": {
                                "pair": self.names((a, b)),
                                "x": self.labels[x],
                                "y": self.labels[y],
                                "uncovered": self.labels[m],
                                "reason": "line in perp of the pair meets neither x nor y",
                            },
                            "stats": {"skew_pairs_examined": cases},
                        }
        return self.passed("axiom2_3", {"skew_pairs_examined": cases})

    def elements(self):
        """Each bracket perp(a, b, c) with its first triad, walking the incident
        pairs (a, b) in order and each c of sigma(a, b) ascending; sigma(a, b)
        holds the lines of perp(a, b) skew to one of perp(a, b)."""
        first = {}
        for a, b in self.incident_pairs():
            members = self.perp(a, b)
            for c in members:
                if any(not self.adj[c][w] for w in members):
                    first.setdefault(tuple(self.perp(a, b, c)), (a, b, c))
        return first

    def axiom3(self):
        first = self.elements()
        ordered = sorted(first)
        samples = []
        for i, e in enumerate(ordered):
            partner = next((f for f in ordered if not set(e) & set(f)), None)
            if partner is None:
                return {
                    "check_name": "axiom3",
                    "passed": False,
                    "status": "fail",
                    "counterexample": {
                        "element": self.names(e),
                        "triad": self.names(first[e]),
                        "reason": "no disjoint secondary element exists",
                    },
                    "stats": {"elements_examined": i + 1, "elements_total": len(ordered)},
                }
            samples.append(
                {"triad": self.names(first[e]), "disjoint_triad": self.names(first[partner])}
            )
        out = {"check_name": "axiom3", "passed": True, "status": "pass"}
        if samples:
            out["witness_sample"] = {"per_element": samples}
        out["stats"] = {"elements_examined": len(ordered)}
        return out

    def axiom4(self):
        """The seeded labeling of ``test_labeling_oracle``'s oracle: a sigma
        set that does not split in two leaves axiom 4 unmet, and a labeling
        that fails its verification fails it with the labeling's witness."""
        stats = {"pairs_examined": len(self.incident_pairs())}
        got = LabelingOracle(self.s).derive()
        if got[0] == "model":
            return self.passed("axiom4", {**stats, "points": len(got[1]), "planes": len(got[2])})
        if got[0] == "sigma":
            status, ce = "dependency_unmet", {"issue": "sigma_not_two_classes", **dict(got[2])}
        else:
            status, ce = "fail", dict(got[1])
        return {"check_name": "axiom4", "passed": False, "status": status, "counterexample": ce, "stats": stats}

    def passed(self, name, stats):
        return {"check_name": name, "passed": True, "status": "pass", "stats": stats}


def assert_matches_oracle(s):
    o = Oracle(s)
    for c, expected in oracle_reports(o, __name__):
        assert c.checker(s).to_dict() == expected, c.name


@st.composite
def small_structures(draw):
    n = draw(st.integers(2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    return IncidenceStructure.from_skew_pairs(n, draw(st.sets(st.sampled_from(pairs))))


@given(small_structures())
@example(IncidenceStructure.from_skew_pairs(0))
@example(IncidenceStructure.from_skew_pairs(1))
@settings(max_examples=150, deadline=None)
def test_random_structures_match_oracle(s):
    assert_matches_oracle(s)


PG2_PAIRS = list(itertools.combinations(range(35), 2))


@given(st.lists(st.sampled_from(PG2_PAIRS), min_size=1, max_size=3, unique=True))
@example(flips=MIXED_PERPS_FLIPS)
@settings(max_examples=30, deadline=None)
def test_pg2_mutants_match_oracle(pg2, flips):
    adj = np.array(pg2.adjacency)
    for i, j in flips:
        adj[i, j] = adj[j, i] = not adj[i, j]
    assert_matches_oracle(IncidenceStructure(adj, labels=pg2.labels))


def test_pg2_matches_oracle(pg2):
    assert_matches_oracle(pg2)


def test_tetrahedron_matches_oracle(tetra):
    assert_matches_oracle(tetra)
