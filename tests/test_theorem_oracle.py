"""The support-restricted theorem verifiers against brute-force oracles.

Each oracle below quantifies over every triple of lines (or every ordered
pair of triads) straight from the adjacency matrix, with plain Python sets.
It shares no code with ``linespace.theorems``: agreement on status and on
the reported counterexample shows that restricting a quantifier to its
support neither misses a violation nor changes which one is reported.
The whole ``to_dict()`` is compared, stats included, so evaluating each
distinct perp or bracket once, or judging items in bulk, still counts
every case.  The element walk the triad checks share, and the perp table
behind the checks over distinct perps, are compared with the oracle's
triads and brackets, and its perps, directly.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from linespace import NEGATIVE_KINDS, IncidenceStructure, gen_negative
from conftest import MIXED_PERPS_FLIPS, one_perp_regulus, oracle_reports
from linespace.core import perp_table
from linespace.labeling import element_masks
from linespace.theorems import _triads, _walk


class Oracle:
    def __init__(self, s):
        n = s.line_count
        self.labels = s.labels
        self.triples = list(itertools.combinations(range(n), 3))
        self.adj = s.adjacency.tolist()
        self.nbrs = [frozenset(j for j in range(n) if self.adj[i][j]) for i in range(n)]
        self.everything = frozenset(range(n))
        self._sigma = {}

    def names(self, lines):
        return [self.labels[i] for i in sorted(lines)]

    def perp(self, lines):
        out = self.everything
        for l in lines:
            out &= self.nbrs[l]
        return out

    def member(self, x, y, z):
        """z lies in sigma(x, y); false unless x, y are distinct and incident."""
        if x == y or not self.adj[x][y]:
            return False
        key = (min(x, y), max(x, y))
        if key not in self._sigma:
            ab = self.perp(key)
            self._sigma[key] = ab - self.perp(ab)
        return z in self._sigma[key]

    def memberships(self, a, b, c):
        return (self.member(b, c, a), self.member(c, a, b), self.member(a, b, c))

    def triads(self):
        return [t for t in self.triples if any(self.memberships(*t))]

    def sigma_equivalence(self):
        """Stats count the triads up to the first disagreeing triple, which
        is itself a triad."""
        triads = 0
        for t in self.triples:
            got = self.memberships(*t)
            triads += any(got)
            if len(set(got)) > 1:
                return "fail", {
                    "triple": self.names(t),
                    "a_in_sigma_bc": got[0],
                    "b_in_sigma_ca": got[1],
                    "c_in_sigma_ab": got[2],
                }, {"triads_examined": triads}
        return "pass", None, {"triads_examined": triads}

    def bracket_closed(self):
        tri = self.triads()
        for examined, t in enumerate(tri, start=1):
            bracket = self.perp(t)
            if self.perp(bracket) != bracket:
                delta = self.perp(bracket) ^ bracket
                ce = {"triad": self.names(t), "differs_on": self.names(delta)}
                return "fail", ce, {"triads_examined": examined}
        return "pass", None, {"triads_examined": len(tri)}

    def incident_pairs(self):
        pairs = itertools.combinations(range(len(self.adj)), 2)
        return [(x, y) for x, y in pairs if self.adj[x][y]]

    def incident_pair_count(self):
        return len(self.incident_pairs())

    def bracket_welldefined(self):
        """Every incident pair in order, each incident pair of its sigma a case."""
        cases = 0
        for a, b in self.incident_pairs():
            base = self.perp((a, b))
            for c1, c2 in itertools.combinations(sorted(base - self.perp(base)), 2):
                if not self.adj[c1][c2]:
                    continue
                cases += 1
                one, two = self.perp((a, b, c1)), self.perp((a, b, c2))
                if one != two:
                    return "fail", {
                        "pair": self.names((a, b)),
                        "c1": self.labels[c1],
                        "c2": self.labels[c2],
                        "differs_on": self.names(one ^ two),
                    }, {"cases_examined": cases}
        return "pass", None, {"cases_examined": cases}

    def two_classes(self):
        """Every incident pair in order: incidence on its sigma must have two
        components, each a clique.  On a pass, the distinct sizes of (class
        0, class 1), class 0 holding the least line of sigma."""
        adj = self.adj
        stats = {"pairs_examined": self.incident_pair_count()}
        sizes = set()
        for a, b in self.incident_pairs():
            base = self.perp((a, b))
            sig = sorted(base - self.perp(base))
            witness = {"pair": self.names((a, b)), "sigma": self.names(sig)}
            classes = []
            for l in sig:
                if any(l in c for c in classes):
                    continue
                component, frontier = {l}, [l]
                while frontier:
                    x = frontier.pop()
                    reached = {y for y in sig if adj[x][y]} - component
                    component |= reached
                    frontier += reached
                classes.append(component)
            if len(classes) != 2:
                return "fail", {**witness, "class_count": len(classes)}, stats
            for q, p, r in itertools.permutations(sig, 3):
                if adj[p][q] and adj[q][r] and not adj[p][r]:
                    names = {"p": self.labels[p], "q": self.labels[q], "r": self.labels[r]}
                    return "fail", {**witness, **names}, stats
            sizes.add((len(classes[0]), len(classes[1])))
        if sizes:
            stats["class_size_pairs"] = sorted(sizes)
        return "pass", None, stats

    def line_selfperp(self):
        for l in range(len(self.adj)):
            double_perp = self.perp(self.nbrs[l])
            if double_perp != {l}:
                ce = {"line": self.labels[l], "double_perp": self.names(double_perp)}
                return "fail", ce, {"lines_examined": l + 1}
        return "pass", None, {"lines_examined": len(self.adj)}

    def regulus_skew(self):
        adj = self.adj
        stats = {"pairs_examined": self.incident_pair_count()}
        for u, v, w in self.triples:
            if adj[u][v] or adj[u][w] or adj[v][w]:
                continue
            inside = sorted(self.perp((u, v, w)))
            for x, y in itertools.combinations(inside, 2):
                if adj[x][y]:
                    return "fail", {
                        "triple": self.names((u, v, w)),
                        "m": self.labels[x],
                        "n": self.labels[y],
                    }, stats
        return "pass", None, stats

    def coherence(self):
        """Stats count, per distinct triad bracket E, the triples of perp(E)
        up to the first one whose bracket is E but which is no triad."""
        tri = self.triads()
        first_with = {}
        for t in tri:
            first_with.setdefault(self.perp(t), t)
        triad_set = set(tri)
        cases = 0
        for bracket in first_with:
            for t in itertools.combinations(sorted(self.perp(bracket)), 3):
                cases += 1
                if self.perp(t) == bracket and t not in triad_set:
                    break
        for t in self.triples:
            bracket = self.perp(t)
            if bracket in first_with and t not in triad_set:
                return "fail", {
                    "triple": self.names(t),
                    "triad_with_equal_bracket": self.names(first_with[bracket]),
                }, {"cases_examined": cases}
        return "pass", None, {"cases_examined": cases, "triads": len(tri)}

    def mutual_membership(self):
        """Violations over every pair of triads.

        Each violation is oriented so that triad_a's bracket holds triad_b,
        and the reported one is least by (that bracket as a bitmask, a, b).
        """
        tri = self.triads()
        members = [frozenset(t) for t in tri]
        brackets = [self.perp(t) for t in tri]
        as_mask = [sum(1 << l for l in b) for b in brackets]
        found = []
        for i, j in itertools.combinations(range(len(tri)), 2):
            inside_ij = members[j] <= brackets[i]
            inside_ji = members[i] <= brackets[j]
            if inside_ij != inside_ji:
                issue = "membership_not_symmetric"
            elif inside_ij and brackets[i] != brackets[j]:
                issue = "contained_but_brackets_differ"
            else:
                continue
            for a, b, inside in ((i, j, inside_ij), (j, i, inside_ji)):
                if inside:
                    found.append((as_mask[a], a, b, issue))
        stats = {"triads_examined": len(tri)}
        if not found:
            return "pass", None, stats
        _, i, j, issue = min(found)
        ce = {"triad_a": self.names(tri[i]), "triad_b": self.names(tri[j]), "issue": issue}
        return "fail", ce, stats


def assert_walk_matches_oracle(s, o):
    """The element walk meets every triad exactly once, under its own
    bracket's element, and each element's least triad is the oracle's."""
    tri = o.triads()
    emasks = element_masks(s)
    bracket = {t: emasks.index(sum(1 << l for l in o.perp(t))) for t in tri}
    met = []
    for e, _, triples, held, same in _walk(s):
        own = held.any(axis=0) & same
        met += zip(map(tuple, triples[own].tolist()), e[own].tolist())
    assert sorted(met) == sorted(bracket.items())
    least = [min(t for t in tri if bracket[t] == e) for e in range(len(emasks))]
    assert _triads(s)["first"].tolist() == [list(t) for t in least]


def assert_perp_table_matches_oracle(s, o):
    """Each pair's perp, the distinct perps in order of their first pair;
    whether each one's sigma splits, that is, is non-empty and two cliques
    skew across, and its classes: the sigma lines meeting the least one,
    and the rest.  Exactly the perps that do not split keep rows, in order:
    their lines, padded with the line count, and skew rows."""
    pairs = o.incident_pairs()
    perps = [o.perp(p) for p in pairs]
    distinct = list(dict.fromkeys(perps))
    table = perp_table(s)
    assert table.pairs.tolist() == [list(p) for p in pairs]
    assert table.perp.tolist() == [distinct.index(x) for x in perps]
    assert table.masks == tuple(sum(1 << l for l in x) for x in distinct)
    assert table.first.tolist() == [perps.index(x) for x in distinct]
    unsplit = []
    for k, x in enumerate(distinct):
        sig = sorted(x - o.perp(x))
        one = {v for v in sig if o.adj[sig[0]][v]} if sig else set()
        two_cliques = all(o.adj[u][v] == ((u in one) == (v in one)) for u in sig for v in sig)
        split = len(one) < len(sig) and two_cliques
        assert bool(table.split[k]) == split
        assert table.classes[k] == (sum(1 << v for v in one), sum(1 << v for v in set(sig) - one))
        if not split:
            unsplit.append(k)
    assert table.unsplit.tolist() == unsplit
    width = max(map(len, distinct), default=0)
    assert table.skew.shape[:2] == table.lines.shape == (len(unsplit), width)
    for r, k in enumerate(unsplit):
        lines = sorted(distinct[k])
        assert table.lines[r].tolist() == lines + [s.line_count] * (width - len(lines))
        skew = [sum(1 << j for j, v in enumerate(lines) if not o.adj[u][v]) for u in lines]
        got = [int.from_bytes(row.tobytes(), "little") for row in table.skew[r]]
        assert got == skew + [0] * (width - len(lines))
    n = s.line_count
    index = [[-1] * n for _ in range(n)]
    for (x, y), k in zip(pairs, table.perp.tolist()):
        index[x][y] = index[y][x] = k
    assert table.index.tolist() == index
    sigma = [sum(1 << z for z in range(n) if o.member(*pairs[p], z)) for p in table.first.tolist()]
    assert table.sigma.tolist() == [list(x.to_bytes(n // 8 + 1, "little")) for x in sigma + [0]]


def assert_matches_oracle(s):
    o = Oracle(s)
    assert_walk_matches_oracle(s, o)
    assert_perp_table_matches_oracle(s, o)
    for c, (status, ce, stats) in oracle_reports(o, __name__):
        expected = {"check_name": c.name, "passed": status == "pass", "status": status}
        if ce is not None:
            expected["counterexample"] = ce
        assert c.checker(s).to_dict() == {**expected, "stats": stats}


@st.composite
def small_structures(draw):
    n = draw(st.integers(3, 12))
    pairs = list(itertools.combinations(range(n), 2))
    return IncidenceStructure.from_skew_pairs(n, draw(st.sets(st.sampled_from(pairs))))


@given(small_structures())
# Two elements each hold a coherence violation, and the element met first
# holds the larger one, so only a minimum over the support reports the least.
@example(IncidenceStructure.from_skew_pairs(8, [(1, 2), (2, 3), (2, 7), (4, 5), (4, 7)]))
# The least skew triple lies in one distinct perp only, the numerically least.
@example(one_perp_regulus())
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


def test_fixtures_match_oracle(tetra):
    for s in (tetra, *map(gen_negative, NEGATIVE_KINDS)):
        assert_matches_oracle(s)


def test_pg3_tables_keep_no_place_rows(pg2, pg3):
    """Every perp of PG(3,q) splits, so its table keeps no lines or skew rows."""
    for s in (pg2, pg3):
        table = perp_table(s)
        assert table.split.all() and len(table.unsplit) == 0
        assert len(table.lines) == len(table.skew) == 0


def test_mixed_mutant_keeps_its_unsplit_perps_rows(pg2):
    """The mutant whose 132 perps mix split and unsplit ones keeps a row for
    each of its 36 unsplit perps, in order, holding that perp's lines."""
    adj = np.array(pg2.adjacency)
    for i, j in MIXED_PERPS_FLIPS:
        adj[i, j] = adj[j, i] = not adj[i, j]
    s = IncidenceStructure(adj, labels=pg2.labels)
    table = perp_table(s)
    assert len(table.masks) == 132
    assert table.unsplit.tolist() == np.flatnonzero(~table.split).tolist()
    assert len(table.unsplit) == len(table.lines) == len(table.skew) == 36
    for row, k in zip(table.lines.tolist(), table.unsplit.tolist()):
        assert sum(1 << l for l in row if l < s.line_count) == table.masks[k]
