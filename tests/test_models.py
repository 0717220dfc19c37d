"""Generators: tetrahedron, PG(3,q) against an independent subspace oracle."""

import itertools
import json
import time

import numpy as np
import pytest

from linespace import (
    NEGATIVE_EXPECTATIONS,
    NEGATIVE_KINDS,
    CheckReport,
    IncidenceStructure,
    Pg3Metadata,
    PreconditionError,
    UnsupportedFieldError,
    check_axiom1,
    check_axiom2_1,
    coordinate_labels,
    gen_negative,
    gen_pg3,
    gen_tetrahedron,
    incident_pairs,
    labels_of,
    save_structure,
    sigma,
    thm_tetrahedron,
    vy_axioms,
)
from closed_forms import CLOSED_FORMS
from conftest import PEAK_RSS, is_isomorphic, run_python
from linespace.registry import CHECKS

# Exact linear algebra over GF(p): the oracles the generators share no code with.


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The k-dimensional subspaces of GF(q)^n: the ordered k-tuples of independent
    vectors, over the ordered bases each such subspace has."""
    bases = subspace_bases = 1
    for i in range(k):
        bases *= q**n - q**i
        subspace_bases *= q**k - q**i
    return bases // subspace_bases


def _kernel(mat, q: int) -> list:
    """Basis of the vectors orthogonal mod q to every row of a reduced row-echelon matrix."""
    pivot_row = {row.index(1): row for row in mat}
    return [
        tuple(int(c == f) if c not in pivot_row else -pivot_row[c][f] % q for c in range(4))
        for f in range(4)
        if f not in pivot_row
    ]


def _orthogonal_sets(pairs, vectors, q: int) -> list[frozenset[int]]:
    """Per pair of rows, the indices of the vectors orthogonal mod q to both."""
    zero = (np.array(pairs).reshape(-1, 4) @ np.array(vectors).T) % q == 0
    return [frozenset(np.flatnonzero(r).tolist()) for r in zero[0::2] & zero[1::2]]


def line_point_sets(meta: Pg3Metadata) -> list[frozenset[int]]:
    """For each line, the indices of the coordinate points on it.

    A point lies on a line iff it is orthogonal mod q to the line's
    2-dimensional annihilator: one integer matrix product for all pairs.
    """
    kernels = [_kernel(ln, meta.q) for ln in meta.line_reps]
    return _orthogonal_sets(kernels, meta.point_reps, meta.q)


def line_plane_sets(meta: Pg3Metadata) -> list[frozenset[int]]:
    """For each line, the indices of the coordinate planes containing it.

    A line lies in a plane iff both of its rows are orthogonal mod q to the
    plane's normal: one integer matrix product for all pairs.
    """
    normals = [_kernel(pl, meta.q)[0] for pl in meta.plane_reps]
    return _orthogonal_sets(meta.line_reps, normals, meta.q)


def rref_mod(rows, p: int) -> tuple:
    """Reduced row-echelon form over GF(p), zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return ()
    m, n = len(work), len(work[0])
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if work[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col] % p, -1, p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for r in range(m):
            if r == rank:
                continue
            f = work[r][col] % p
            if f:
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == m:
            break
    return tuple(tuple(v % p for v in row) for row in work[:rank])


def rank_mod(rows, p: int) -> int:
    """Exact rank of an integer matrix over GF(p) by Gaussian elimination."""
    return len(rref_mod(rows, p))


def point_on_line(point, line, p: int) -> bool:
    """True iff the 1-dim subspace of ``point`` lies in the line's row space."""
    return rank_mod(list(line) + [point], p) == 2


def line_in_plane(line, plane, p: int) -> bool:
    """True iff the line's row space lies inside the plane's row space."""
    return rank_mod(list(plane) + list(line), p) == 3


def span_set(mat, q):
    """All vectors of the row space, as a frozenset; an rref-free canonical form."""
    vecs = set()
    for coeffs in itertools.product(range(q), repeat=len(mat)):
        v = tuple(
            sum(c * row[j] for c, row in zip(coeffs, mat)) % q for j in range(4)
        )
        vecs.add(v)
    return frozenset(vecs)


def oracle_two_subspaces(q):
    """Enumerate 2-dim subspaces by spanning independent vector pairs and deduping."""
    vectors = [v for v in itertools.product(range(q), repeat=4) if any(v)]
    spans = set()
    for u, v in itertools.combinations(vectors, 2):
        if rank_mod([u, v], q) == 2:
            spans.add(span_set((u, v), q))
    return spans


def oracle_adjacency(line_reps, q):
    """Incidence from shared points, for 2x4 line matrices over GF(q).

    Each line's points are the nonzero combinations a*u + b*v of its rows,
    scaled so the first nonzero entry is 1; two lines meet iff they share
    a point, so every point's lines form a clique.  No rank, elimination
    or Plücker computation is involved.  Returns the adjacency and the
    point set of every line.
    """
    through = {}
    per_line = []
    for l, (u, v) in enumerate(line_reps):
        pts = set()
        for a, b in itertools.product(range(q), repeat=2):
            w = [(a * x + b * y) % q for x, y in zip(u, v)]
            lead = next((c for c in w if c), 0)
            if lead:
                inv = pow(lead, -1, q)
                pts.add(tuple(c * inv % q for c in w))
        per_line.append(frozenset(pts))
        for pt in pts:
            through.setdefault(pt, []).append(l)
    n = len(line_reps)
    adj = np.zeros((n, n), dtype=bool)
    for lines in through.values():
        adj[np.ix_(lines, lines)] = True
    return adj, per_line


# The cross-check of a derived model against the coordinate subspaces.


def _match_family(
    family: tuple[tuple[int, ...], ...],
    per_line: list[frozenset[int]],
    expected_count: int,
    expected_size: int,
    kind_name: str,
    s: IncidenceStructure,
) -> tuple[bool, dict]:
    """Match one derived family against one coordinate subspace family.

    Every element must have exactly one common subspace across its lines,
    must contain every line on that subspace, and the induced map must be
    a bijection onto the expected representatives.
    """
    if len(family) != expected_count:
        return False, {
            "issue": f"{kind_name}_count_mismatch",
            "derived_count": len(family),
            "expected_count": expected_count,
        }
    subspace_to_lines: dict[int, set[int]] = {}
    for li, subs in enumerate(per_line):
        for si in subs:
            subspace_to_lines.setdefault(si, set()).add(li)
    seen: set[int] = set()
    for element in family:
        common = frozenset.intersection(*(per_line[l] for l in element))
        if len(common) != 1:
            return False, {
                "issue": f"{kind_name}_no_unique_subspace",
                "element": labels_of(s, element),
                "common_subspaces": len(common),
            }
        (si,) = common
        full = subspace_to_lines.get(si, set())
        if set(element) != full:
            return False, {
                "issue": f"{kind_name}_incomplete",
                "element": labels_of(s, element),
                "missing": labels_of(s, full - set(element)),
            }
        if len(element) != expected_size:
            return False, {
                "issue": f"{kind_name}_size_mismatch",
                "element": labels_of(s, element),
                "size": len(element),
                "expected_size": expected_size,
            }
        if si in seen:
            return False, {
                "issue": f"{kind_name}_not_injective",
                "element": labels_of(s, element),
            }
        seen.add(si)
    return True, {}


def verify_counts(meta: Pg3Metadata, m) -> CheckReport:
    """Cross-validate a derived model against the coordinate subspaces.

    Derived points must biject with 1-dimensional subspaces through line
    membership and derived planes with 3-dimensional ones (or the two
    roles exchanged, since the naming of the families is a free choice;
    the orientation used is recorded in stats).  Also checks that, for
    every incident distinct pair, sigma(a, b) equals the symmetric
    difference of the bundle of lines through the pair's common point and
    the set of lines in its common plane.
    """
    s = m.structure
    pts = line_point_sets(meta)
    pls = line_plane_sets(meta)
    q = meta.q
    expected = (q + 1) * (q * q + 1)  # points of PG(3,q), and as many planes
    size = q * q + q + 1  # lines through a point, and in a plane

    def attempt(point_like, plane_like):
        ok, witness = _match_family(point_like, pts, expected, size, "point", s)
        if not ok:
            return False, witness
        ok, witness = _match_family(plane_like, pls, expected, size, "plane", s)
        if not ok:
            return False, witness
        return True, {}

    orientation = "standard"
    ok, witness = attempt(m.points, m.planes)
    if not ok:
        swapped_ok, _ = attempt(m.planes, m.points)
        if swapped_ok:
            orientation = "swapped"
            ok, witness = True, {}
    stats = {
        "q": meta.q,
        "points": len(m.points),
        "planes": len(m.planes),
        "orientation": orientation,
        "pairs_checked": 0,
    }
    if not ok:
        return CheckReport("pg3_subspace_validation", "fail", counterexample=witness, stats=stats)

    checked = 0
    for a, b in incident_pairs(s):
        common_pts = pts[a] & pts[b]
        common_pls = pls[a] & pls[b]
        if len(common_pts) != 1 or len(common_pls) != 1:
            return CheckReport(
                "pg3_subspace_validation",
                "fail",
                counterexample={
                    "issue": "pair_without_unique_point_and_plane",
                    "pair": labels_of(s, (a, b)),
                },
                stats=stats,
            )
        (cp,) = common_pts
        (cl,) = common_pls
        bundle = {l for l in range(s.line_count) if cp in pts[l]}
        ruled = {l for l in range(s.line_count) if cl in pls[l]}
        if sigma(s, a, b) != frozenset(bundle ^ ruled):
            return CheckReport(
                "pg3_subspace_validation",
                "fail",
                counterexample={
                    "issue": "sigma_not_symmetric_difference",
                    "pair": labels_of(s, (a, b)),
                },
                stats=stats,
            )
        checked += 1
    stats["pairs_checked"] = checked
    return CheckReport("pg3_subspace_validation", "pass", stats=stats)


# Bounds for test_pg35_triad_checks: on a 2-vCPU host the stages take
# 1.0-1.6 s from the first check to the last and peak at 60-62 MB RSS,
# against 1.2-1.9 s and 107 MB when every triad was kept in one table, and
# 32 s and 431 MB when each triad was a Python tuple with its own bracket int.
PG35_TRIAD_SECONDS = 15
PG35_TRIAD_RSS_MB = 80
PG35_TRIAD_SCRIPT = PEAK_RSS + """
import json, time
import linespace as T
from linespace import coordinate_labels, gen_pg3
s, _ = gen_pg3(5)
start = time.perf_counter()
reports = [f(s) for f in (T.thm_sigma_equivalence, T.thm_two_classes, T.thm_bracket_closed,
                          T.thm_coherence, T.thm_mutual_membership)]
m = coordinate_labels(s)
reports += [T.thm_triad_typing(s, m), T.thm_exchange(s, m)]
print(json.dumps({
    "reports": [[r.check_name, r.status, r.stats] for r in reports],
    "seconds": time.perf_counter() - start,
    "peak_rss_mb": peak_rss_mb(),
}))
"""


# Bounds for test_pg35_battery: on a 2-vCPU host the three commands take
# 2.1-3.2 s in one fresh process and peak at 80 MB RSS, against 127 MB
# when the point-triple checks shared one table of all 604,500 triples
# (six runs, three of each, side by side), and 11 s and 165 MB before the
# labeling, thm_exchange and the A3 check were judged by array kernels.
PG35_BATTERY_SECONDS = 10
PG35_BATTERY_RSS_MB = 100
PG35_BATTERY_SCRIPT = PEAK_RSS + """
import json, time
from linespace import cli
start = time.perf_counter()
codes = [
    cli.main(["check", "pg35.json", "--which", "all", "--report", "report.json"]),
    cli.main(["derive", "pg35.json", "--out", "model.json"]),
    cli.main(["dualize", "model.json", "--out", "dual.json"]),
]
with open("result.json", "w") as f:
    json.dump({
        "codes": codes,
        "seconds": time.perf_counter() - start,
        "peak_rss_mb": peak_rss_mb(),
    }, f)
"""


@pytest.fixture(scope="module")
def pg37_pair():
    return gen_pg3(7)


class TestLinearAlgebra:
    def test_rank_examples(self):
        assert rank_mod([(1, 0, 0, 0), (0, 1, 0, 0)], 2) == 2
        assert rank_mod([(1, 1, 0, 0), (1, 1, 0, 0)], 2) == 1
        assert rank_mod([(2, 4), (1, 2)], 5) == 1
        assert rank_mod([], 3) == 0

    def test_rref_idempotent(self):
        mat = ((1, 2, 0, 1), (0, 1, 2, 2))
        once = rref_mod(mat, 3)
        assert rref_mod(once, 3) == once

    def test_rref_preserves_row_space(self):
        mat = ((1, 2, 0, 1), (2, 1, 1, 0))
        assert span_set(rref_mod(mat, 3), 3) == span_set(mat, 3)


class TestTetrahedron:
    def test_shape(self, tetra):
        assert tetra.line_count == 6
        assert tetra.labels == ("a", "b", "c", "ah", "bh", "ch")
        assert tetra.skew_pairs() == [(0, 3), (1, 4), (2, 5)]

    def test_incident_pair_count(self, tetra):
        assert len(incident_pairs(tetra)) == 12


@pytest.mark.parametrize("q", [2, 3])
class TestPg3AgainstOracle:
    def test_line_count(self, q):
        s, meta = gen_pg3(q)
        expected = (q * q + 1) * (q * q + q + 1)
        assert s.line_count == expected == gaussian_binomial(4, 2, q)
        assert len(oracle_two_subspaces(q)) == expected

    def test_line_reps_match_oracle_spans(self, q):
        _, meta = gen_pg3(q)
        spans = {span_set(mat, q) for mat in meta.line_reps}
        assert spans == oracle_two_subspaces(q)

    def test_incidence_matches_span_intersection(self, q):
        s, meta = gen_pg3(q)
        spans = [span_set(mat, q) for mat in meta.line_reps]
        zero = (0, 0, 0, 0)
        for i in range(s.line_count):
            for j in range(i + 1, s.line_count):
                meets = len(spans[i] & spans[j]) > 1  # beyond the zero vector
                assert bool(s.adjacency[i, j]) == meets
        assert all(zero in sp for sp in spans)

    def test_per_line_incidence_count(self, q):
        s, _ = gen_pg3(q)
        expected = (q + 1) * (q * q + q) + 1  # includes the line itself
        for l in range(s.line_count):
            assert int(s.adjacency[l].sum()) == expected

    def test_subspace_counts(self, q):
        _, meta = gen_pg3(q)
        assert len(meta.point_reps) == (q + 1) * (q * q + 1)
        assert len(meta.plane_reps) == (q + 1) * (q * q + 1)
        assert len(set(meta.line_reps)) == len(meta.line_reps)

    def test_points_per_line(self, q):
        _, meta = gen_pg3(q)
        for sets in line_point_sets(meta):
            assert len(sets) == q + 1

    def test_planes_per_line(self, q):
        _, meta = gen_pg3(q)
        for sets in line_plane_sets(meta):
            assert len(sets) == q + 1


class TestLargerFields:
    def test_pg35_counts(self):
        # stress-size generation, then the two axioms that walk every line and pair
        s, meta = gen_pg3(5)
        assert s.line_count == 806
        assert int(s.adjacency[0].sum()) == 181  # (q+1)(q^2+q) + 1
        assert len(sigma(s, *incident_pairs(s)[0])) == 50  # 2 q^2
        r1, r2 = check_axiom1(s), check_axiom2_1(s)
        assert (r1.status, r1.stats) == ("pass", {"lines_examined": 806})
        assert (r2.status, r2.stats) == ("pass", {"pairs_examined": 72540})

    def test_pg35_point_triples(self):
        # every non-collinear point triple of the default model, through the
        # one pass that judges the point-triple checks a run per last point;
        # on a 2-vCPU host these two checks take about 1 s, against 2.3-2.7 s
        # before the A3 check was judged by a kernel and 50 s for a scalar
        # walk of each triple
        s, _ = gen_pg3(5)
        m = coordinate_labels(s)
        start = time.perf_counter()
        vy, tetra = vy_axioms(s, m), thm_tetrahedron(s, m)
        elapsed = time.perf_counter() - start
        assert [r.status for r in vy] == ["pass"] * 8
        assert vy[-1].stats == CLOSED_FORMS["vy_a3"](5)  # 604,500 triples x (6 * 6 - 1)
        assert (tetra.status, tetra.stats) == ("pass", CLOSED_FORMS["thm_tetrahedron"](5))
        assert elapsed < 5

    def test_pg35_triad_checks(self, tmp_path):
        # the six checks over PG(3,5)'s 1,209,000 triads, with thm_two_classes,
        # in a fresh process so that its peak RSS is theirs
        out = run_python(["-c", PG35_TRIAD_SCRIPT], tmp_path)
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        triads = {"triads_examined": 1209000}
        assert got["reports"] == [
            ["thm_sigma_equivalence", "pass", triads],
            ["thm_two_classes", "pass", {"pairs_examined": 72540, "class_size_pairs": [[25, 25]]}],
            ["thm_bracket_closed", "pass", triads],
            # 312 brackets x C(31, 3) triples
            ["thm_coherence", "pass", {"cases_examined": 1402440, "triads": 1209000}],
            ["thm_mutual_membership", "pass", triads],
            ["thm_triad_typing", "pass", triads],
            # 1,209,000 triads x C(31, 2) bracket pairs
            ["thm_exchange", "pass", {"cases_examined": 562185000}],
        ]
        assert got["seconds"] < PG35_TRIAD_SECONDS
        assert got["peak_rss_mb"] < PG35_TRIAD_RSS_MB

    def test_pg35_battery(self, tmp_path):
        # check --which all, derive and dualize on PG(3,5), in one fresh
        # process so that its peak RSS is theirs
        save_structure(gen_pg3(5)[0], tmp_path / "pg35.json")
        out = run_python(["-c", PG35_BATTERY_SCRIPT], tmp_path)
        assert out.returncode == 0, out.stderr
        got = json.loads((tmp_path / "result.json").read_text())
        assert got["codes"] == [0, 0, 0]
        reports = json.loads((tmp_path / "report.json").read_text())["reports"]
        assert [r["status"] for r in reports] == ["pass"] * 31
        # 72,540 pairs x 625 skew pairs of their perp
        assert reports[3]["stats"] == {"skew_pairs_examined": 45337500}
        for r in reports:
            assert r["stats"] == CLOSED_FORMS[r["check_name"]](5), r["check_name"]
        assert got["seconds"] < PG35_BATTERY_SECONDS
        assert got["peak_rss_mb"] < PG35_BATTERY_RSS_MB

    def test_pg37_generation(self, pg37_pair):
        # the whole PG(3,7) structure, then the two axioms that walk every line and pair
        s, meta = pg37_pair
        assert s.line_count == 2850 == gaussian_binomial(4, 2, 7)
        assert len(meta.point_reps) == len(meta.plane_reps) == 400
        assert set(s.adjacency.sum(axis=1).tolist()) == {449}  # (q+1)(q^2+q) + 1
        r1, r2 = check_axiom1(s), check_axiom2_1(s)
        assert (r1.status, r1.stats) == ("pass", {"lines_examined": 2850})
        assert (r2.status, r2.stats) == ("pass", {"pairs_examined": 638400})


def test_every_check_has_a_closed_form():
    assert list(CLOSED_FORMS) == [check.name for check in CHECKS]


@pytest.mark.parametrize("q", [2, 3])
def test_stats_match_closed_forms(q, request):
    """Each check passes on PG(3,q) with the stats that counting in PG(3,q)
    gives, as a report file holds them: 420 point triples at q = 2, 9,360
    at q = 3, and 18,720 triads at q = 3."""
    s, m = request.getfixturevalue(f"pg{q}"), request.getfixturevalue(f"pg{q}_model")
    for check in CHECKS:
        r = check.checker(s, m) if check.needs_model else check.checker(s)
        stats = json.loads(json.dumps(r.stats))  # a pair of class sizes is a list in a report
        assert (r.status, stats) == ("pass", CLOSED_FORMS[check.name](q)), check.name


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_adjacency_matches_shared_point_oracle(q, pg37_pair):
    s, meta = pg37_pair if q == 7 else gen_pg3(q)
    adj, per_line = oracle_adjacency(meta.line_reps, q)
    # every rep spans q + 1 points, and no two reps span the same line
    assert {len(pts) for pts in per_line} == {q + 1}
    assert len(set(per_line)) == s.line_count
    assert len(frozenset().union(*per_line)) == (q + 1) * (q * q + 1)
    mismatch = np.argwhere(s.adjacency != adj)
    assert not mismatch.size, f"first mismatch at {mismatch[0].tolist()}"


class TestPg3Membership:
    def test_point_on_line(self):
        _, meta = gen_pg3(2)
        line = meta.line_reps[0]
        on = [pt for pt in meta.point_reps if point_on_line(pt, line, 2)]
        assert len(on) == 3

    def test_line_in_plane(self):
        _, meta = gen_pg3(2)
        line = meta.line_reps[0]
        containing = [pl for pl in meta.plane_reps if line_in_plane(line, pl, 2)]
        assert len(containing) == 3

    @pytest.mark.parametrize("q", [2, 3])
    def test_membership_sets_match_rank_tests(self, q):
        _, meta = gen_pg3(q)
        on_line = [
            frozenset(i for i, pt in enumerate(meta.point_reps) if point_on_line(pt, ln, q))
            for ln in meta.line_reps
        ]
        in_plane = [
            frozenset(i for i, pl in enumerate(meta.plane_reps) if line_in_plane(ln, pl, q))
            for ln in meta.line_reps
        ]
        assert line_point_sets(meta) == on_line
        assert line_plane_sets(meta) == in_plane

    def test_pg35_membership_census(self):
        _, meta = gen_pg3(5)
        for sets in (line_point_sets(meta), line_plane_sets(meta)):
            assert len(sets) == 806
            assert all(len(found) == 6 for found in sets)
            per_element = [0] * len(meta.point_reps)
            for found in sets:
                for i in found:
                    per_element[i] += 1
            assert per_element == [31] * 156  # q^2 + q + 1 lines on each point, in each plane

    def test_unsupported_q(self):
        for q in (4, 6, 11, 1):
            with pytest.raises(UnsupportedFieldError):
                gen_pg3(q)


class TestVerifyCounts:
    def test_pg2(self, pg2_meta, pg2_model):
        report = verify_counts(pg2_meta, pg2_model)
        assert report.passed, report.counterexample
        assert report.stats["points"] == 15
        assert report.stats["planes"] == 15
        assert report.stats["pairs_checked"] == len(incident_pairs(pg2_model.structure))

    def test_pg3(self, pg3_meta, pg3_model):
        report = verify_counts(pg3_meta, pg3_model)
        assert report.passed, report.counterexample
        assert report.stats["points"] == 40
        assert report.stats["planes"] == 40

    def test_detects_corruption(self, pg2_meta, pg2_model):
        from linespace import GeometryModel

        broken = GeometryModel(
            structure=pg2_model.structure,
            points=pg2_model.points[:-1],
            planes=pg2_model.planes,
            seed=pg2_model.seed,
        )
        report = verify_counts(pg2_meta, broken)
        assert not report.passed

    def test_sigma_is_bundle_xor_ruled_plane(self, pg2, pg2_meta):
        # Spot-check the identity the report validates wholesale.
        pts = line_point_sets(pg2_meta)
        pls = line_plane_sets(pg2_meta)
        for a, b in incident_pairs(pg2)[:25]:
            (cp,) = pts[a] & pts[b]
            (cl,) = pls[a] & pls[b]
            bundle = {l for l in range(pg2.line_count) if cp in pts[l]}
            ruled = {l for l in range(pg2.line_count) if cl in pls[l]}
            assert sigma(pg2, a, b) == frozenset(bundle ^ ruled)
            assert len(bundle) == 7 and len(ruled) == 7


class TestNegativeFixtures:
    def test_kinds_complete(self):
        assert set(NEGATIVE_KINDS) == set(NEGATIVE_EXPECTATIONS)

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            gen_negative("nonsense")

    def test_shapes(self):
        assert gen_negative("single_line").line_count == 1
        assert gen_negative("no_skew_anywhere").skew_pairs() == []
        assert len(gen_negative("two_components").skew_pairs()) == 42
        assert len(gen_negative("pasch_violation").skew_pairs()) == 2

    def test_two_components_holds_two_tetrahedra(self):
        s = gen_negative("two_components")
        first = s.adjacency[:6, :6]
        second = s.adjacency[6:, 6:]
        tetra = gen_tetrahedron()
        assert (first == tetra.adjacency).all()
        assert (second == tetra.adjacency).all()
        assert not s.adjacency[:6, 6:].any()


class TestIsomorphism:
    def test_tetra_self(self, tetra):
        assert is_isomorphic(tetra, gen_tetrahedron())

    def test_relabeled_tetra(self, tetra):
        from linespace import IncidenceStructure

        # same pattern under a permutation of indices
        s = IncidenceStructure.from_skew_pairs(6, [(0, 1), (2, 4), (3, 5)])
        assert is_isomorphic(tetra, s)

    def test_different_pattern(self, tetra):
        from linespace import IncidenceStructure

        s = IncidenceStructure.from_skew_pairs(6, [(0, 1), (0, 2), (0, 3)])
        assert not is_isomorphic(tetra, s)

    def test_size_mismatch(self, tetra):
        from linespace import IncidenceStructure

        assert not is_isomorphic(tetra, IncidenceStructure.from_skew_pairs(5, []))
