"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Counts are exact (zero tolerance), timings use the stated wall-clock
budgets, and criteria with fresh timing requirements regenerate their
structures inside the measured block rather than reusing session fixtures.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import itertools
import random
import time

from linespace import (
    NEGATIVE_EXPECTATIONS,
    NEGATIVE_KINDS,
    IncidenceStructure,
    check_all,
    coordinate_labels,
    dualize,
    gen_negative,
    gen_pg3,
    gen_tetrahedron,
    incident_pairs,
    perp,
    replay_counterexample,
    run_theorem_suite,
    sigma,
    sigma_partition,
    vy_axioms,
)
from linespace.io import canonical_json, model_to_dict
from test_models import verify_counts


def _criterion(number, description):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:>2} FAIL  {description}")
                raise
            print(f"ACCEPTANCE {number:>2} PASS  {description}")

        return wrapper

    return decorator


@_criterion(1, "tetrahedron fixture fails exactly the skew-triple axiom, under 1 s")
def test_criterion_1_tetrahedron_vector():
    start = time.monotonic()
    reports = check_all(gen_tetrahedron())
    elapsed = time.monotonic() - start
    assert [r.status for r in reports] == ["fail", "pass", "pass", "pass", "pass", "pass"]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@_criterion(2, "tetrahedron sigma values match the published sets exactly")
def test_criterion_2_tetrahedron_sigma_sets():
    t = gen_tetrahedron()
    a, b, c, ch = t.index("a"), t.index("b"), t.index("c"), t.index("ch")
    assert perp(t, (a, b)) == frozenset({a, b, c, ch})
    assert perp(t, perp(t, (a, b))) == frozenset({a, b})
    assert sigma(t, a, b) == frozenset({c, ch})
    part = sigma_partition(t, a, b)
    assert part.class_0 == frozenset({c})
    assert part.class_1 == frozenset({ch})


def _model_counts_ok(s, m, meta, n_elements, element_size, pencil, sigma_size, half):
    assert len(m.points) == n_elements and len(m.planes) == n_elements
    assert all(len(e) == element_size for e in m.points + m.planes)
    pmasks = [sum(1 << l for l in e) for e in m.points]
    lmasks = [sum(1 << l for l in e) for e in m.planes]
    for pm in pmasks:
        for lm in lmasks:
            common = (pm & lm).bit_count()
            assert common in (0, pencil)
    for a, b in incident_pairs(s):
        part = sigma_partition(s, a, b)
        assert len(part.class_0 | part.class_1) == sigma_size
        assert len(part.class_0) == half and len(part.class_1) == half
    oracle = verify_counts(meta, m)
    assert oracle.passed, oracle.counterexample


@_criterion(3, "PG(3,2): 35 lines, all axioms, 15+15 elements of 7, oracle-checked, under 10 s")
def test_criterion_3_pg32():
    start = time.monotonic()
    s, meta = gen_pg3(2)
    assert s.line_count == 35
    assert all(r.passed for r in check_all(s))
    m = coordinate_labels(s)
    _model_counts_ok(s, m, meta, 15, 7, 3, 8, 4)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@_criterion(4, "PG(3,3): 130 lines, all axioms, 40+40 elements of 13, under 5 min")
def test_criterion_4_pg33():
    start = time.monotonic()
    s, meta = gen_pg3(3)
    assert s.line_count == 130
    assert all(r.passed for r in check_all(s))
    m = coordinate_labels(s)
    _model_counts_ok(s, m, meta, 40, 13, 4, 18, 9)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


@_criterion(5, "every theorem verifier passes on PG(3,2), PG(3,3), and the tetrahedron")
def test_criterion_5_theorem_suite(pg2, pg2_model, pg3, pg3_model, tetra):
    for s, m in ((pg2, pg2_model), (pg3, pg3_model), (tetra, None)):
        for r in run_theorem_suite(s, m):
            assert r.passed, (s.name, r.check_name, r.counterexample)


@_criterion(6, "extension/alignment battery passes on PG(3,2); q+1 points per line")
def test_criterion_6_vy_battery(pg2, pg2_model, pg3, pg3_model):
    reports = vy_axioms(pg2, pg2_model)
    assert all(r.passed for r in reports), [(r.check_name, r.status) for r in reports]
    e0 = reports[0]
    assert e0.stats["min_points_on_line"] == 3
    assert e0.stats["max_points_on_line"] == 3
    e0_q3 = vy_axioms(pg3, pg3_model)[0]
    assert e0_q3.stats["min_points_on_line"] == 4
    assert e0_q3.stats["max_points_on_line"] == 4


@_criterion(7, "duality is a byte-identical involution and the dual passes everything")
def test_criterion_7_duality(pg2, pg2_model):
    dual = dualize(pg2_model)  # dualize re-verifies the swapped model
    assert dual.points == pg2_model.planes
    assert dual.planes == pg2_model.points
    round_trip = dualize(dual)
    assert canonical_json(model_to_dict(round_trip)) == canonical_json(
        model_to_dict(pg2_model)
    )
    reports = vy_axioms(pg2, dual)
    assert all(r.passed for r in reports)


@_criterion(8, "every admissible seed yields one of two swap-related labelings")
def test_criterion_8_seed_independence(tetra, pg2):
    for s in (tetra, pg2):
        assignments = set()
        for a, b in incident_pairs(s):
            for k in (0, 1):
                m = coordinate_labels(s, (a, b, k))
                assignments.add((m.points, m.planes))
        assert len(assignments) <= 2
        if len(assignments) == 2:
            first, second = sorted(assignments)
            assert first[0] == second[1] and first[1] == second[0]


@_criterion(9, "negative fixtures fail exactly as documented with replayable witnesses")
def test_criterion_9_negative_fixtures():
    for kind in NEGATIVE_KINDS:
        s = gen_negative(kind)
        reports = check_all(s)  # must not raise on any fixture
        vector = {r.check_name: r.status for r in reports}
        assert vector == NEGATIVE_EXPECTATIONS[kind]["vector"], (kind, vector)
        for r in reports:
            if r.counterexample is not None:
                assert replay_counterexample(s, r), (kind, r.check_name)
        run_theorem_suite(s)  # theorem battery must not crash either
        vy_axioms(s)


@_criterion(10, "perp satisfies the closure laws on 1000 random structures")
def test_criterion_10_galois_laws():
    rng = random.Random(20240901)
    for _ in range(1000):
        n = rng.randint(4, 40)
        all_pairs = list(itertools.combinations(range(n), 2))
        skew = [p for p in all_pairs if rng.random() < rng.random()]
        s = IncidenceStructure.from_skew_pairs(n, skew)
        members = frozenset(rng.sample(range(n), rng.randint(0, n)))
        larger = members | frozenset(rng.sample(range(n), rng.randint(0, n)))
        assert perp(s, larger) <= perp(s, members)  # antitone
        assert members <= perp(s, perp(s, members))  # extensive
        once = perp(s, members)
        assert perp(s, perp(s, once)) == once  # idempotent
