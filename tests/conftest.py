import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linespace
from linespace import IncidenceStructure, PreconditionError, coordinate_labels, gen_pg3, gen_tetrahedron

SRC = Path(linespace.__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def tetra():
    return gen_tetrahedron()


@pytest.fixture(scope="session")
def pg2_pair():
    return gen_pg3(2)


@pytest.fixture(scope="session")
def pg2(pg2_pair):
    return pg2_pair[0]


@pytest.fixture(scope="session")
def pg2_meta(pg2_pair):
    return pg2_pair[1]


@pytest.fixture(scope="session")
def pg2_model(pg2):
    return coordinate_labels(pg2)


@pytest.fixture(scope="session")
def pg3_pair():
    return gen_pg3(3)


@pytest.fixture(scope="session")
def pg3(pg3_pair):
    return pg3_pair[0]


@pytest.fixture(scope="session")
def pg3_meta(pg3_pair):
    return pg3_pair[1]


@pytest.fixture(scope="session")
def pg3_model(pg3):
    return coordinate_labels(pg3)


def ids_for(s, names):
    """Map labels to indices for readable test setup."""
    return tuple(s.index(n) for n in names)


def names_for(s, ids):
    return sorted(s.labels[i] for i in ids)


def is_isomorphic(s1: IncidenceStructure, s2: IncidenceStructure) -> bool:
    """Brute-force incidence-pattern isomorphism for small structures (n <= 8)."""
    n = s1.line_count
    if n != s2.line_count:
        return False
    if n > 8:
        raise PreconditionError("is_isomorphic is for small fixtures (n <= 8)")
    a1, a2 = s1.adjacency, s2.adjacency
    deg1 = sorted(int(a1[i].sum()) for i in range(n))
    deg2 = sorted(int(a2[i].sum()) for i in range(n))
    if deg1 != deg2:
        return False
    for perm in itertools.permutations(range(n)):
        if all(
            a1[i, j] == a2[perm[i], perm[j]] for i in range(n) for j in range(i + 1, n)
        ):
            return True
    return False


def run_python(args, tmp_path, **env):
    """Run the interpreter on the package source in a subprocess."""
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )


# A child inherits the peak RSS of the process that starts it in ru_maxrss
# (on Linux, through exec: 192 MB read in a child started late in a tier-1
# run, against 165 MB in one started alone), so the scripts run by
# run_python read their own peak, VmHWM, where the system reports it.
PEAK_RSS = """
def peak_rss_mb():
    try:
        with open("/proc/self/status") as f:
            return next(int(l.split()[1]) for l in f if l.startswith("VmHWM:")) / 1024
    except OSError:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
"""


def one_perp_regulus():
    """Eleven lines whose least skew triple lies in one distinct perp only.

    u, v, w = L0, L1, L2 are pairwise skew; m, n = L3, L4 meet them and each
    other; each of L5-L10 meets one of u, v, w and one of m, n, and nothing
    else.  So perp(m, n) = {u, v, w, m, n} is the one perp holding u, v, w,
    and the numerically least perp: every other perp holds one of L5-L10.
    No other perp holds a skew triple.
    """
    ends = [(j, h) for j in range(3) for h in (3, 4)]
    incident = {*ends, (3, 4)} | {(e, 5 + i) for i, pair in enumerate(ends) for e in pair}
    skew = [p for p in itertools.combinations(range(11), 2) if p not in incident]
    return IncidenceStructure.from_skew_pairs(11, skew)


# Two flipped incidences of PG(3,2) that leave 96 of its 132 distinct perps
# split and fail axioms 2.2 and 2.3, thm_bracket_welldefined and
# thm_regulus_skew, each first in a perp after 13-15 split ones.  So a
# kernel that misjudges or miscounts the split perps it skips changes the
# report.
MIXED_PERPS_FLIPS = [(20, 28), (22, 29)]


# Each registered check's adjacency-only oracle: the test module whose
# ``assert_matches_oracle`` compares the check with it, and the method of
# that module's ``Oracle`` giving the report.  ``vy`` reports the eight vy
# checks at once.
ORACLES = {
    **{name: ("test_axiom_oracle", name) for name in "axiom1 axiom2_1 axiom2_2 axiom2_3 axiom3 axiom4".split()},
    "thm_sigma_equivalence": ("test_theorem_oracle", "sigma_equivalence"),
    "thm_two_classes": ("test_theorem_oracle", "two_classes"),
    "thm_bracket_welldefined": ("test_theorem_oracle", "bracket_welldefined"),
    "thm_line_selfperp": ("test_theorem_oracle", "line_selfperp"),
    "thm_regulus_skew": ("test_theorem_oracle", "regulus_skew"),
    "thm_bracket_closed": ("test_theorem_oracle", "bracket_closed"),
    "thm_coherence": ("test_theorem_oracle", "coherence"),
    "thm_mutual_membership": ("test_theorem_oracle", "mutual_membership"),
    "thm_triad_typing": ("test_model_oracle", "triad_typing"),
    "thm_point_ne_plane": ("test_model_oracle", "point_ne_plane"),
    "thm_pencil_intersection": ("test_model_oracle", "pencil_intersection"),
    "thm_exchange": ("test_model_oracle", "exchange"),
    "thm_not_singleton": ("test_model_oracle", "not_singleton"),
    "thm_uniqueness": ("test_model_oracle", "uniqueness"),
    "thm_line_in_plane": ("test_model_oracle", "line_in_plane"),
    "thm_triangle": ("test_model_oracle", "triangle"),
    "thm_tetrahedron": ("test_model_oracle", "tetrahedron"),
    **{name: ("test_model_oracle", "vy") for name in "vy_e0 vy_e1 vy_e2 vy_e3 vy_e3p vy_a1 vy_a2 vy_a3".split()},
}


def oracle_reports(o, module):
    """Per registered check whose oracle ``module`` holds, in table order,
    the check and the report of the oracle ``o``; each method runs once."""
    from linespace.registry import CHECKS

    reports = {}
    for c in CHECKS:
        home, method = ORACLES.get(c.name, (None, None))
        if home == module:
            if method not in reports:
                reports[method] = getattr(o, method)()
            got = reports[method]
            yield c, next(r for r in got if r["check_name"] == c.name) if isinstance(got, list) else got
