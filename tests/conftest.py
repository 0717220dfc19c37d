import os
import subprocess
import sys
from pathlib import Path

import pytest

import linespace
from linespace import coordinate_labels, gen_pg3, gen_tetrahedron

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
