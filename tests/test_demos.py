"""Each script under demos/ runs to the end in a fresh process."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    done = run_python([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr
