"""The public surface of the package, which loads its submodules on first use."""

import json
import tracemalloc
from pathlib import Path

import pytest

import linespace

from conftest import run_python

CHECK_ORDER = [row[0] for row in json.loads((Path(__file__).parent / "golden" / "check_all.json").read_text())["pg2"]]

# Every name the package exported when it imported all of its submodules, by
# the module that defines it.
EXPORTS = {
    "core": """CapacityError IncidenceStructure LabelInconsistencyError LinespaceError
        MissingElementError PreconditionError StructureError bracket find_skew_triple
        incident_pairs labels_of perp""",
    "sigma": "NotTwoClassesError SigmaPartition sigma sigma_partition",
    "labeling": """GeometryModel Kind SecondaryElement coordinate_labels dualize
        enumerate_secondary_elements join_plane meet_point""",
    "registry": "CheckReport",
    "axioms": """check_all check_axiom1 check_axiom2_1 check_axiom2_2
        check_axiom2_3 check_axiom3 check_axiom4 replay_counterexample""",
    "theorems": """thm_bracket_closed thm_bracket_welldefined thm_coherence
        thm_line_selfperp thm_mutual_membership thm_regulus_skew
        thm_sigma_equivalence thm_two_classes""",
    "model_theorems": """thm_exchange thm_line_in_plane thm_not_singleton
        thm_pencil_intersection thm_point_ne_plane thm_triad_typing thm_uniqueness""",
    "battery": """run_theorem_suite replay_theorem_counterexample
        thm_tetrahedron thm_triangle vy_axioms""",
    "models": """NEGATIVE_EXPECTATIONS NEGATIVE_KINDS Pg3Metadata
        UnsupportedFieldError gen_negative gen_pg3 gen_tetrahedron""",
    "io": """ParseError load_model load_structure model_to_dict save_model
        save_reports save_structure structure_to_dict""",
}
HOME = {name: module for module, names in EXPORTS.items() for name in names.split()}


def fresh(script, tmp_path):
    """The last line of ``script``'s output, run in a fresh process."""
    done = run_python(["-c", script], tmp_path)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(HOME))
def test_every_export_is_its_home_modules_object(name):
    home = __import__(f"linespace.{HOME[name]}", fromlist=[name])
    assert getattr(linespace, name) is getattr(home, name)


def test_labeling_error_is_the_one_labeling_raises(tmp_path):
    # defined beside the other errors, so that reading it loads no labeling
    script = """
import json, sys, linespace
error = linespace.LabelInconsistencyError
loaded = "linespace.labeling" in sys.modules
import linespace.labeling
print(json.dumps([loaded, error is linespace.labeling.LabelInconsistencyError]))
"""
    assert fresh(script, tmp_path) == [False, True]


def test_missing_element_error_is_the_one_labeling_raises(tmp_path):
    # the registry catches it around every model check without loading the labeling
    script = """
import json, sys, linespace
error = linespace.MissingElementError
loaded = "linespace.labeling" in sys.modules
m = linespace.GeometryModel(structure=linespace.gen_tetrahedron(), points=(), planes=(), seed=None)
try:
    linespace.meet_point(m, 0, 1)  # a and b meet in no point of an empty family
    raised = False
except error:
    raised = True
print(json.dumps([loaded, raised]))
"""
    assert fresh(script, tmp_path) == [False, True]


def test_star_import_lists_every_export():
    assert sorted(linespace.__all__) == sorted(HOME)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'perps'"):
        linespace.perps


def test_nothing_loads_but_sigma_and_core(tmp_path):
    script = "import json, sys, linespace\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('linespace'))))"
    assert fresh(script, tmp_path) == ["linespace", "linespace.core", "linespace.sigma"]


def test_sigma_stays_the_function_after_its_module_loads(tmp_path):
    # Importing a submodule binds it on the package; the sigma function must win.
    script = """
import json, sys
import linespace.labeling
from linespace import sigma
import linespace.sigma
print(json.dumps([sigma is sys.modules["linespace.sigma"].sigma, linespace.sigma is sigma]))
"""
    assert fresh(script, tmp_path) == [True, True]


def test_io_is_the_module(tmp_path):
    script = """
import json, linespace
print(json.dumps([linespace.io.__name__, linespace.io.structure_to_dict.__name__]))
"""
    assert fresh(script, tmp_path) == ["linespace.io", "structure_to_dict"]


@pytest.mark.parametrize("first", ["registry", "axioms", "theorems", "model_theorems", "battery"])
def test_registry_read_first_lists_every_check(first, tmp_path):
    # whichever module a process enters through, the table is whole and in order
    script = f"""
import json
import linespace.{first}
from linespace.registry import CHECKS
print(json.dumps([c.name for c in CHECKS]))
"""
    assert fresh(script, tmp_path) == CHECK_ORDER
    assert len(CHECK_ORDER) == 31


# A process that writes no bytecode compiles each module it loads from
# source, and the compile of the largest module set the peak of a whole
# PG(3,3) check (4.9 MB for a 1,344-line module).
COMPILE_PEAK_BYTES = 2_500_000


@pytest.mark.parametrize("path", sorted(Path(linespace.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_each_module_compiles_in_a_small_transient(path):
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COMPILE_PEAK_BYTES, f"{path.name} compiles with a {peak / 1e6:.1f} MB peak"
