"""Line-first incidence geometry toolkit.

Lines are the only primitive; points and planes are derived as coordinated
sets of lines.  The package provides the core perp operator, sigma sets and
their incidence classes, the point/plane labeling with its duality
involution, exhaustive axiom and theorem checkers with replayable
witnesses, and PG(3,q) model generators over prime fields.

Submodules load on first use: each name below is bound when it is first
read, by importing the module that defines it, so a command loads only the
modules it runs.
"""

import sys as _sys

# Bound now because importing the submodule ``linespace.sigma``, as the
# labeling does, would otherwise set the package attribute to the module.
from .sigma import sigma

# Each submodule and the public names it defines.
_EXPORTS = {
    "core": """CapacityError IncidenceStructure LabelInconsistencyError LinespaceError
        MissingElementError PreconditionError StructureError bracket find_skew_triple
        incident_pairs labels_of perp""",
    "sigma": "NotTwoClassesError SigmaPartition sigma_partition",
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, "sigma"])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)  # a submodule, or a name's home
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    path = f"{__name__}.{module}"
    __import__(path)  # as an import statement does, so -X importtime reports the load
    if module == name:
        return _sys.modules[path]
    value = globals()[name] = getattr(_sys.modules[path], name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
