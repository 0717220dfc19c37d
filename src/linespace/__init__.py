"""Line-first incidence geometry toolkit.

Lines are the only primitive; points and planes are derived as coordinated
sets of lines.  The package provides the core perp operator, sigma sets and
their incidence classes, the point/plane labeling with its duality
involution, exhaustive axiom and theorem checkers with replayable
witnesses, and PG(3,q) model generators over prime fields.
"""

from .core import (
    CapacityError,
    IncidenceStructure,
    LinespaceError,
    PreconditionError,
    StructureError,
    bracket,
    find_skew_pair,
    find_skew_triple,
    incident_pairs,
    is_incident,
    labels_of,
    line_cap,
    perp,
)
from .sigma import (
    NotTwoClassesError,
    SigmaPartition,
    is_triad,
    secondary_element,
    sigma,
    sigma_partition,
)
from .labeling import (
    GeometryModel,
    Kind,
    LabelInconsistencyError,
    MissingElementError,
    SecondaryElement,
    coordinate_labels,
    dualize,
    enumerate_secondary_elements,
    join_plane,
    meet_point,
)
from .axioms import (
    CHECK_ORDER,
    CheckReport,
    check_all,
    check_axiom1,
    check_axiom2_1,
    check_axiom2_2,
    check_axiom2_3,
    check_axiom3,
    check_axiom4,
    replay_counterexample,
)
from .theorems import (
    run_theorem_suite,
    run_vy_battery,
    replay_theorem_counterexample,
    thm_bracket_closed,
    thm_bracket_welldefined,
    thm_coherence,
    thm_exchange,
    thm_line_in_plane,
    thm_line_selfperp,
    thm_mutual_membership,
    thm_not_singleton,
    thm_pencil_intersection,
    thm_point_ne_plane,
    thm_regulus_skew,
    thm_sigma_equivalence,
    thm_tetrahedron,
    thm_triad_typing,
    thm_triangle,
    thm_two_classes,
    thm_uniqueness,
    vy_axioms,
)
from .models import (
    NEGATIVE_EXPECTATIONS,
    NEGATIVE_KINDS,
    Pg3Metadata,
    SUPPORTED_PRIMES,
    UnsupportedFieldError,
    gen_negative,
    gen_pg3,
    gen_tetrahedron,
)
from .io import (
    ParseError,
    load_model,
    load_structure,
    model_to_dict,
    save_model,
    save_reports,
    save_structure,
    structure_to_dict,
)

__version__ = "0.1.0"
