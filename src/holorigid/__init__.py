"""Local holomorphic dynamics and obstruction certificates for weighted
composition operators h -> u * (h o f) on spaces of holomorphic functions."""

from .errors import (
    BaseMismatchError,
    ConstructionError,
    HoloError,
    InsufficientDegreeError,
    OrbitError,
    PreconditionError,
    RangeError,
    SchemaError,
    StructureError,
    TermOverflowError,
)
from .jets import (
    GradedOperatorMatrix,
    Jet,
    JetMap,
    eigenvalue_law,
    graded_basis,
    graded_eigenvalues,
    graded_matrix_bruteforce,
    graded_matrix_formula,
    jet_compose,
    jet_multiply,
    multi_indices,
    multiset_close,
)
from .dynamics import (
    ALL_POINTS,
    AllPoints,
    PeriodicOrbit,
    PolyFunc,
    PolyMap,
    SearchConfig,
    classify,
    cocycle_poly,
    iterate,
    make_orbit,
    multipliers,
    periodic_orbits,
    periodic_points_1d,
    periodic_points_2d,
    weight_cocycle,
)
from .rigidity import (
    AffineVerdict,
    DualityFlags,
    ObstructionCertificate,
    affine_verdict_1d,
    certify_bounded,
    certify_compact,
    certify_cyclic,
    certify_hypercyclic,
    certify_supercyclic,
    duality_check,
)
from .fock import (
    OperatorMatrix,
    coefficient_matrix,
    operator_matrix,
    operator_matrix_from_polys,
    restriction_norm_profile,
    truncated_norm,
)
from .sphere import (
    RepellingConstruction,
    SphereMaxProfile,
    construct_repelling,
    hadamard_profile,
    sphere_max,
    su_map_between,
)
from .henon import (
    GeneralizedHenon,
    HenonComposition,
    saddle_certificate,
    to_polymap,
)

__version__ = "0.1.0"
