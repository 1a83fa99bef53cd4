"""Positive one-point commuting difference operators on hyperelliptic curves.

Builds the second-order operator families that admit odd-order commuting
partners, constructs the partners from dressing polynomial data, verifies the
defining identities numerically, and extracts spectral curves independently
through action matrices on operator kernels.
"""

from .errors import (
    CommdiffError,
    CommutationError,
    ConvergenceError,
    DegenerateDenominatorError,
    InconsistentDataError,
    InterpolationError,
    LatticeProximityError,
    NonFiniteError,
    RankDeficiencyError,
    WindowError,
)
from .numcore import (
    HyperellipticCurve,
    ZPoly,
    chebyshev_nodes,
    get_precision,
    poly_div_exact,
    poly_interpolate,
    poly_mul,
    scalar,
    set_precision,
)
from .opalg import (
    CoeffSeq,
    DiffOp,
    op_commutator,
    op_from_json,
    op_to_json,
)
from .dressing import (
    AnsatzResult,
    CurvePoint,
    DressingState,
    EvenPowerBasis,
    GeomBasis,
    PowerBasis,
    TrigBasis,
    ansatz_solve,
    baker_akhiezer,
    build_partner_op,
    chi_eval,
    curve_point,
    elliptic_dressing_state,
    factorization_check,
    l2_operator,
    q_from_s,
    residual_linear,
    solve_partner_recursive,
    verify_master,
)
from .families import (
    FamilySpec,
    build_case,
    elliptic_family,
    geom_family,
    poly_family,
    trig_family,
)
from .spectral import (
    ActionMatrix,
    CurveReport,
    action_matrix,
    extract_curve,
    kernel_extend,
    rank2_curve_check,
)
from .lame import (
    LameDiscretization,
    WeierstrassContext,
    ag_build,
    continuum_check,
    continuum_slope,
    lame_curve_independence,
    lame_l2,
    lemniscatic_context,
    select_a2_interpretation,
)
from .rank2 import Rank2Params, build_l4, build_l6_special, verify_rank2

__version__ = "0.1.0"
