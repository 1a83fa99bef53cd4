"""Positive one-point commuting difference operators on hyperelliptic curves.

Builds the second-order operator families that admit odd-order commuting
partners, constructs the partners from dressing polynomial data, verifies the
defining identities numerically, and extracts spectral curves independently
through action matrices on operator kernels.
"""

from .errors import (
    CommdiffError,
    CommutationError,
    DegenerateDenominatorError,
    InconsistentDataError,
    LatticeProximityError,
    NonFiniteError,
    RankDeficiencyError,
    WindowError,
)
from .opalg import commutator_residual
from .dressing import GeomBasis, ansatz_solve, build_partner_op, l2_operator
from .families import geom_family
from .spectral import extract_curve

__version__ = "0.1.0"
