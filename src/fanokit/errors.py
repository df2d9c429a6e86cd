"""Exception types naming the precondition each operation can violate."""


class FanokitError(Exception):
    """Base class for all library errors."""


class InputError(FanokitError):
    """Malformed input document (bad JSON, wrong schema, unparsable rational)."""


class DegeneratePolytope(FanokitError):
    """Polytope is not full-dimensional where full dimension is required."""


class DegenerateSimplex(FanokitError):
    """Simplex vertices are affinely dependent."""


class UnsupportedOrder(FanokitError):
    """Moment order k exceeds the supported bound (k <= 4)."""


class NonpositiveScale(FanokitError):
    """Rescaling factor must be strictly positive."""


class MissingTorusWeights(FanokitError):
    """Operation needs per-vector torus weights that are absent."""


class MissingLevel(FanokitError):
    """Requested graded degree is not stored."""


class DimensionMismatch(FanokitError):
    """Ambient dimensions of two objects disagree."""


class NotABasis(FanokitError):
    """Supplied vectors do not span the level."""


class InvalidWeightFiltration(FanokitError):
    """Weight vector or monomial-model data is inconsistent."""


class InsufficientDegrees(FanokitError):
    """Not enough stored degrees for the polynomial fit."""


class InconsistentDecomposition(FanokitError):
    """Component values do not sum to the stated total."""


class NegativeSupport(FanokitError):
    """Spectral measure has mass below zero where support in [0, inf) is required."""


class OriginNotInterior(FanokitError):
    """Properness precondition fails: 0 is not strictly inside the polytope."""


class NonConvergence(FanokitError):
    """Iterative solver failed to meet its tolerance."""


class DenominatorVanishes(FanokitError):
    """Cone-family denominator is not positive on the measure's support."""


class InvalidVolumeFunction(FanokitError):
    """Supplied volume profile is not non-increasing."""


class NonFiniteResult(FanokitError):
    """A requested value lies outside double range (overflows or underflows to 0)."""
