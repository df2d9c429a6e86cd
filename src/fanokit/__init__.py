"""Functionals and optimal-degeneration solvers on polytope and filtration data.

The package computes spectral (Duistermaat-Heckman type) measures of graded
filtrations, the associated energy/entropy functionals, and the strictly
convex optima behind soliton vector fields, valuation rescaling and torus
twists, with exact rational geometry underneath and one divided-difference
kernel for the exponential integrals.
"""

from .errors import FanokitError
from .expint import ExpIntegralResult, PLConcaveFunction
from .filtration import FiltrationLevel, GradedFiltration, MonomialModel
from .functionals import LPolicy, NAReport
from .geometry import AffineForm, RationalPolytope, Simplex
from .measure import AtomicMeasure, DHMeasure, PushforwardMeasure, SupportInfo
from .optimize import ConvexScan, OptResult

__version__ = "0.1.0"

__all__ = [
    "AffineForm",
    "AtomicMeasure",
    "ConvexScan",
    "DHMeasure",
    "ExpIntegralResult",
    "FanokitError",
    "FiltrationLevel",
    "GradedFiltration",
    "LPolicy",
    "MonomialModel",
    "NAReport",
    "OptResult",
    "PLConcaveFunction",
    "PushforwardMeasure",
    "RationalPolytope",
    "Simplex",
    "SupportInfo",
]
