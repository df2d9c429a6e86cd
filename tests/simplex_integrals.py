"""Single-simplex kernel entry points that only tests call.

``dd_exp`` is the batch-of-one form of ``_kernel.dd_exp_batch``, scaled back
by its log offset; ``simplex_weighted_exp_integral`` is one simplex's
int w^k e^{-l} through ``expint._exp_integrals``, the path every cell sum in
the package takes.
"""

import math

from fanokit._kernel import dd_exp_batch
from fanokit.errors import NonFiniteResult, UnsupportedOrder
from fanokit.expint import (
    MAX_MOMENT_ORDER,
    ExpIntegralResult,
    _exp_integrals,
    _factorial_volume,
    _vertex_values,
)


def dd_exp(z):
    """Divided difference of exp at nodes z (ties allowed); returns (value, rel_err)."""
    n1 = len(z)
    rows, offset, err = dd_exp_batch([z])
    return float(rows[0, n1 - 1]) * math.exp(offset[0]), float(err[0])


def simplex_weighted_exp_integral(s, l, w, k: int) -> ExpIntegralResult:
    """int_s w(y)^k e^{-l(y)} dy for k <= 4.

    Realized as the k-th derivative of the divided-difference representation
    along the deformation l -> l - t*w, so the clustering safeguards of the
    plain kernel carry over.  NonFiniteResult outside double range.
    """
    if k < 0 or k > MAX_MOMENT_ORDER:
        raise UnsupportedOrder(f"moment order {k} not in 0..{MAX_MOMENT_ORDER}")
    z = [-v for v in _vertex_values(s, l)]
    b = [_vertex_values(s, w)] if k else None
    try:
        values, err, method = _exp_integrals([z], [_factorial_volume(s)], b, k, [0.0])[0]
        if math.isfinite(values[k]):
            return ExpIntegralResult(values[k], err, method)
    except OverflowError:  # the kernel's offset e^{-l} itself
        pass
    raise NonFiniteResult("the exponential integral is outside double range")
