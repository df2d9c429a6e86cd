"""The soliton objective's value as the package used to compute it.

The value came from a kernel batch of its own on the plain node lists, and
the gradient and Hessian from the moments batch.
``_SolitonObjective.evaluate`` now reads all three from the moments batch;
these copies are the reference it is tested against.
"""

import math

import numpy as np

from fanokit._kernel import dd_exp_batch


def value(objective, xi) -> float:
    z = -(objective.points @ np.asarray(xi, dtype=float))
    rows, offset, _ = dd_exp_batch(z)
    log_w = objective.log_scale + offset
    top = float(log_w.max())
    total = math.fsum(np.exp(log_w - top) * rows[:, -1])
    return top + math.log(total) - objective.log_vol


def grad_hess(objective, xi):
    _, total, grad, second = objective.moments(xi)
    g = grad / total
    return g, second / total - np.outer(g, g)
