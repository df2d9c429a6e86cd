"""Divided differences of exp and their derivatives: the numerical kernel.

The integral of e^{-l(y)} over an n-simplex equals n!*vol * the n-th divided
difference of exp at the negated vertex values of l.  Two evaluation paths,
each a polynomial of one fixed degree with no convergence test:

* ``dd_exp_batch`` - the divided-difference tables of a stack of node lists,
  realized as the first rows of exp(Z) where each Z is an upper-bidiagonal
  node matrix: entry j of the first row is the divided difference at the
  first j+1 nodes (Opitz 1964; McCurdy, Ng & Parlett 1984).  Each list is
  shifted by its largest node, which is returned as a log offset instead of
  being multiplied back.  Each matrix gets its own scaling-and-squaring
  exponent, and every matrix takes the same degree-``_TAYLOR_DEGREE`` Taylor
  polynomial, so a list's result never depends on the other lists in its
  batch.  Uniformly accurate for any node spread, including exactly repeated
  nodes (the matrix route is the confluent table).
* ``dd_exp_series`` - Taylor expansion of the divided difference around the
  mean node, in complete homogeneous symmetric polynomials up to degree
  ``_SERIES_DEGREE``, with the mean returned as the log offset.  Fast and
  cancellation-free for tightly clustered nodes.

Moment weights (int w^k e^{-l}) come from ``dd_exp_batch`` with k > 0: the k-th
derivative of the divided difference along a diagonal deformation of the node
matrix, read off the corner block of the exponential of a block upper
triangular matrix.  All matrices here are tiny (<= 35 x 35).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Scaled node matrices have ||A||_inf <= 1/2, so the degree-20 Taylor
# polynomial misses exp(A) by at most 2^-21/21! * e^(1/2) < 2e-26 in norm
# (Higham, Functions of Matrices, 2008, Thm 4.8).  First-row entry p is small,
# about h^c/c! for a chain of c superdiagonal and deformation steps, so the
# degree also stays above the longest chain n1 - 1 + k: at most 8 in 4-D cells
# with k = 4, and the plain table keeps about 1e-14 relative up to 20 nodes.
_TAYLOR_DEGREE = 20
# Series rows have a node spread s < 1e-4 (``expint.CLUSTER_SPREAD``), so the
# first omitted term is below s^7/7! < 1e-31 of the leading 1/n!.
_SERIES_DEGREE = 6
_EPS = 2.220446049250313e-16


def dd_exp_batch(z, b=None, k: int = 0):
    """First rows of exp of the node matrices of the rows of ``z``.

    ``z`` is an (m, n1) array of node lists.  Returns ``(rows, offset, err)``:
    ``rows[i, j*n1 + p]`` is (1/j!) d^j/dt^j DD[exp](z_i[:p+1] + t*b_i[:p+1])
    at t = 0 divided by e^{offset[i]}, where ``offset[i] = max(z_i)``, and
    ``err[i]`` is the estimated relative error of row i.  ``b`` (m, n1) is
    the deformation direction, needed when k > 0.

    The rows are sorted by squaring exponent, largest first, so the matrices
    still squaring at each step are a prefix of the stack; the first rows
    are put back in input order at the end.
    """
    z = np.asarray(z, dtype=float)
    m, n1 = z.shape
    offset = z.max(axis=1)
    delta = z - offset[:, None]
    norm_proxy = 1.0 - delta.min(axis=1)
    if k:
        b = np.asarray(b, dtype=float)
        norm_proxy = norm_proxy + np.abs(b).max(axis=1)
    q = np.maximum(0, np.ceil(np.log2(norm_proxy / 0.5))).astype(int)
    order = np.argsort(-q, kind="stable")
    qs = q[order].tolist()
    h = np.ldexp(1.0, -q[order])[:, None]

    d = n1 * (k + 1)
    diag, sup, deform = _plan(n1, k)
    a = np.zeros((m, d * d))
    a[:, diag] = (delta[order] * h)[:, None, :]
    a[:, sup] = h[:, :, None]
    if k:
        a[:, deform] = (b[order] * h)[:, None, :]
    e = _expm_taylor(a.reshape(m, d, d))
    # rows with q > s square at step s: a prefix, as q is non-increasing
    live = m
    for s in range(qs[0] if qs else 0):
        while qs[live - 1] <= s:
            live -= 1
        head = e[:live]
        e[:live] = head @ head
    rows = np.empty((m, d))
    rows[order] = e[:, 0, :]
    err = (_TAYLOR_DEGREE + q * d) * 4.0 * _EPS
    return rows, offset, err


@lru_cache(maxsize=None)
def _plan(n1: int, k: int) -> tuple:
    """Flat indices into a (d, d) node matrix, d = n1 (k + 1): the diagonal as a
    (k + 1, n1) array, the superdiagonal inside each block as (k + 1, n1 - 1) and
    the deformation entries from block p to block p + 1 as (k, n1)."""
    d = n1 * (k + 1)
    off = np.arange(k + 1)[:, None] * n1 + np.arange(n1)
    return off * (d + 1), off[:, :-1] * (d + 1) + 1, off[:-1] * (d + 1) + n1


@lru_cache(maxsize=None)
def _eye(d: int):
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _expm_taylor(a):
    """exp of a stack of matrices with ||A||_inf <= 1/2 by Horner's rule.

    The degree-20 Taylor polynomial is I + A(I + A(... (I + A/20) ...)/2),
    the same 19 matmuls for every matrix, so no matrix depends on its stack.
    Each product goes into the other of two buffers.
    """
    eye = _eye(a.shape[1])
    e = a / _TAYLOR_DEGREE + eye
    spare = np.empty_like(e)
    for j in range(_TAYLOR_DEGREE - 1, 0, -1):
        np.matmul(a, e, out=spare)
        spare *= 1.0 / j
        spare += eye
        e, spare = spare, e
    return e


def dd_exp_series(z):
    """Series evaluation of the divided difference around the mean node.

    DD[exp](z) = e^{mean} * sum_j h_j(z - mean) / (n + j)! where h_j is the
    complete homogeneous symmetric polynomial; h_1 vanishes by centering.
    The sum stops at j = ``_SERIES_DEGREE`` = 6.  For nodes of spread s
    (max - min) every |z_i - mean| <= s, so |h_j| <= C(n + j, j) s^j and the
    omitted tail is below s^7/7! relative to the j = 0 term 1/n!: under
    1e-31 for the spreads below ``expint.CLUSTER_SPREAD`` = 1e-4 that take
    this path.  Returns ``(value, offset, rel_err)`` with
    DD[exp](z) = value * e^{offset} and ``offset`` the mean node.
    """
    n1 = len(z)
    n = n1 - 1
    mu = math.fsum(z) / n1
    delta = [x - mu for x in z]
    hpoly = [1.0] + [0.0] * _SERIES_DEGREE
    for x in delta:
        # ascending order extends h_j to one more variable in place
        for j in range(1, _SERIES_DEGREE + 1):
            hpoly[j] += x * hpoly[j - 1]
    coeff = 1.0
    for i in range(1, n + 1):
        coeff /= i
    total = coeff  # j = 0 term: 1/n!
    for j in range(1, _SERIES_DEGREE + 1):
        coeff /= n + j
        total += hpoly[j] * coeff
    err = (_SERIES_DEGREE + 1) * (n1 + 1) * _EPS
    return total, mu, err

