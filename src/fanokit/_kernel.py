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
  nodes (the matrix route is the confluent table).  ``dd_exp`` and
  ``dd_exp_weighted`` are its batch-of-one forms.
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
    h = np.ldexp(1.0, -q)[:, None]

    d = n1 * (k + 1)
    a = np.zeros((m, d, d))
    i = np.arange(n1)
    for p in range(k + 1):
        off = p * n1 + i
        a[:, off, off] = delta * h
        a[:, off[:-1], off[1:]] = h
        if p < k:
            a[:, off, off + n1] = b * h
    e = _expm_taylor(a)
    for s in range(int(q.max(initial=0))):
        sel = q > s
        if sel.all():
            e = e @ e
        else:
            part = e[sel]
            e[sel] = part @ part
    err = (_TAYLOR_DEGREE + q * d) * 4.0 * _EPS
    return e[:, 0, :], offset, err


def _expm_taylor(a):
    """exp of a stack of matrices with ||A||_inf <= 1/2 by Horner's rule.

    The degree-20 Taylor polynomial is I + A(I + A(... (I + A/20) ...)/2),
    the same 19 matmuls for every matrix, so no matrix depends on its stack.
    """
    eye = np.eye(a.shape[1])
    e = a / _TAYLOR_DEGREE + eye
    for j in range(_TAYLOR_DEGREE - 1, 0, -1):
        e = a @ e
        e *= 1.0 / j
        e += eye
    return e


def dd_exp_weighted(z, b, k):
    """Corner entries [D_0, ..., D_k], D_j = (1/j!) d^j/dt^j DD[exp](z + t*b) at t=0.

    D_0 is the plain divided difference of exp at the nodes z.
    """
    n1 = len(z)
    rows, offset, err = dd_exp_batch([z], [b] if k else None, k)
    scale = math.exp(offset[0])
    corner = [float(rows[0, j * n1 + n1 - 1]) * scale for j in range(k + 1)]
    return corner, float(err[0])


def dd_exp(z):
    """Divided difference of exp at nodes z (ties allowed); returns (value, rel_err)."""
    corner, err = dd_exp_weighted(z, None, 0)
    return corner[0], err


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


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def compensated_tree_sum(values):
    """Deterministic pairwise reduction in double-double arithmetic.

    The reduction tree depends only on the index order, so equal leaf lists
    always reduce to bit-identical results.
    """
    def reduce(lo, hi):
        if hi - lo == 1:
            return values[lo], 0.0
        mid = (lo + hi) // 2
        h1, l1 = reduce(lo, mid)
        h2, l2 = reduce(mid, hi)
        s, e = _two_sum(h1, h2)
        lo_part = l1 + l2 + e
        hi_out, lo_out = _two_sum(s, lo_part)
        return hi_out, lo_out

    if not values:
        return 0.0
    hi, lo = reduce(0, len(values))
    return hi + lo
