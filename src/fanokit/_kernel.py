"""Divided differences of exp and their derivatives: the numerical kernel.

The integral of e^{-l(y)} over an n-simplex equals n!*vol * the n-th divided
difference of exp at the negated vertex values of l.  Two evaluation paths:

* ``dd_exp`` - the divided-difference table realized as the corner entry of
  exp(Z) where Z is the upper-bidiagonal node matrix, computed by shift +
  scaling-and-squaring.  Uniformly accurate for any node spread, including
  exactly repeated nodes (the matrix route is the confluent table).
* ``dd_exp_series`` - Taylor expansion of the divided difference around the
  mean node, in complete homogeneous symmetric polynomials.  Fast and
  cancellation-free for tightly clustered nodes.

Moment weights (int w^k e^{-l}) come from ``dd_exp_weighted``: the k-th
derivative of the divided difference along a diagonal deformation of the node
matrix, read off the corner block of the exponential of a block upper
triangular matrix.  All matrices here are tiny (<= 35 x 35).
"""

from __future__ import annotations

import math

_SERIES_CUTOFF = 1e-20
_TAYLOR_CUTOFF = 1e-24
_EPS = 2.220446049250313e-16


def _tri_matmul(a, b, d):
    """Product of two d x d upper-triangular matrices (dense row storage)."""
    out = [[0.0] * d for _ in range(d)]
    for i in range(d):
        ai = a[i]
        oi = out[i]
        for l in range(i, d):
            s = ai[l]
            if s != 0.0:
                bl = b[l]
                for j in range(l, d):
                    oi[j] += s * bl[j]
    return out


def _expm_upper(a, d):
    """exp of an upper-triangular matrix with small norm, by Taylor series."""
    e = [[float(i == j) for j in range(d)] for i in range(d)]
    term = [row[:] for row in a]
    m = 1
    while True:
        mx = 0.0
        for i in range(d):
            ei = e[i]
            ti = term[i]
            for j in range(i, d):
                ei[j] += ti[j]
                t = abs(ti[j])
                if t > mx:
                    mx = t
        if mx < _TAYLOR_CUTOFF or m > 60:
            return e, m
        m += 1
        term = _tri_matmul(term, a, d)
        inv = 1.0 / m
        for i in range(d):
            ti = term[i]
            for j in range(i, d):
                ti[j] *= inv

def dd_exp_weighted(z, b, k):
    """Corner entries [D_0, ..., D_k], D_j = (1/j!) d^j/dt^j DD[exp](z + t*b) at t=0.

    D_0 is the plain divided difference of exp at the nodes z.
    """
    n1 = len(z)
    mu = math.fsum(z) / n1
    delta = [x - mu for x in z]
    spread = max(abs(x) for x in delta)
    bmax = max(abs(x) for x in b) if k else 0.0
    norm_proxy = spread + 1.0 + bmax
    q = max(0, math.ceil(math.log2(norm_proxy / 0.5)))
    h = 0.5**q

    d = n1 * (k + 1)
    a = [[0.0] * d for _ in range(d)]
    for p in range(k + 1):
        off = p * n1
        for i in range(n1):
            a[off + i][off + i] = delta[i] * h
            if i + 1 < n1:
                a[off + i][off + i + 1] = h
            if p + 1 <= k:
                a[off + i][off + n1 + i] = b[i] * h
    e, terms = _expm_upper(a, d)
    for _ in range(q):
        e = _tri_matmul(e, e, d)
    scale = math.exp(mu)
    corner = [e[0][j * n1 + (n1 - 1)] * scale for j in range(k + 1)]
    err = (terms + q * d) * 4.0 * _EPS
    return corner, err


def dd_exp(z):
    """Divided difference of exp at nodes z (ties allowed); returns (value, rel_err)."""
    corner, err = dd_exp_weighted(z, None, 0)
    return corner[0], err


def dd_exp_series(z):
    """Series evaluation of the divided difference around the mean node.

    DD[exp](z) = e^{mean} * sum_j h_j(z - mean) / (n + j)! where h_j is the
    complete homogeneous symmetric polynomial; h_1 vanishes by centering.
    Intended for relative node spreads below the clustering threshold.
    """
    n1 = len(z)
    n = n1 - 1
    mu = math.fsum(z) / n1
    delta = [x - mu for x in z]
    maxj = 60
    hpoly = [1.0] + [0.0] * maxj
    for x in delta:
        # ascending order extends h_j to one more variable in place
        for j in range(1, maxj + 1):
            hpoly[j] += x * hpoly[j - 1]
    coeff = 1.0
    for i in range(1, n + 1):
        coeff /= i
    total = coeff  # j = 0 term: 1/n!
    term_count = 1
    for j in range(1, maxj + 1):
        coeff /= n + j
        term = hpoly[j] * coeff
        total += term
        term_count += 1
        if j >= 2 and abs(term) < _SERIES_CUTOFF * abs(total):
            break
    err = term_count * (n1 + 1) * _EPS + 10.0 * _SERIES_CUTOFF
    return math.exp(mu) * total, err


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
