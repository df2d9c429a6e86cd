"""The filtration and atomic-measure queries as the package computed them in ``Fraction``.

Each level was a tuple of ``Fraction`` values (and basis rows and weights),
and each atomic measure a tuple of ``Fraction`` atoms; every query built,
divided, sorted and summed one ``Fraction`` per atom.  ``filtration`` and
``measure`` now keep integer tables over common denominators; these copies
are the references they are tested against, with ``==``.
"""

import itertools
import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, groupby
from operator import add

from fanokit.functionals import EkFit
from fanokit.rational import coordinates, format_rat, integer_rows, solve_square


def empirical_atoms(values, weights, m, ambient_dim):
    """Atoms at lambda_i/m with mass n!/m^n, in the stable order of the values."""
    mass = Fraction(math.factorial(ambient_dim), m**ambient_dim)
    order = sorted(range(len(values)), key=values.__getitem__)
    if weights is None:
        return tuple((values[i] / m, mass, None) for i in order)
    return tuple((values[i] / m, mass, tuple(a / m for a in weights[i])) for i in order)


def to_json(atoms):
    out = []
    for pos, m, w in atoms:
        entry = {"pos": format_rat(pos), "mass": format_rat(m)}
        if w is not None:
            entry["weight"] = [format_rat(x) for x in w]
        out.append(entry)
    return {"atoms": out}


def _merged(atoms):
    runs = groupby(atoms, key=lambda atom: atom[0])
    return tuple((pos, reduce(add, (m for _, m, _ in run))) for pos, run in runs)


def _total(atoms):
    return sum((m for _, m, _ in atoms), Fraction(0))


def cdf(atoms):
    merged = _merged(atoms)
    scale = math.lcm(*(m.denominator for _, m in merged))
    cumulative = list(accumulate(m.numerator * (scale // m.denominator) for _, m in merged))
    return ([float(x) for x, _ in merged], [(c / cumulative[-1],) for c in cumulative])


def moment(atoms, k):
    return float(sum((m * pos**k for pos, m, _ in atoms), Fraction(0)) / _total(atoms))


def _tilt(atoms, a):
    merged, total = _merged(atoms), _total(atoms)
    af = float(a)
    top = max(-af * float(x) for x, _ in merged)
    return top, [float(m / total) * math.exp(-af * float(x) - top) for x, m in merged]


def log_exp_moments(atoms, a_list):
    return [top + math.log(math.fsum(terms)) for top, terms in (_tilt(atoms, a) for a in a_list)]


def successive_minima(values):
    return sorted(values, reverse=True)


def q_m(values, m):
    return math.fsum(math.exp(-float(v) / m) for v in values) / len(values)


def multiplicativity_warnings(values_by_degree):
    degs = sorted(values_by_degree)
    tops = {m: max(values_by_degree[m]) for m in degs}
    out = []
    for m1, m2 in itertools.combinations_with_replacement(degs, 2):
        if m1 + m2 in tops and tops[m1 + m2] < tops[m1] + tops[m2]:
            out.append(
                f"lambda_max({m1 + m2}) = {tops[m1 + m2]} < "
                f"lambda_max({m1}) + lambda_max({m2}) = {tops[m1] + tops[m2]}"
            )
    return out


def ek_from_minima_polynomial(values_by_degree, degrees, k, ambient_dim, volume):
    degrees = sorted(set(int(m) for m in degrees))
    deg = ambient_dim + k
    ys = [sum((v**k for v in successive_minima(values_by_degree[m])), Fraction(0))
          for m in degrees]
    cols = deg + 1
    ata = [[Fraction(0)] * cols for _ in range(cols)]
    aty = [Fraction(0)] * cols
    for m, y in zip(degrees, ys):
        powers = [Fraction(m) ** j for j in range(cols)]
        for i in range(cols):
            aty[i] += powers[i] * y
            for j in range(cols):
                ata[i][j] += powers[i] * powers[j]
    coeffs = solve_square(ata, aty)
    top = coeffs[deg]
    return EkFit(estimate=float(Fraction(math.factorial(ambient_dim)) * top / volume),
                 leading_coefficient=top, coefficients=tuple(coeffs), degree=deg)


def common_adapted_basis(values0, basis0, values1, basis1):
    """(rows, pairs) of a basis adapted to both levels (bases None for the identity)."""
    n = len(values0)
    order0 = sorted(range(n), key=lambda i: (-values0[i], i))
    mu0_sorted = [values0[i] for i in order0]
    order1 = sorted(range(n), key=lambda i: (-values1[i], i))
    if basis1 is None:
        f_rows = [[int(j == i) for j in range(n)] for i in order1]
    else:
        f_rows = integer_rows(basis1[i] for i in order1)
    if basis0 is None:
        e_rows = None
        coords = [[f[i] for i in order0] for f in f_rows]
    else:
        e_rows = integer_rows(basis0[i] for i in order0)
        coords = coordinates(e_rows, f_rows)[1]
    pivots = {}
    rows, pairs = [], []
    for idx, c in zip(order1, coords):
        while True:
            piv = next(j for j in range(n - 1, -1, -1) if c[j])
            other = pivots.get(piv)
            if other is None:
                break
            a, b = other[piv], c[piv]
            c = [a * x - b * y for x, y in zip(c, other)]
            g = math.gcd(*c)
            if g > 1:
                c = [x // g for x in c]
        pivots[piv] = c
        ambient = [0] * n
        if e_rows is None:
            for i, x in zip(order0, c):
                ambient[i] = x
        else:
            for x, e in zip(c, e_rows):
                if x:
                    ambient = [s + x * y for s, y in zip(ambient, e)]
        rows.append(tuple(ambient))
        pairs.append((mu0_sorted[piv], values1[idx]))
    return tuple(rows), tuple(pairs)
