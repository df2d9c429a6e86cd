"""The weight decomposition of a flag as the package used to compute it.

For each weight alpha it solves for the combinations x of the rows that vanish
off the alpha coordinates (a left nullspace) and multiplies them back into the
rows.  ``filtration._weight_decompose`` now projects the rows instead; these
copies are the reference it is tested against.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from fanokit.errors import InputError
from fanokit.rational import _integer_row, matrix_rank

from command_reference import row_echelon


def matmul(a, b):
    """Exact product of two rational matrices: integer dot products, one
    division per entry."""
    scaled = [_integer_row(row) for row in b]
    common = lcm(*(t for t, _ in scaled))
    columns = list(zip(*([x * (common // t) for x in row] for t, row in scaled)))
    out = []
    for row in a:
        s, ints = _integer_row(row)
        out.append(tuple(Fraction(sum(map(mul, ints, col)), s * common) for col in columns))
    return out


def left_nullspace(rows):
    """Basis of {x : x . rows = 0} over Q, read off the reduced echelon form of
    the transpose (one vector per free column)."""
    k = len(rows)
    pivots, reduced = row_echelon(list(zip(*rows)), reduced=True)
    basis = []
    for fc in sorted(set(range(k)) - set(pivots)):
        x = [Fraction(0)] * k
        x[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            x[pc] = -row[fc]
        basis.append(tuple(x))
    return basis


def weight_decompose(rows, ambient_weights):
    """Split a row space into weight-homogeneous pieces and return them with the
    dimension of the space; raise if it is not decomposable."""
    dim_total = matrix_rank(rows)
    by_weight = {}
    for j, w in enumerate(ambient_weights):
        by_weight.setdefault(w, []).append(j)
    pieces = []
    found = 0
    n = len(ambient_weights)
    for alpha in sorted(by_weight):
        cols = by_weight[alpha]
        comp = [j for j in range(n) if j not in cols]
        # v = x . rows with v|comp = 0 <=> x in the left nullspace of rows[:, comp]
        basis_x = left_nullspace([[r[j] for j in comp] for r in rows])
        part = [vec for vec in matmul(basis_x, rows) if any(vec)]
        if part:
            pieces.append((alpha, part))
            found += matrix_rank(part)
    if found != dim_total:
        raise InputError("flag subspace is not spanned by torus-weight vectors")
    return pieces, dim_total
