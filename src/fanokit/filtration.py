"""Finite-level filtration calculus on graded vector spaces.

A level stores an adapted basis (rows in ambient coordinates, or ``None`` for
the standard basis) with one rational value per basis vector and optional
torus weights.  Flag-matrix input is converted to this diagonal form by exact
elimination.  Successive minima, rescale/shift, twists, common adapted bases
for two flags, level distances, the Q_m/Psi_m approximants and initial-term
degeneration all operate on this representation, exactly over Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import (
    DimensionMismatch,
    InputError,
    InvalidWeightFiltration,
    MissingLevel,
    MissingTorusWeights,
    NonpositiveScale,
    NotABasis,
)
from .measure import AtomicMeasure, DHMeasure
from .rational import (
    Vector,
    coordinates,
    format_rat,
    independent_rows,
    integer_rows,
    matrix_rank,
    parse_number,
    rat,
    rat_vector,
    row_echelon,
)

_ZERO, _ONE = Fraction(0), Fraction(1)


def _unit(n: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


@dataclass(frozen=True)
class FiltrationLevel:
    """Degree-m piece: adapted basis rows, per-vector values, optional weights.

    ``basis`` is ``None`` for a level that is diagonal in the standard basis:
    the i-th value belongs to the i-th coordinate vector, and no matrix is
    stored or rank-checked.
    """

    degree: int
    basis: tuple[Vector, ...] | None
    values: tuple[Fraction, ...]
    weights: tuple[Vector, ...] | None = None

    def __post_init__(self):
        n = len(self.values)
        if n == 0 or (self.basis is not None and len(self.basis) != n):
            raise InputError("level needs one value per basis vector")
        if self.basis is not None:
            if any(len(row) != n for row in self.basis):
                raise InputError("adapted basis must be square over the level")
            if matrix_rank(self.basis) != n:
                raise NotABasis(f"adapted basis of level {self.degree} is singular")
        if self.weights is not None:
            if len(self.weights) != n:
                raise InputError("need one torus weight per basis vector")
            ranks = {len(w) for w in self.weights}
            if len(ranks) != 1:
                raise InputError("torus weights of mixed rank")

    @classmethod
    def from_values(cls, degree: int, values, weights=None) -> "FiltrationLevel":
        vals = tuple(rat(v) for v in values)
        wts = tuple(rat_vector(w) for w in weights) if weights is not None else None
        return cls(degree, None, vals, wts)

    @classmethod
    def from_flags(cls, degree: int, dim: int, flags, ambient_weights=None) -> "FiltrationLevel":
        """Build the diagonal form from nested flag matrices.

        ``flags`` is a list of (value, rows); row spaces must be nested
        decreasingly in the value and the lowest one must span the level.
        With ``ambient_weights`` each flag must be weight-decomposable and the
        returned basis is weight-homogeneous.
        """
        items = sorted(((rat(v), [rat_vector(r) for r in rows]) for v, rows in flags),
                       key=lambda t: -t[0])
        if any(len(r) != dim for _, rows in items for r in rows):
            raise InputError("flag rows of wrong ambient dimension")
        wts = [rat_vector(w) for w in ambient_weights] if ambient_weights is not None else None
        # every candidate row in flag order; a row is kept when it is
        # independent of the rows before it
        candidates: list[tuple[Vector, Fraction, Vector | None]] = []
        ends = []
        for value, rows in items:
            if wts is None:
                candidates += [(tuple(row), value, None) for row in rows]
                space_rank = matrix_rank(rows)
            else:
                pieces, space_rank = _weight_decompose(rows, wts)
                candidates += [(row, value, alpha) for alpha, part in pieces for row in part]
            ends.append((len(candidates), space_rank, value))
        kept = independent_rows([row for row, _, _ in candidates])
        for end, space_rank, value in ends:
            if sum(1 for k in kept if k < end) != space_rank:
                raise InputError(
                    f"flag at value {value} of level {degree} is not nested/decomposable"
                )
        if len(kept) != dim:
            raise InputError(f"flags of level {degree} do not span the level")
        chosen = [candidates[k] for k in kept]
        basis = tuple(r for r, _, _ in chosen)
        values = tuple(v for _, v, _ in chosen)
        weights = tuple(w for _, _, w in chosen) if wts is not None else None
        return cls(degree, basis, values, weights)

    @property
    def dim(self) -> int:
        return len(self.values)

    def value_of(self, vector) -> Fraction:
        """max{lambda : vector in F^lambda} = min basis value with nonzero coefficient."""
        return self.values_of([vector])[0]

    def values_of(self, vectors) -> list[Fraction]:
        """``value_of`` for each vector, from one elimination."""
        rows = [rat_vector(v) for v in vectors]
        if any(len(r) != self.dim for r in rows):
            raise DimensionMismatch(f"vectors of level {self.degree} need {self.dim} coordinates")
        coords = rows if self.basis is None else coordinates(self.basis, rows)[1]
        out = []
        for c in coords:
            present = [v for v, x in zip(self.values, c) if x != 0]
            if not present:
                raise InputError("cannot evaluate the zero vector")
            out.append(min(present))
        return out

    def subspace_rows(self, value) -> list[Vector]:
        value = rat(value)
        keep = [i for i, v in enumerate(self.values) if v >= value]
        if self.basis is None:
            return [_unit(self.dim, i) for i in keep]
        return [self.basis[i] for i in keep]


def _weight_decompose(rows, ambient_weights):
    """Split a row space into weight-homogeneous pieces and return them with the
    dimension of the space; raise if it is not decomposable.

    The piece of weight alpha is spanned by the coordinate projections
    pi_alpha of the rows.  Every space V lies in the direct sum of its
    projections pi_alpha(V), with equality exactly when V is spanned by weight
    vectors, and then pi_alpha(V) = V meet E_alpha.  So V decomposes iff the
    ranks of its projections add up to dim V.
    """
    by_weight: dict[Vector, list[int]] = {}
    for j, w in enumerate(ambient_weights):
        by_weight.setdefault(w, []).append(j)
    pieces = []
    found = 0
    for alpha in sorted(by_weight):
        cols = by_weight[alpha]
        part = []
        for row in rows:
            if any(row[j] for j in cols):
                vec = [_ZERO] * len(row)
                for j in cols:
                    vec[j] = row[j]
                part.append(tuple(vec))
        if part:
            pieces.append((alpha, part))
            found += matrix_rank(part)
    dim_total = matrix_rank(rows)
    if found != dim_total:
        raise InputError("flag subspace is not spanned by torus-weight vectors")
    return pieces, dim_total


@dataclass(frozen=True)
class GradedFiltration:
    levels: dict
    label: str = ""

    def level(self, m: int) -> FiltrationLevel:
        if m not in self.levels:
            raise MissingLevel(f"degree {m} not stored (have {sorted(self.levels)})")
        return self.levels[m]

    def degrees(self) -> list[int]:
        return sorted(self.levels)

    def map_levels(self, fn, label=None) -> "GradedFiltration":
        return GradedFiltration({m: fn(lv) for m, lv in self.levels.items()},
                                label if label is not None else self.label)

    def to_json(self) -> dict:
        doc = {"label": self.label, "levels": {}}
        for m in self.degrees():
            lv = self.levels[m]
            entry = {
                "dim": lv.dim,
                "values": [format_rat(v) for v in lv.values],
            }
            identity = lv.basis is None or all(
                lv.basis[i][j] == (1 if i == j else 0)
                for i in range(lv.dim) for j in range(lv.dim)
            )
            if not identity:
                entry["basis"] = [[format_rat(x) for x in row] for row in lv.basis]
            if lv.weights is not None:
                entry["weights"] = [[format_rat(x) for x in w] for w in lv.weights]
            doc["levels"][str(m)] = entry
        return doc


def _list_field(value, name: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


def _rows_field(value, name: str) -> list:
    """A JSON list of JSON lists."""
    for row in _list_field(value, name):
        _list_field(row, f"each row of the {name}")
    return value


def filtration_from_json(doc: dict) -> GradedFiltration:
    levels_doc = doc.get("levels") if isinstance(doc, dict) else None
    if not isinstance(levels_doc, dict):
        raise InputError("filtration document needs a 'levels' map")
    levels = {}
    for key, entry in levels_doc.items():
        m = parse_number(key, "level degree", minimum=1)
        if not isinstance(entry, dict) or "dim" not in entry:
            raise InputError(f"level {m} needs an object with a 'dim' field")
        dim = parse_number(entry["dim"], f"dim of level {m}")
        weights = entry.get("weights")
        if weights is not None:
            _rows_field(weights, f"weights of level {m}")
        if "values" in entry:
            values = _list_field(entry["values"], f"values of level {m}")
            if len(values) != dim:
                raise InputError(f"level {m}: {len(values)} values for dim {dim}")
            if "basis" in entry:
                basis = tuple(rat_vector(r)
                              for r in _rows_field(entry["basis"], f"basis of level {m}"))
                wts = tuple(rat_vector(w) for w in weights) if weights else None
                levels[m] = FiltrationLevel(m, basis, tuple(rat(v) for v in values), wts)
            else:
                levels[m] = FiltrationLevel.from_values(m, values, weights)
        elif "flags" in entry:
            flags = _list_field(entry["flags"], f"flags of level {m}")
            if not all(isinstance(f, dict) and "value" in f and "rows" in f for f in flags):
                raise InputError(f"each flag of level {m} needs a 'value' and 'rows'")
            flags = [(f["value"], _rows_field(f["rows"], f"flag rows of level {m}"))
                     for f in flags]
            levels[m] = FiltrationLevel.from_flags(m, dim, flags, ambient_weights=weights)
        else:
            raise InputError(f"level {m} needs 'values' or 'flags'")
    return GradedFiltration(levels, str(doc.get("label", "")))


# ---------------------------------------------------------------------------
# per-level operations


def successive_minima(lv: FiltrationLevel) -> list[Fraction]:
    """Jump values with multiplicity, in decreasing order."""
    return sorted(lv.values, reverse=True)


def rescale_shift(F: GradedFiltration, a, b) -> GradedFiltration:
    """Values transform mu -> a*mu + b*m per degree m."""
    a, b = rat(a), rat(b)
    if a <= 0:
        raise NonpositiveScale(f"rescaling factor must be positive, got {a}")

    def fn(lv):
        return FiltrationLevel(
            lv.degree, lv.basis,
            tuple(a * v + b * lv.degree for v in lv.values), lv.weights,
        )

    return F.map_levels(fn)


def twist(F: GradedFiltration, xi) -> GradedFiltration:
    """Value of a weight-alpha vector becomes mu + <alpha, xi>."""
    xi = rat_vector(xi)

    def fn(lv):
        if lv.weights is None:
            raise MissingTorusWeights(f"level {lv.degree} has no torus weights")
        if any(len(w) != len(xi) for w in lv.weights):
            raise DimensionMismatch("twist vector rank does not match torus weights")
        vals = tuple(v + sum(a * x for a, x in zip(w, xi))
                     for v, w in zip(lv.values, lv.weights))
        return FiltrationLevel(lv.degree, lv.basis, vals, lv.weights)

    return F.map_levels(fn)


def empirical_dh(F: GradedFiltration, m: int, ambient_dim: int) -> DHMeasure:
    """Atoms at lambda_i/m with mass n!/m^n; carries weights alpha/m when present.

    The atoms come straight from the level's exact values, in the stable
    order of those values.
    """
    if m < 1 or ambient_dim < 0:
        raise InputError(f"need degree >= 1 and ambient dim >= 0, got {m} and {ambient_dim}")
    lv = F.level(m)
    mass = Fraction(factorial(ambient_dim), m**ambient_dim)
    order = sorted(range(lv.dim), key=lv.values.__getitem__)
    if lv.weights is None:
        atoms = tuple((lv.values[i] / m, mass, None) for i in order)
    else:
        atoms = tuple((lv.values[i] / m, mass, tuple(a / m for a in lv.weights[i]))
                      for i in order)
    return AtomicMeasure(atoms)


@dataclass(frozen=True)
class CommonBasis:
    """Integer rows adapted to both levels, with the value pair of each row."""

    rows: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[Fraction, Fraction], ...]


def common_adapted_basis(lv0: FiltrationLevel, lv1: FiltrationLevel) -> CommonBasis:
    """A basis adapted to both levels, with value pairs (mu_0, mu_1) per vector.

    Coordinates are taken in an adapted basis of lv0 sorted by decreasing
    value; rows adapted to lv1 are then echelonized from the right, which can
    only raise their lv0-value.  Pivot columns end up a permutation, so both
    successive-minima multisets are reproduced exactly.  All of lv1's
    coordinates come from one fraction-free elimination and the reduction
    runs in integers: only zero patterns decide pivots, so each row is kept
    up to a nonzero scalar.
    """
    if lv0.dim != lv1.dim:
        raise DimensionMismatch(f"levels of dim {lv0.dim} and {lv1.dim}")
    n = lv0.dim
    order0 = sorted(range(n), key=lambda i: (-lv0.values[i], i))
    mu0_sorted = [lv0.values[i] for i in order0]
    order1 = sorted(range(n), key=lambda i: (-lv1.values[i], i))
    if lv1.basis is None:
        f_rows = [[int(j == i) for j in range(n)] for i in order1]
    else:
        f_rows = integer_rows(lv1.basis[i] for i in order1)
    if lv0.basis is None:
        e_rows = None
        coords = [[f[i] for i in order0] for f in f_rows]
    else:
        e_rows = integer_rows(lv0.basis[i] for i in order0)
        solved = coordinates(e_rows, f_rows)
        if solved is None:
            raise NotABasis("first level basis is singular")
        coords = solved[1]

    pivots: dict[int, list[int]] = {}
    rows, pairs = [], []
    for idx, c in zip(order1, coords):
        while True:
            piv = next((j for j in range(n - 1, -1, -1) if c[j]), None)
            if piv is None:
                raise NotABasis("second level basis is singular")
            other = pivots.get(piv)
            if other is None:
                break
            a, b = other[piv], c[piv]
            c = [a * x - b * y for x, y in zip(c, other)]
            g = gcd(*c)
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
        pairs.append((mu0_sorted[piv], lv1.values[idx]))
    return CommonBasis(tuple(rows), tuple(pairs))


def relative_minima(F0: GradedFiltration, F1: GradedFiltration, m: int) -> list[Fraction]:
    """Multiset {mu_{k,1} - mu_{k,0}} over a common adapted basis, descending."""
    cb = common_adapted_basis(F0.level(m), F1.level(m))
    return sorted((m1 - m0 for m0, m1 in cb.pairs), reverse=True)


def d_p_level(F0: GradedFiltration, F1: GradedFiltration, m: int, p=2) -> float:
    """((1/N_m) sum |delta mu / m|^p)^(1/p) at the fixed degree m."""
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    diffs = relative_minima(F0, F1, m)
    n = len(diffs)
    if p == int(p):
        total = sum((abs(d) / m) ** int(p) for d in diffs) / n
        return float(total) ** (1.0 / p)
    total = sum(abs(float(d) / m) ** p for d in diffs) / n
    return total ** (1.0 / p)


def q_m(F: GradedFiltration, m: int) -> float:
    """(1/N_m) sum_i e^{-lambda_i/m}."""
    lv = F.level(m)
    import math

    return math.fsum(math.exp(-float(v) / m) for v in lv.values) / lv.dim


def psi_m(F: GradedFiltration, m: int) -> float:
    return 1.0 - q_m(F, m)


def q_of_basis(F: GradedFiltration, m: int, basis_rows) -> float:
    """(1/N_m) sum_j e^{-v_F(s_j)/m} for an arbitrary basis; >= q_m always."""
    lv = F.level(m)
    rows = [rat_vector(r) for r in basis_rows]
    if (len(rows) != lv.dim or any(len(r) != lv.dim for r in rows)
            or matrix_rank(rows) != lv.dim):
        raise NotABasis("supplied vectors do not form a basis of the level")
    import math

    return math.fsum(math.exp(-float(v) / m) for v in lv.values_of(rows)) / lv.dim


# ---------------------------------------------------------------------------
# monomial models and initial-term degeneration


@dataclass(frozen=True)
class MonomialModel:
    """Degree-m monomials in num_vars variables, enumerated in graded lex order."""

    num_vars: int

    def monomials(self, m: int) -> list[tuple[int, ...]]:
        def gen(remaining, slots):
            if slots == 1:
                yield (remaining,)
                return
            for head in range(remaining, -1, -1):
                for tail in gen(remaining - head, slots - 1):
                    yield (head,) + tail

        return list(gen(m, self.num_vars))

    def dim(self, m: int) -> int:
        v = self.num_vars
        num = 1
        for i in range(1, v):
            num = num * (m + i)
        return num // factorial(v - 1)

    def monomial_weights(self, w, m: int) -> list[Fraction]:
        w = rat_vector(w)
        if len(w) != self.num_vars:
            raise InvalidWeightFiltration(
                f"weight vector of length {len(w)} for {self.num_vars} variables"
            )
        return [sum((wi * e for wi, e in zip(w, expo)), Fraction(0))
                for expo in self.monomials(m)]


def weight_filtration(model: MonomialModel, w, m: int) -> GradedFiltration:
    """The filtration of minimal monomial w-weight on the degree-m monomial basis."""
    cw = model.monomial_weights(w, m)
    level = FiltrationLevel.from_values(m, cw, weights=[(c,) for c in cw])
    return GradedFiltration({m: level}, label="weight-filtration")


def initial_term_degeneration(model: MonomialModel, w, F1: GradedFiltration, m: int) -> GradedFiltration:
    """Induced filtration on the associated graded of the w-weight filtration.

    For each jump value of F1 the degenerate subspace is spanned by the
    minimal-weight components of a left-to-right echelon basis (columns
    sorted by increasing monomial weight).  Dimensions per jump are
    preserved, so the successive-minima multiset is unchanged; the relative
    minima against the weight filtration become plain minima after twisting
    by the negated grading.
    """
    lv = F1.level(m)
    cw = model.monomial_weights(w, m)
    if lv.dim != len(cw):
        raise InvalidWeightFiltration(
            f"level dim {lv.dim} does not match the monomial basis ({len(cw)})"
        )
    col_order = sorted(range(len(cw)), key=lambda j: (cw[j], j))
    jumps = sorted(set(lv.values), reverse=True)
    flags = []
    for lam in jumps:
        rows = [list(r) for r in lv.subspace_rows(lam)]
        reordered = [[row[j] for j in col_order] for row in rows]
        reduced = row_echelon(reordered, reduced=False)[1]
        initial_rows = []
        for row in reduced:
            piv = next(j for j, x in enumerate(row) if x != 0)
            block = cw[col_order[piv]]
            vec = [Fraction(0)] * len(cw)
            for j, x in enumerate(row):
                if x != 0 and cw[col_order[j]] == block:
                    vec[col_order[j]] = x
            initial_rows.append(tuple(vec))
        flags.append((lam, initial_rows))
    level = FiltrationLevel.from_flags(m, lv.dim, flags,
                                       ambient_weights=[(c,) for c in cw])
    return GradedFiltration({m: level}, label=f"in_w({F1.label or 'F'})")


def multiplicativity_warnings(F: GradedFiltration) -> list[str]:
    """Superadditivity check of the top minima on stored degrees.

    A multiplicative filtration has lambda_max(m1+m2) >= lambda_max(m1) +
    lambda_max(m2); finite-level data cannot certify multiplicativity, but a
    violation disproves it.
    """
    degs = F.degrees()
    tops = {m: max(F.level(m).values) for m in degs}
    out = []
    for m1, m2 in itertools.combinations_with_replacement(degs, 2):
        if m1 + m2 in tops and tops[m1 + m2] < tops[m1] + tops[m2]:
            out.append(
                f"lambda_max({m1 + m2}) = {tops[m1 + m2]} < "
                f"lambda_max({m1}) + lambda_max({m2}) = {tops[m1] + tops[m2]}"
            )
    return out
