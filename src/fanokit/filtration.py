"""Finite-level filtration calculus on graded vector spaces.

A level stores an adapted basis (rows in ambient coordinates, or ``None`` for
the standard basis) with one rational value per basis vector and optional
torus weights.  Flag-matrix input is converted to this diagonal form by exact
elimination.  Successive minima, rescale/shift, twists, common adapted bases
for two flags, level distances, the Q_m/Psi_m approximants and initial-term
degeneration all operate on this representation, exactly over Q.

Each level is parsed once into an integer table: value and weight
numerators over common denominators, and basis rows scaled to integers, the
rows every elimination reads.  The queries read the table (``empirical_dh``
sorts integers into an ``AtomicMeasure`` table); ``Fraction``s are built only
for a level's public view and for exact results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, fsum, gcd

from .errors import (
    DimensionMismatch,
    InputError,
    InvalidWeightFiltration,
    MissingLevel,
    MissingTorusWeights,
    NonFiniteResult,
    NonpositiveScale,
    NotABasis,
)
from .measure import AtomicMeasure, DHMeasure
from .rational import (
    Vector,
    _bareiss,
    _format_over,
    _format_row,
    _fractions,
    _integer_row,
    _over,
    _reduced,
    _weight_table,
    coordinates,
    exact_rows,
    exact_vector,
    independent_rows,
    matrix_rank,
    need,
    parse_number,
    rat,
    rat_rows,
    rat_vector,
)


@dataclass(frozen=True, init=False)
class FiltrationLevel:
    """Degree-m piece: adapted basis rows, per-vector values, optional weights.

    Stores integer tables, built from rationals by the constructor and from
    tables by ``_from_tables``: values ``_nums / _den``, weights ``_wnums /
    _wden`` and each basis row as (d, the row times d); ``values``, ``basis``
    and ``weights`` are the ``Fraction`` view.  ``basis`` is ``None`` for a
    level diagonal in the standard basis, an explicit identity basis included.
    """

    degree: int
    _den: int
    _nums: tuple[int, ...]
    _rows: tuple[tuple[int, tuple[int, ...]], ...] | None
    _wden: int
    _wnums: tuple[tuple[int, ...], ...] | None

    def __init__(self, degree: int, basis, values, weights=None):
        n = len(values)
        if n == 0 or (basis is not None and len(basis) != n):
            raise InputError("level needs one value per basis vector")
        rows = None
        if basis is not None:
            if any(len(row) != n for row in basis):
                raise InputError("adapted basis must be square over the level")
            rows = [_integer_row(row) for row in basis]
            if matrix_rank([r for _, r in rows]) != n:
                raise NotABasis(f"adapted basis of level {degree} is singular")
        wden, wnums = 1, None
        if weights is not None:
            if len(weights) != n:
                raise InputError("need one torus weight per basis vector")
            wden, wnums = _over(weights)
        vars(self).update(vars(FiltrationLevel._from_tables(
            degree, *_integer_row(values), rows, wden, wnums)))

    @classmethod
    def _from_tables(cls, degree, den, nums, rows, wden, wnums) -> "FiltrationLevel":
        """The level with the values ``nums / den``, the basis rows r / s of the pairs
        (s, r) in ``rows`` and the weights ``wnums / wden``, integers over nonzero
        denominators (``rows`` and ``wnums`` may be None); ``rows`` must be a basis."""
        den, (nums,) = _reduced(den, [nums])
        wden, wnums = (1, None) if wnums is None else _weight_table(wden, wnums)
        lv = object.__new__(cls)
        vars(lv).update(degree=degree, _den=den, _nums=nums, _wden=wden, _wnums=wnums,
                        _rows=None if rows is None else _basis_table(rows))
        return lv

    @property
    def values(self) -> tuple[Fraction, ...]:
        return _fractions(self._nums, self._den)

    @property
    def basis(self) -> tuple[Vector, ...] | None:
        return None if self._rows is None else tuple(_fractions(r, d) for d, r in self._rows)

    @property
    def weights(self) -> tuple[Vector, ...] | None:
        return None if self._wnums is None else tuple(_fractions(w, self._wden) for w in self._wnums)

    @classmethod
    def from_values(cls, degree: int, values, weights=None) -> "FiltrationLevel":
        wts = exact_rows(weights, "weights") if weights is not None else None
        return cls(degree, None, exact_vector(values, "values"), wts)

    @classmethod
    def from_flags(cls, degree: int, dim: int, flags, ambient_weights=None) -> "FiltrationLevel":
        """Build the diagonal form from nested flag matrices.

        ``flags`` is a list of (value, rows); row spaces must be nested
        decreasingly in the value and the lowest one must span the level.
        With ``ambient_weights`` each flag must be weight-decomposable and the
        returned basis is weight-homogeneous.
        """
        flags = [(rat(v), [_integer_row(exact_vector(r, "vector")) for r in rows])
                 for v, rows in flags]
        if any(len(r) != dim for _, rows in flags for _, r in rows):
            raise InputError("flag rows of wrong ambient dimension")
        den, nums = _integer_row([v for v, _ in flags])
        items = sorted(zip(nums, (rows for _, rows in flags)), key=lambda t: -t[0])
        wden, wts = 1, None
        if ambient_weights is not None:
            wts = [exact_vector(w, "vector") for w in ambient_weights]
            if len(wts) != dim:
                raise InputError(f"level {degree} needs one torus weight per coordinate, "
                                 f"got {len(wts)} for dim {dim}")
            wden, wts = _over(wts)
        return cls._from_flag_rows(degree, dim, den, items, wts, wden)

    @classmethod
    def _from_flag_rows(cls, degree, dim, den, flags, weights, wden) -> "FiltrationLevel":
        """``from_flags`` on integer tables.

        ``flags`` lists (value numerator over ``den``, rows) by decreasing
        value, each row a pair (s, r) standing for the rational row r / s;
        ``weights`` are the ambient weights as integer tuples over ``wden``,
        or None.  The kept rows are a basis, so the level takes them as tables.
        """
        # every candidate row in flag order; a row is kept when it is
        # independent of the rows before it
        candidates: list[tuple[int, list[int], int, tuple | None]] = []
        ends = []
        for value, rows in flags:
            if weights is None:
                candidates += [(s, r, value, None) for s, r in rows]
                space_rank = matrix_rank([r for _, r in rows])
            else:
                pieces, space_rank = _weight_decompose([r for _, r in rows], weights)
                candidates += [(rows[i][0], row, value, alpha)
                               for alpha, part in pieces for i, row in part]
            ends.append((len(candidates), space_rank, value))
        kept = independent_rows([r for _, r, _, _ in candidates])
        for end, space_rank, value in ends:
            if sum(1 for k in kept if k < end) != space_rank:
                raise InputError(f"flag at value {_format_over(value, den)} of level {degree} "
                                 "is not nested/decomposable")
        if len(kept) != dim:
            raise InputError(f"flags of level {degree} do not span the level")
        if not kept:
            raise InputError("level needs one value per basis vector")
        scales, basis, values, alphas = zip(*(candidates[k] for k in kept))
        return cls._from_tables(degree, den, values, zip(scales, basis), wden,
                                None if weights is None else alphas)

    @property
    def dim(self) -> int:
        return len(self._nums)

    def value_of(self, vector) -> Fraction:
        """max{lambda : vector in F^lambda} = min basis value with nonzero coefficient."""
        return self.values_of([vector])[0]

    def values_of(self, vectors) -> list[Fraction]:
        """``value_of`` for each vector, from one elimination."""
        rows = [rat_vector(v) for v in vectors]
        if any(len(r) != self.dim for r in rows):
            raise DimensionMismatch(f"vectors of level {self.degree} need {self.dim} coordinates")
        coords = rows if self._rows is None else coordinates([r for _, r in self._rows], rows)[1]
        out = []
        for c in coords:
            present = [v for v, x in zip(self._nums, c) if x != 0]
            if not present:
                raise InputError("cannot evaluate the zero vector")
            out.append(Fraction(min(present), self._den))
        return out

    def subspace_rows(self, value) -> list[tuple[int, ...]]:
        """Integer rows spanning F^value: the basis rows of value at least ``value``,
        each scaled to integers as stored."""
        value = rat(value)
        keep = [i for i, v in enumerate(self._nums)
                if v * value.denominator >= value.numerator * self._den]
        if self._rows is None:
            return [tuple(int(j == i) for j in range(self.dim)) for i in keep]
        return [self._rows[i][1] for i in keep]


def _basis_table(pairs):
    """The stored basis: each pair (s, integer row r) as ``_reduced(s, [r])``, or None
    for the standard basis."""
    rows = tuple((d, r) for d, (r,) in (_reduced(s, [r]) for s, r in pairs))
    if all(d == 1 and r[i] == 1 and sum(map(abs, r)) == 1 for i, (d, r) in enumerate(rows)):
        return None
    return rows


def _weight_decompose(rows, ambient_weights):
    """Split the row space of the integer ``rows``, one ambient weight per column,
    into weight-homogeneous pieces and return them with the dimension of the
    space; raise if it is not decomposable.

    A piece is (alpha, [(i, pi_alpha(rows[i])), ...]) over the rows with a
    nonzero alpha part.  The piece of weight alpha is spanned by the
    coordinate projections pi_alpha of the rows.  Every space V lies in the
    direct sum of its projections pi_alpha(V), with equality exactly when V
    is spanned by weight vectors, and then pi_alpha(V) = V meet E_alpha.  So
    V decomposes iff the ranks of its projections add up to dim V, which
    holds without a check when every row is itself a weight vector.
    """
    by_weight: dict[tuple, list[int]] = {}
    for j, w in enumerate(ambient_weights):
        by_weight.setdefault(w, []).append(j)
    pieces = []
    found = 0
    pieces_of_row = [0] * len(rows)
    for alpha in sorted(by_weight):
        cols = by_weight[alpha]
        part = []
        for i, row in enumerate(rows):
            if any(row[j] for j in cols):
                vec = [0] * len(row)
                for j in cols:
                    vec[j] = row[j]
                part.append((i, tuple(vec)))
                pieces_of_row[i] += 1
        if part:
            pieces.append((alpha, part))
            found += matrix_rank([vec for _, vec in part])
    if any(k != 1 for k in pieces_of_row) and found != matrix_rank(rows):
        raise InputError("flag subspace is not spanned by torus-weight vectors")
    return pieces, found


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
            entry = {"dim": lv.dim, "values": _format_row(lv._nums, lv._den)}
            if lv._rows is not None:
                entry["basis"] = [_format_row(row, d) for d, row in lv._rows]
            if lv._wnums is not None:
                entry["weights"] = [_format_row(w, lv._wden) for w in lv._wnums]
            doc["levels"][str(m)] = entry
        return doc


def filtration_from_json(doc: dict) -> GradedFiltration:
    levels_doc = need(doc, "filtration document", "levels")
    need(levels_doc, "the 'levels' map")
    if not levels_doc:
        raise InputError("the 'levels' map needs at least one level")
    levels = {}
    for key, entry in levels_doc.items():
        m = parse_number(key, "level degree", minimum=1)
        dim = parse_number(need(entry, f"level {m}", "dim"), f"dim of level {m}")
        weights = entry.get("weights")
        if weights is not None:
            weights = exact_rows(weights, f"weights of level {m}")
        if "values" in entry:
            values = exact_vector(entry["values"], f"values of level {m}", dim)
            basis = entry.get("basis")
            if basis is not None:
                basis = exact_rows(basis, f"basis of level {m}", dim)
            levels[m] = FiltrationLevel(m, basis, values, weights)
        elif "flags" in entry:
            flags = [need(f, f"each flag of level {m}", "value", "rows")
                     for f in need(entry, f"level {m}", "flags", kind=list)]
            flags = [(v, rat_rows(rows, f"flag rows of level {m}", dim)) for v, rows in flags]
            levels[m] = FiltrationLevel.from_flags(m, dim, flags, ambient_weights=weights)
        else:
            raise InputError(f"level {m} needs 'values' or 'flags'")
    return GradedFiltration(levels, str(doc.get("label", "")))


# ---------------------------------------------------------------------------
# per-level operations


def successive_minima(lv: FiltrationLevel) -> list[Fraction]:
    """Jump values with multiplicity, in decreasing order."""
    return list(_fractions(sorted(lv._nums, reverse=True), lv._den))


def rescale_shift(F: GradedFiltration, a, b) -> GradedFiltration:
    """Values transform mu -> a*mu + b*m per degree m."""
    a, b = rat(a), rat(b)
    if a <= 0:
        raise NonpositiveScale(f"rescaling factor must be positive, got {a}")
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator

    def fn(lv):
        # a v / den + b m = (an bd v + bn m ad den) / (ad bd den)
        shift = bn * lv.degree * ad * lv._den
        return FiltrationLevel._from_tables(lv.degree, ad * bd * lv._den,
                                            [an * bd * v + shift for v in lv._nums],
                                            lv._rows, lv._wden, lv._wnums)

    return F.map_levels(fn)


def twist(F: GradedFiltration, xi) -> GradedFiltration:
    """Value of a weight-alpha vector becomes mu + <alpha, xi>."""
    xden, xnums = _integer_row(rat_vector(xi))

    def fn(lv):
        if lv._wnums is None:
            raise MissingTorusWeights(f"level {lv.degree} has no torus weights")
        if any(len(w) != len(xnums) for w in lv._wnums):
            raise DimensionMismatch("twist vector rank does not match torus weights")
        # v / den + <w, x> / (wden xden), over den wden xden
        scale = lv._wden * xden
        return FiltrationLevel._from_tables(lv.degree, lv._den * scale, [
            v * scale + lv._den * sum(a * x for a, x in zip(w, xnums))
            for v, w in zip(lv._nums, lv._wnums)], lv._rows, lv._wden, lv._wnums)

    return F.map_levels(fn)


def empirical_dh(F: GradedFiltration, m: int, ambient_dim: int) -> DHMeasure:
    """Atoms at lambda_i/m with mass n!/m^n; carries weights alpha/m when present.

    The atoms are the level's table read over the denominators times m, in
    the stable order of the value numerators.
    """
    if m < 1 or ambient_dim < 0:
        raise InputError(f"need degree >= 1 and ambient dim >= 0, got {m} and {ambient_dim}")
    lv = F.level(m)
    nums = lv._nums
    order = sorted(range(lv.dim), key=nums.__getitem__)
    weights = (None,) * lv.dim if lv._wnums is None else tuple(lv._wnums[i] for i in order)
    return AtomicMeasure(lv._den * m, tuple(nums[i] for i in order),
                         m**ambient_dim, (factorial(ambient_dim),) * lv.dim, lv._wden * m, weights)


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
    # a stable sort by decreasing value: ties keep their index order
    order0 = sorted(range(n), key=lv0._nums.__getitem__, reverse=True)
    order1 = sorted(range(n), key=lv1._nums.__getitem__, reverse=True)
    if lv1._rows is None:
        f_rows = [[int(j == i) for j in range(n)] for i in order1]
    else:
        f_rows = [lv1._rows[i][1] for i in order1]
    if lv0._rows is None:
        e_rows = None
        coords = [[f[i] for i in order0] for f in f_rows]
    else:
        e_rows = [lv0._rows[i][1] for i in order0]
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
        pairs.append((Fraction(lv0._nums[order0[piv]], lv0._den),
                      Fraction(lv1._nums[idx], lv1._den)))
    return CommonBasis(tuple(rows), tuple(pairs))


def relative_minima(F0: GradedFiltration, F1: GradedFiltration, m: int) -> list[Fraction]:
    """Multiset {mu_{k,1} - mu_{k,0}} over a common adapted basis, descending."""
    cb = common_adapted_basis(F0.level(m), F1.level(m))
    return sorted((m1 - m0 for m0, m1 in cb.pairs), reverse=True)


def d_p_level(F0: GradedFiltration, F1: GradedFiltration, m: int, p=2) -> float:
    """((1/N_m) sum |delta mu / m|^p)^(1/p) at the fixed degree m.

    Taken as M ((1/N_m) sum (x_i / M)^p)^(1/p) with x_i = |delta mu_i / m| and
    M = max x_i, so no power underflows or overflows however large p is.
    """
    if p < 1:
        raise InputError(f"p must be >= 1, got {p}")
    xs = [float(abs(d) / m) for d in relative_minima(F0, F1, m)]
    top = max(xs)
    if top == 0:
        return 0.0
    return top * (fsum((x / top) ** p for x in xs) / len(xs)) ** (1.0 / p)


def q_m(F: GradedFiltration, m: int) -> float:
    """(1/N_m) sum_i e^{-lambda_i/m}."""
    lv = F.level(m)
    return _mean_exp(lv._den, lv._nums, m)


def psi_m(F: GradedFiltration, m: int) -> float:
    return 1.0 - q_m(F, m)


def q_of_basis(F: GradedFiltration, m: int, basis_rows) -> float:
    """(1/N_m) sum_j e^{-v_F(s_j)/m} for an arbitrary basis; >= q_m always."""
    lv = F.level(m)
    rows = [rat_vector(r) for r in basis_rows]
    if (len(rows) != lv.dim or any(len(r) != lv.dim for r in rows)
            or matrix_rank(rows) != lv.dim):
        raise NotABasis("supplied vectors do not form a basis of the level")
    return _mean_exp(*_integer_row(lv.values_of(rows)), m)


def _mean_exp(den: int, nums, m: int) -> float:
    """(1/N) sum e^{-v/m} over the N values v = num / den, each v rounded once;
    NonFiniteResult when a term or the sum leaves double range."""
    try:
        return fsum(exp(-(v / den) / m) for v in nums) / len(nums)
    except OverflowError as exc:
        raise NonFiniteResult(
            f"Q_{m} = (1/{len(nums)}) sum e^(-v/{m}) is outside double range") from exc


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
        wden, nums = self._weight_numerators(w, m)
        return list(_fractions(nums, wden))

    def _weight_numerators(self, w, m: int) -> tuple[int, list[int]]:
        """The monomial w-weights of degree m as integers over one denominator."""
        w = rat_vector(w)
        if len(w) != self.num_vars:
            raise InvalidWeightFiltration(
                f"weight vector of length {len(w)} for {self.num_vars} variables"
            )
        wden, wn = _integer_row(w)
        return wden, [sum(a * e for a, e in zip(wn, expo)) for expo in self.monomials(m)]


def weight_filtration(model: MonomialModel, w, m: int) -> GradedFiltration:
    """The filtration of minimal monomial w-weight on the degree-m monomial basis."""
    den, nums = model._weight_numerators(w, m)
    level = FiltrationLevel._from_tables(m, den, nums, None, den, [(c,) for c in nums])
    return GradedFiltration({m: level}, label="weight-filtration")


def initial_term_degeneration(model: MonomialModel, w, F1: GradedFiltration, m: int) -> GradedFiltration:
    """Induced filtration on the associated graded of the w-weight filtration.

    For each jump value of F1 the degenerate subspace is spanned by the
    minimal-weight components of a left-to-right echelon basis (columns
    sorted by increasing monomial weight).  Dimensions per jump are
    preserved, so the successive-minima multiset is unchanged; the relative
    minima against the weight filtration become plain minima after twisting
    by the negated grading.

    The echelon rows are the integer rows of one fraction-free elimination;
    each initial row r with pivot entry p stands for the pivot-1 row r / p.
    """
    lv = F1.level(m)
    wden, cw = model._weight_numerators(w, m)
    n = lv.dim
    if n != len(cw):
        raise InvalidWeightFiltration(
            f"level dim {n} does not match the monomial basis ({len(cw)})"
        )
    col_order = sorted(range(n), key=lambda j: (cw[j], j))
    # the sorted columns run in blocks of one weight: block_end[c] ends the block of c
    block_end = [n] * n
    for c in range(n - 2, -1, -1):
        same = cw[col_order[c]] == cw[col_order[c + 1]]
        block_end[c] = block_end[c + 1] if same else c + 1
    basis = ([[int(j == i) for j in range(n)] for i in range(n)] if lv._rows is None
             else [r for _, r in lv._rows])
    flags = []
    for lam in sorted(set(lv._nums), reverse=True):
        a = [[row[j] for j in col_order] for row, v in zip(basis, lv._nums) if v >= lam]
        pivots, _, _ = _bareiss(a, n, reduced=False)
        initial_rows = []
        for row, c in zip(a, pivots):
            # zero before its pivot: the pivot's weight block starts at c
            vec = [0] * n
            for j in range(c, block_end[c]):
                vec[col_order[j]] = row[j]
            initial_rows.append((row[c], vec))
        flags.append((lam, initial_rows))
    level = FiltrationLevel._from_flag_rows(m, n, lv._den, flags, [(c,) for c in cw], wden)
    return GradedFiltration({m: level}, label=f"in_w({F1.label or 'F'})")


def multiplicativity_warnings(F: GradedFiltration) -> list[str]:
    """Superadditivity check of the top minima on stored degrees.

    A multiplicative filtration has lambda_max(m1+m2) >= lambda_max(m1) +
    lambda_max(m2); finite-level data cannot certify multiplicativity, but a
    violation disproves it.
    """
    degs = F.degrees()
    tops = {m: (max(lv._nums), lv._den) for m, lv in F.levels.items()}
    out = []
    for m1, m2 in itertools.combinations_with_replacement(degs, 2):
        if m1 + m2 not in tops:
            continue
        (n1, d1), (n2, d2), (n, d) = tops[m1], tops[m2], tops[m1 + m2]
        if n * d1 * d2 < (n1 * d2 + n2 * d1) * d:
            out.append(
                f"lambda_max({m1 + m2}) = {Fraction(n, d)} < lambda_max({m1}) + "
                f"lambda_max({m2}) = {Fraction(n1, d1) + Fraction(n2, d2)}"
            )
    return out
