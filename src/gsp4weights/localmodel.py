"""Exact polynomial-matrix computations on the dual side.

Covers symplectic-similitude membership, E(v)-elementary-divisor
patterns, Iwahori shape decomposition, the algebraic monodromy
condition, the regular colength-one universal family, and the torus
fixed-point set constructors.  Characteristic-0 computations run over
exact rationals with the prime p an ordinary scalar and E(v) = v + p;
special-fiber computations run over F_q, and the E-adic ones only over
F_p, where E(v) = v.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .base import SIMPLES, FiniteWeyl, W_ALL, Weight, std_character
from .affine import (
    HIGHEST_RESTRICTED,
    W0,
    ExtAffine,
    alcove_of,
    bruhat_lower_interval,
    compose,
    compose_all,
    dominant_down_set,
    elem_of_alcove,
    finite,
    in_omega,
    invert,
    is_restricted_element,
    omega_part,
    star,
    translation,
)
from .exactalg import QQ, LaurentPoly, PrimeField, RatFunc, _pack, _unpack
from .weights import _singles


# ---------------------------------------------------------------------------
# 4x4 matrices of Laurent polynomials
#
# The product, the determinant, the adjugate and the similitude form are
# sums of products of entries, so they run on the entries evaluated at
# v = 2^w (Kronecker substitution of the whole expression, by
# `exactalg._pack` and `_unpack`).  Each entry is packed once, the
# formulas below run on Python ints, and each result is read back once.


# the column pairs of a 2x2 minor, in row-major order of the pair
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _minors(ra, rb) -> dict:
    """The six 2x2 minors of the rows ra, rb, keyed by column pair."""
    return {(j, k): ra[j] * rb[k] - ra[k] * rb[j] for j, k in _PAIRS}


def _det(rows):
    """Determinant of a 4x4 matrix by Laplace expansion along rows (0, 1):
    each of their 2x2 minors times the complementary minor of rows (2, 3)."""
    t, b = _minors(rows[0], rows[1]), _minors(rows[2], rows[3])
    return (t[0, 1] * b[2, 3] - t[0, 2] * b[1, 3] + t[0, 3] * b[1, 2]
            + t[1, 2] * b[0, 3] - t[1, 3] * b[0, 2] + t[2, 3] * b[0, 1])


def _adjugate(rows):
    """adj(A)[j][i] = (-1)^(i+j) det(A without row i and column j).  Each
    3x3 minor keeps one of the row pairs (0, 1), (2, 3) whole and is
    expanded along its one other row against that pair's 2x2 minors."""
    kept = (_minors(rows[2], rows[3]), _minors(rows[0], rows[1]))
    out = [[None] * 4 for _ in range(4)]
    for i in range(4):
        m, x = kept[i // 2], rows[i ^ 1]
        for j in range(4):
            c1, c2, c3 = (k for k in range(4) if k != j)
            cof = x[c1] * m[c2, c3] - x[c2] * m[c1, c3] + x[c3] * m[c1, c2]
            out[j][i] = -cof if (i + j) % 2 else cof
    return out


class _Packed:
    """The entries of a 4x4 Laurent matrix, or of a stack of them,
    evaluated at v = 2^w by `exactalg._pack`, for a sum of `terms`
    products of `deg` entries each.

    Exponents count from the low degree of all the entries; numerators
    are brought to their common denominator D (1 over F_q).  A result
    coefficient then sums at most terms * span^(deg - 1) products of deg
    numerators, so w = bit_length(terms * span^(deg - 1) * top^deg) + 1
    holds it as a balanced slot, in (-2^(w-1), 2^(w-1)), with span the
    slots of an entry and top the largest numerator."""

    __slots__ = ("field", "rows", "w", "low", "slots", "den")

    def __init__(self, rows, terms: int, deg: int):
        field = rows[0][0].field
        entries = [e for row in rows for e in row if e.terms]
        low = min((e.terms[0][0] for e in entries), default=0)
        span = max((e.terms[-1][0] for e in entries), default=low) - low + 1
        if field.char:
            den, top = 1, field.char - 1
        else:
            den = lcm(*(e.den for e in entries))
            top = max((abs(c) * (den // e.den) for e in entries for _, c in e.terms), default=0)
        w = (terms * span ** (deg - 1) * top ** deg).bit_length() + 1
        self.field, self.w, self.den = field, w, den ** deg
        self.rows = [[_pack(e.terms, low, w, den // e.den) for e in row] for row in rows]
        self.low, self.slots = deg * low, deg * (span - 1) + 1

    def poly(self, z: int) -> LaurentPoly:
        """The Laurent polynomial whose value at v = 2^w is z, a result of
        the sum the packing was sized for."""
        terms = _unpack(z, self.low, self.slots, self.w, self.field.char)
        return LaurentPoly._canonical(self.field, terms, self.den)


def _determinant(rows) -> LaurentPoly:
    """det of a 4x4 Laurent matrix: `_det` on the packed entries, 24
    products of 4 entries each."""
    packed = _Packed(rows, 24, 4)
    return packed.poly(_det(packed.rows))


class PolyMat(NamedTuple):
    """4x4 matrix of Laurent polynomials over a fixed field: four tuple
    rows of four entries over `field`.  `make` builds one from outside
    entries; every matrix computed here is built whole from its rows."""

    field: object
    rows: tuple[tuple[LaurentPoly, ...], ...]

    @staticmethod
    def make(field, rows) -> "PolyMat":
        """The matrix of a 4x4 array of Laurent polynomials over `field`,
        ints and Fractions."""
        rows = tuple(tuple(PolyMat._coerce_entry(field, x) for x in row) for row in rows)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("PolyMat needs a 4x4 entry array")
        return PolyMat(field, rows)

    @staticmethod
    def _coerce_entry(field, x) -> LaurentPoly:
        if isinstance(x, LaurentPoly):
            if x.field != field:
                raise TypeError("entry field mismatch")
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(field, x)
        raise TypeError("cannot use %r as a matrix entry" % (x,))

    def __mul__(self, other):
        if not isinstance(other, PolyMat):
            return NotImplemented
        if other.field != self.field:
            raise TypeError("matrix field mismatch")
        # entry (i, j) is a sum of 4 products of 2 entries
        packed = _Packed(self.rows + other.rows, 4, 2)
        left, right = packed.rows[:4], packed.rows[4:]
        return PolyMat(self.field, tuple(
            tuple(packed.poly(sum(a * b[j] for a, b in zip(row, right))) for j in range(4))
            for row in left))

    def det(self) -> LaurentPoly:
        return _determinant(self.rows)

    def adjugate(self) -> "PolyMat":
        packed = _Packed(self.rows, 6, 3)
        return PolyMat(self.field, tuple(tuple(packed.poly(x) for x in row)
                                         for row in _adjugate(packed.rows)))

    @staticmethod
    def from_json_obj(field, obj) -> "PolyMat":
        """The matrix of a 4x4 array (a list of four rows of four cells), each
        cell an object {"coeffs": {exponent: scalar}} read by
        LaurentPoly.from_coeff_json.  A malformed array raises ValueError; a
        bad cell re-raises its error with the cell named."""
        if not (isinstance(obj, list) and len(obj) == 4
                and all(isinstance(row, list) and len(row) == 4 for row in obj)):
            raise ValueError("the matrix is not a 4x4 array of cells")
        rows = []
        for i, row in enumerate(obj):
            entries = []
            for j, cell in enumerate(row):
                where = "cell (%d, %d)" % (i, j)
                coeffs = cell.get("coeffs") if isinstance(cell, dict) else None
                if not isinstance(coeffs, dict):
                    raise ValueError('%s is not {"coeffs": {exponent: scalar}}' % where)
                try:
                    entries.append(LaurentPoly.from_coeff_json(field, coeffs))
                except (ValueError, ZeroDivisionError) as exc:
                    raise type(exc)("%s: %s" % (where, exc)) from None
            rows.append(tuple(entries))
        return PolyMat(field, tuple(rows))


def e_poly(field, p: int) -> LaurentPoly:
    """E(v) = v + p over the rationals; over F_p this is just v.  Any
    other prime field raises ValueError: there v + p is not v."""
    _check_p(field, p)
    return LaurentPoly(field, {1: 1, 0: p})


# the symplectic form: antidiagonal (1, 1, -1, -1), by row
_J_SIGNS = (1, 1, -1, -1)


# Weyl generators acting on the character-exponent coordinates: s1 is
# the middle swap, s2 the outer double swap (the conjugation identity
# w diag(v^t) w^-1 = diag(v^(w t)) forces this assignment; signs keep
# the form).
_GEN_ROWS = {
    "1": ((1, 0, 0, 0), (0, 0, 1, 0), (0, -1, 0, 0), (0, 0, 0, 1)),
    "2": ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
}


def weyl_matrix(w: FiniteWeyl, field) -> PolyMat:
    """The signed permutation matrix of w: the product of its word's
    generator rows, taken on integers."""
    rows = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for ch in w.word:
        cols = tuple(zip(*_GEN_ROWS[ch]))
        rows = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in rows)
    return PolyMat.make(field, rows)


def monomial_matrix(z: ExtAffine, field) -> PolyMat:
    """Monomial representative of the dual element z = t_nu w:
    diag(v^(std exponents of nu)) times the Weyl matrix of w."""
    exps = std_character(z.nu)
    wm = weyl_matrix(z.w, field)
    return PolyMat(field, tuple(tuple(e.shift(k) for e in row) for row, k in zip(wm.rows, exps)))


# ---------------------------------------------------------------------------
# symplectic similitude


class SimilitudeResult(NamedTuple):
    ok: bool
    scalar: LaurentPoly | None
    failed_entry: tuple[int, int] | None
    v_order: int | None = None
    e_order: int | None = None
    unit_form: bool = False


def _form_scalar(A: PolyMat):
    """(c, None) when transpose(A) * J * A == c * J, else (None, (i, j))
    with the first entry, in row-major order, where the two differ.

    transpose(A) * J * A is alternating, so its six entries above the
    diagonal decide the comparison, and a failure above the diagonal
    precedes its mirror image.  The entries are compared packed, and read
    back only where the packed values differ: over F_q they may differ
    by multiples of q."""
    packed = _Packed(A.rows, 4, 2)
    rows = packed.rows
    m03, m12 = _minors(rows[0], rows[3]), _minors(rows[1], rows[2])
    x03 = m03[0, 3] + m12[0, 3]
    c = packed.poly(x03)
    for ij in _PAIRS:
        x = m03[ij] + m12[ij]
        diagonal = ij in ((0, 3), (1, 2))
        if x != (x03 if diagonal else 0):
            got = packed.poly(x)
            if (got != c) if diagonal else got:
                return None, ij
    return c, None


def symplectic_similitude(A: PolyMat, p: int) -> SimilitudeResult:
    """Check transpose(A) * J * A == c * J and report the similitude c.

    When c factors exactly as scalar * v^a * E(v)^b the orders a, b are
    reported and unit_form is set (over F_q any E-power is a v-power, so
    unit_form there just means c is a monomial).  A singular matrix
    raises ValueError; when the form check holds, det(A)^2 = c^4 decides
    singularity without the determinant.  Over a prime field p must be
    its characteristic, else ValueError.
    """
    _check_p(A.field, p)
    c, failed = _form_scalar(A)
    if c is None:
        if A.det().is_zero:
            raise ValueError("matrix is singular")
        return SimilitudeResult(False, None, failed)
    if c.is_zero:
        raise ValueError("matrix is singular")
    field = A.field
    v_ord = c.low_degree
    stripped = c.shift(-v_ord)
    if field.char != 0:
        e_ord = v_ord
        unit = stripped.is_constant
    else:
        # v = u - p makes E = u: c is scalar * v^a * E^b exactly when its
        # v-free part becomes a monomial in u
        at_e = _taylor_shift(stripped, -p)
        e_ord = at_e.low_degree
        unit = at_e.is_monomial
    return SimilitudeResult(True, c, None, v_ord, e_ord, unit)


# ---------------------------------------------------------------------------
# the local elimination kernel
#
# A local Smith form by valuation pivoting (Cohen, GTM 138, section 2.4),
# on matrices of power series in one uniformizer truncated mod v^prec.
# With d the valuation of det(A), prec = d + 1 is exact: v^d * A^-1 =
# v^d * adj(A) / det(A) is integral, so A + v^(d+1) * B = A * (1 + v * X)
# with X = (v^d A^-1) * B integral, a right factor in the pro-unipotent
# Iwahori, and no entry of valuation > d is ever a pivot (every pivot of
# a square block is at most the valuation of its determinant).  The
# elimination is fraction-free (Bareiss, Math. Comp. 1968): a row is
# scaled by the pivot's unit instead of divided by it, which a
# diagonal matrix of units in the Iwahori allows and no valuation sees.


def _local_pivots(rows, prec: int) -> list[tuple[int, int, int]]:
    """Pivots (row, column, valuation), in elimination order, of a square
    matrix of power series without negative exponents, truncated mod
    v^prec with prec above the valuation of its nonzero determinant.

    Each step takes the nonzero entry minimizing (valuation, bottom-most
    row, left-most column) among the rows and columns left and clears its
    column in the other rows left.  This pivot rule keeps every row
    operation in the Iwahori (a higher row is added to a lower one only
    with a multiple divisible by v), and so the column operations that
    would clear the pivot's row, which change nothing else and are only
    checked.  With the pivot u * v^m, u a unit, row i with entry e * v^m
    in the pivot's column becomes u * row_i - e * pivot row: the row
    scaled by a unit, then cleared, with no division in either field.
    """
    work = [list(r) for r in rows]
    rows_left = list(range(len(work)))
    cols_left = list(range(len(work)))
    pivots = []
    while rows_left:
        best = min(((work[r][c].low_degree, -r, c) for r in rows_left for c in cols_left
                    if not work[r][c].is_zero), default=None)
        assert best is not None, "a block left by the elimination vanishes mod v^prec"
        m, r, c = best[0], -best[1], best[2]
        rows_left.remove(r)
        cols_left.remove(c)
        prow = work[r]
        for j in cols_left:
            e = prow[j]
            assert e.is_zero or e.low_degree - m >= (1 if j < c else 0), \
                "pivot rule produced a non-Iwahori column operation"
        u = prow[c].shift(-m)
        for i in rows_left:
            e = work[i][c]
            if e.is_zero:
                continue
            assert e.low_degree - m >= (1 if i > r else 0), \
                "pivot rule produced a non-Iwahori row operation"
            e = e.shift(-m)
            row = work[i]
            for j in cols_left:
                row[j] = (u * row[j] - e * prow[j]).truncate(prec)
        pivots.append((r, c, m))
    return pivots


def _taylor_shift(a: LaurentPoly, s: int) -> LaurentPoly:
    """a(v + s) over the rationals, for a polynomial a without negative
    exponents and an integer s.  The shift is unimodular on the integer
    numerators, so they keep gcd 1 with the denominator."""
    if a.is_zero:
        return a
    n = a.degree
    c = [0] * (n + 1)
    for e, x in a.terms:
        c[e] = x
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            c[k] += s * c[k + 1]
    return LaurentPoly._canonical(a.field, tuple((k, x) for k, x in enumerate(c) if x), a.den)


def _check_p(field, p: int) -> None:
    """E(v) = v + p is the uniformizer over the rationals, with root
    -p != 0, and over F_p, where it is v; over F_q with q != p it is
    v + (p mod q), which the E-adic computations here do not read.  Each
    of them runs this first, so a refused p is refused before any work."""
    if field.char not in (0, p):
        raise ValueError("E(v) = v + %d needs characteristic 0 or %d, not %r"
                         % (p, p, field))
    if p == 0:
        raise ValueError("E(v) = v + p needs p != 0 over the rationals")


def _least_valuation(A: PolyMat) -> int:
    """The least exponent of any entry of A, of either sign: v^-k * A is
    integral with a unit entry for this k."""
    return min([e.low_degree for row in A.rows for e in row if e], default=0)


# ---------------------------------------------------------------------------
# elementary divisor patterns


def e_divisor_pattern(A: PolyMat, p: int) -> tuple[int, int, int, int]:
    """Exponents of the E(v)-elementary divisors, sorted decreasingly.

    E-adic means order of vanishing at v = -p over the rationals and
    plain v-adic valuation over F_q.  The exponents are the pivot
    valuations of the local elimination kernel at the E-adic precision
    val(det) + 1.  The least valuation k of the entries is divided out
    first: over the rationals v is a unit at E, over F_q k is added back.
    Over the rationals v = u - p turns the E-adic valuation into the
    u-adic one.  Over a prime field p must be its characteristic, else
    ValueError.
    """
    field = A.field
    _check_p(field, p)
    k = _least_valuation(A)
    rows = [[e.shift(-k) for e in row] for row in A.rows]
    if field.char == 0:
        rows = [[_taylor_shift(e, -p) for e in row] for row in rows]
        k = 0  # v^k is a unit at E over the rationals
    det = _determinant(rows)
    if det.is_zero:
        raise ValueError("matrix is singular")
    prec = det.low_degree + 1
    pivots = _local_pivots([[e.truncate(prec) for e in row] for row in rows], prec)
    return tuple(sorted((m + k for _, _, m in pivots), reverse=True))


def dominance_leq(mu, lam) -> bool:
    """Dominance comparison of decreasing integer tuples: every partial
    sum of mu is at most the corresponding partial sum of lam."""
    smu = slam = 0
    for x, y in zip(mu, lam):
        smu += x
        slam += y
        if smu > slam:
            return False
    return True


# ---------------------------------------------------------------------------
# Iwahori shapes


@lru_cache(maxsize=1)
def _weyl_patterns() -> dict:
    out = {}
    for w in W_ALL:
        m = weyl_matrix(w, QQ)
        support = frozenset((i, j) for i in range(4) for j in range(4)
                            if not m.rows[i][j].is_zero)
        out[support] = w
    return out


def shape_of(A: PolyMat) -> ExtAffine:
    """The element z with A in I z I for the Iwahori I (integral, upper
    triangular mod v), over a prime field.

    A must be a symplectic similitude, transpose(A) * J * A = c * J, else
    ValueError.  Then val(det A) = 2 * val(c), and the local elimination
    kernel runs at precision val(det) + 1 on v^-k * A, for k the least
    valuation of the entries (a central v-power); its pivots form a
    monomial pattern, asserted to lie in the GSp4 torus normalizer.
    """
    field = A.field
    if not isinstance(field, PrimeField):
        raise ValueError("shape is computed on the special fiber; use a prime field")
    c, failed = _form_scalar(A)
    if c is None:
        raise ValueError("matrix is not a symplectic similitude: transpose(A)*J*A "
                         "is not a multiple of J at entry (%d,%d)" % failed)
    if c.is_zero:
        raise ValueError("matrix is singular")
    # a global v-power is a central translation which we restore at the end
    k = _least_valuation(A)
    prec = 2 * c.low_degree - 4 * k + 1
    work = [[e.shift(-k).truncate(prec) for e in row] for row in A.rows]
    pivots = {r: (col, m) for r, col, m in _local_pivots(work, prec)}
    support = frozenset((r, pivots[r][0]) for r in pivots)
    w = _weyl_patterns().get(support)
    assert w is not None, \
        "shape elimination did not produce a symplectic monomial pattern"
    t = tuple(pivots[r][1] for r in range(4))
    cc = t[3]
    bb = t[2] - cc
    aa = t[1] - cc
    assert t[0] == aa + bb + cc, \
        "shape elimination produced incompatible monomial exponents"
    z = compose(translation(Weight(aa, bb, cc)), finite(w))
    if k:
        # undo the global v^-k normalization: a central translation
        z = compose(translation(Weight(0, 0, k)), z)
    return z


# ---------------------------------------------------------------------------
# the algebraic monodromy condition


class MonodromyParams(NamedTuple):
    """The parameter triple of the monodromy operator, with the prime."""

    field: object
    a: tuple
    p: int

    @staticmethod
    def make(field, a1, a2, a3, p: int) -> "MonodromyParams":
        a = tuple(field.coerce(x) for x in (a1, a2, a3))
        return MonodromyParams(field, a, p)

    def diag_values(self) -> tuple:
        a1, a2, a3 = self.a
        return (a1, a2, self.field.coerce(a3 - a2), self.field.coerce(a3 - a1))


class MonodromyDefect(NamedTuple):
    clause: int
    entry: tuple[int, int] | None
    detail: str

    def display(self) -> str:
        where = "" if self.entry is None else " at entry (%d,%d)" % self.entry
        return "clause (%s)%s: %s" % ("i" * self.clause, where, self.detail)


def monodromy_defect(A: PolyMat, params: MonodromyParams):
    """Test the algebraic monodromy condition; None means PASS.

    M = v*(dA/dv)*A^-1 + A*Diag(std exponents of a)*A^-1 must satisfy,
    after clearing the single allowed pole: X = (v+p)*M has
    (i) unit denominators only, (ii) transpose(X)*J + J*X scalar * J,
    (iii) reduction mod v upper triangular (the Borel reading).

    Entry (i, j) of v*dA/dv + A*Diag is A_ij with each v^k term scaled by
    k + d_j, for d_j the j-th diagonal value.  J is antisymmetric, so
    transpose(X)*J + J*X = S - transpose(S) for S = transpose(X)*J, and a
    signed permutation, so each entry of S is one signed entry of X.
    Over a prime field p must be its characteristic, else ValueError.
    """
    if A.field != params.field:
        raise TypeError("matrix and parameters live over different fields")
    field = A.field
    ep = e_poly(field, params.p)
    det = A.det()
    if det.is_zero:
        raise ValueError("matrix is singular")
    d = params.diag_values()
    twisted = PolyMat(field, tuple(tuple(e.derivative().shift(1) + e.scale(d[j])
                                         for j, e in enumerate(row)) for row in A.rows))
    num = twisted * A.adjugate()
    x = [[RatFunc.make(ep * e, det) for e in row] for row in num.rows]
    for i in range(4):
        for j in range(4):
            if not x[i][j].is_laurent:
                return MonodromyDefect(
                    1, (i, j),
                    "denominator %s is not a unit" % x[i][j].den.display())
    xm = [[e.num for e in row] for row in x]
    # J is a signed permutation: S = X^t J is S[i][j] = J[3-j][j] X[3-j][i]
    s = [[xm[3 - j][i].scale(_J_SIGNS[3 - j]) for j in range(4)] for i in range(4)]
    scalar, zero = s[0][3] - s[3][0], LaurentPoly.zero(field)
    for i in range(4):
        for j in range(4):
            if s[i][j] - s[j][i] != (scalar.scale(_J_SIGNS[i]) if j == 3 - i else zero):
                return MonodromyDefect(
                    2, (i, j), "X^t J + J X is not a multiple of J")
    for i in range(4):
        for j in range(4):
            e = xm[i][j]
            if e.is_zero:
                continue
            if e.low_degree < 0:
                return MonodromyDefect(3, (i, j), "pole at v = 0")
            if i > j and e.constant_term:
                return MonodromyDefect(
                    3, (i, j), "reduction mod v is not upper triangular")
    return None


# ---------------------------------------------------------------------------
# the regular colength-one universal family

ADMISSIBLE_DISPLAY = {"a0": 1, "a1": 2, "a2": 3, "a3": 1, "e": 5}


class RegColOneParams(NamedTuple):
    """Scalar parameters of the regular colength-one universal matrix.

    The c's are the matrix coordinates; a0..a3 and e are the opaque
    weight parameters entering only through the solved relation.
    """

    field: object
    c00: object
    c21: object
    c13: object
    c31: object
    c31p: object
    c33: object
    c33p: object
    c33pp: object
    a0: object
    a1: object
    a2: object
    a3: object
    e: object

    @staticmethod
    def make(field, *, c00, c21, c13, c31, c31p, c33, c33p, c33pp,
             a0, a1, a2, a3, e) -> "RegColOneParams":
        params = RegColOneParams(field, *(field.coerce(x) for x in (
            c00, c21, c13, c31, c31p, c33, c33p, c33pp, a0, a1, a2, a3, e)))
        if not field.coerce(params.e + params.a0 - params.a3 - 1):
            raise ValueError("denominator e + a0 - a3 - 1 vanishes")
        return params

    @staticmethod
    def admissible(field, p: int, c00, c21, c13, c31, c31p, c33, c33p) -> "RegColOneParams":
        """Symplectic member of the family: c33'' is pinned by the
        similitude condition c00*(c33'' + p*c33' + p^2*c33) = p^3, and the
        display parameters are `ADMISSIBLE_DISPLAY`."""
        c00 = field.coerce(c00)
        if not c00:
            raise ValueError("c00 must be invertible")
        c33 = field.coerce(c33)
        c33p = field.coerce(c33p)
        pc = field.coerce(p)
        c33pp = Fraction(pc ** 3, c00) - c33 * pc * pc - c33p * pc
        return RegColOneParams.make(
            field, c00=c00, c21=c21, c13=c13, c31=c31, c31p=c31p,
            c33=c33, c33p=c33p, c33pp=c33pp, **ADMISSIBLE_DISPLAY)

    @staticmethod
    def solved(field, p: int, c00, c21, c13, c31, a) -> "RegColOneParams":
        """Monodromy-satisfying instance: c33 from the solved relation,
        then c31', c33', c33'' eliminated per the monodromy condition.

        ``a`` is the monodromy parameter triple (a1, a2, a3); the opaque
        display parameters are derived from it."""
        a1m, a2m, a3m = (field.coerce(x) for x in a)
        c00 = field.coerce(c00)
        c21 = field.coerce(c21)
        c13 = field.coerce(c13)
        c31 = field.coerce(c31)
        pc = field.coerce(p)
        if not c00:
            raise ValueError("c00 must be invertible")
        big_x = a3m - 2 * a1m
        big_y = a3m - 2 * a2m
        for d in (a1m - a2m, big_x, big_x - 1, big_x + 1):
            if not field.coerce(d):
                raise ValueError("denominator vanishing: parameters not generic enough")
        # c33 from the solved relation c00*[(Y-1) c13 c31 + (X+1) c33] = p (X-1);
        # every denominator is a unit, so the rational values reduce mod q
        c33 = Fraction(Fraction(pc * (big_x - 1), c00) - (big_y - 1) * c13 * c31, big_x + 1)
        # the three eliminated variables
        c31p = -Fraction(pc * (c13 * c21 * (a1m + a2m - a3m) + c31), a1m - a2m)
        c33p = Fraction(2 * pc * c33 - c13 * c31p * big_y - pc * c13 * c31 * (2 - big_y), big_x)
        c33pp = Fraction(pc ** 3, c00) - c33 * pc * pc - c33p * pc
        # display parameters via the dictionary fixed by the derivation
        return RegColOneParams.make(
            field, c00=c00, c21=c21, c13=c13, c31=c31, c31p=c31p,
            c33=c33, c33p=c33p, c33pp=c33pp, a0=a3m - a1m + 1, a1=a3m - a2m,
            a2=a2m + 1, a3=a1m, e=-1)


def monodromy_params_of(params: RegColOneParams, p: int) -> MonodromyParams:
    """Invert the display dictionary back to the monodromy triple."""
    f = params.field
    a1m = params.a3
    a2m = f.coerce(params.a2 - 1)
    a3m = f.coerce(params.a1 + params.a2 - 1)
    if params.e != f.coerce(-1):
        raise ValueError("parameters are not in the image of the display dictionary")
    if params.a0 != f.coerce(params.a1 + params.a2 - params.a3):
        raise ValueError("parameters are not in the image of the display dictionary")
    return MonodromyParams(f, (a1m, a2m, a3m), p)


def build_regcolone_matrix(params: RegColOneParams, p: int) -> PolyMat:
    """The displayed universal matrix of the regular colength-one locus,
    with E(v) = v + p.  Over F_q with q != p it is the reduction mod q of
    the rational matrix, whose v + p the E-adic functions refuse to read.

    Each entry is written by its v-coefficients, with E expanded: the
    c's are brought to one denominator d, so every coefficient is an
    integer numerator over 1, d or d^2."""
    f = params.field
    q = f.char
    cs = (params.c00, params.c21, params.c13, params.c31,
          params.c31p, params.c33, params.c33p, params.c33pp)
    d = lcm(*(x.denominator for x in cs))
    c00, c21, c13, c31, c31p, c33, c33p, c33pp = (x.numerator * (d // x.denominator)
                                                  for x in cs)
    d2 = d * d

    def entry(den, *coeffs):
        terms = []
        for k, c in enumerate(coeffs):
            if q:
                c %= q
            if c:
                terms.append((k, c))
        return LaurentPoly._canonical(f, tuple(terms), den)

    zero = entry(1)
    # (c31' + p c13 c21) E and (c13 c21 - c31) E^2 of entry (2, 3), over d^2
    a, b = c31p * d + p * c13 * c21, c13 * c21 - c31 * d
    rows = (
        (entry(d, c00),
         entry(d2, c00 * (c31p + p * c31), c00 * c31),
         entry(d2, c00 * c13),
         entry(d2, c00 * c33p + 2 * p * c00 * c33 - 3 * p * p * d2, c00 * c33 - 3 * p * d2, -d2)),
        (zero, entry(1, p * p, 2 * p, 1), zero, entry(d, c13 * p * p, 2 * p * c13, c13)),
        (zero, entry(d, 0, p * c21, c21), entry(1, p, 1), entry(d2, b * p * p - a * p, 2 * b * p - a, b)),
        (entry(1, 0, 1),
         entry(d, 0, c31p + p * c31, c31),
         entry(d, 0, c13),
         entry(d, c33pp + p * c33p + p * p * c33, c33p + 2 * p * c33, c33)),
    )
    return PolyMat(f, rows)


def regcolone_relation_holds(params: RegColOneParams, p: int) -> bool:
    """The solved relation from the proof, in the display parameters:
    c00*[(e+a1-a2+1)/(e+a0-a3-1) c13 c31 + (a0-a3-1-e)/(e+a0-a3-1) c33] = p."""
    return regcolone_coordinates(params, p)["xy"] == params.field.coerce(p)


def regcolone_coordinates(params: RegColOneParams, p: int) -> dict:
    """Free coordinates of the solved family: three affine coordinates
    and the X_p pair (x, y) with x*y = p."""
    f = params.field
    den = params.e + params.a0 - params.a3 - 1
    num1 = params.e + params.a1 - params.a2 + 1
    num2 = params.a0 - params.a3 - 1 - params.e
    # inv raises the field's own error for parameters built without make
    y = f.coerce((num1 * params.c13 * params.c31 + num2 * params.c33) * f.inv(den))
    return {
        "z1": params.c21,
        "z2": params.c13,
        "z3": params.c31,
        "x": params.c00,
        "y": y,
        "xy": f.coerce(params.c00 * y),
    }


# ---------------------------------------------------------------------------
# torus fixed-point sets


def fixed_point_set_T(w1: ExtAffine, w2: ExtAffine) -> frozenset:
    """Torus fixed points {star(w2^-1 wh^-1 w) : w Bruhat-below w0 w1}
    for one embedding's AP' position (w1, w2)."""
    if (w1, w2) not in _singles("param").index:
        raise ValueError("malformed pair: not an AP' position")
    return frozenset(
        star(compose_all(invert(w2), invert(HIGHEST_RESTRICTED), wt))
        for wt in bruhat_lower_interval(compose(W0, w1)))


def fixed_point_set_colone(w1: ExtAffine, s: int) -> frozenset:
    """Colength-one fixed points {star(w1^-1 wh^-1 s w0 w) : w arrow-below
    w1 in the dominant range}; for s = s2 the length-zero w are excluded."""
    if s not in SIMPLES:
        raise ValueError("s must be 1 or 2")
    if not is_restricted_element(w1):
        raise ValueError("w1 must be restricted")
    sw = finite(SIMPLES[s])
    omega = omega_part(w1)
    found = set()
    for alc in dominant_down_set(alcove_of(w1)):
        wt = compose(elem_of_alcove(alc), omega)
        if s == 2 and in_omega(wt):
            continue
        found.add(star(compose_all(
            invert(w1), invert(HIGHEST_RESTRICTED), sw, W0, wt)))
    return frozenset(found)
