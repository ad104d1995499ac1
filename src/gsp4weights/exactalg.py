"""Exact scalar and Laurent-polynomial arithmetic.

Two coefficient fields are supported: the rationals (characteristic 0,
scalars are ``fractions.Fraction``) and the prime field F_q (scalars are
ints in [0, q)).  Scalar arithmetic is Python operators; a field object
only maps a value into the field (``coerce``) and inverts (``inv``).  On
top of these we build Laurent polynomials in a single variable ``v``.
Everything is exact; division by zero raises, it never produces a silent
junk value.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# coefficient fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    """The field of rational numbers; scalars are Fractions."""

    char = 0

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError("cannot coerce %r into the rationals" % (x,))

    def inv(self, x) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("division by zero in the rationals")
        return 1 / Fraction(x)

    def to_str(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(("field", 0))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_q; scalars are ints in [0, q)."""

    def __init__(self, q: int):
        if not _is_prime(q):
            raise ValueError("F_q needs a prime q, got %d" % q)
        self.char = q

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.char
        if isinstance(x, Fraction):
            if x.denominator % self.char == 0:
                raise ZeroDivisionError(
                    "denominator of %s vanishes mod %d" % (x, self.char))
            return (x.numerator * pow(x.denominator, -1, self.char)) % self.char
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError("cannot coerce %r into F_%d" % (x, self.char))

    def inv(self, x) -> int:
        if x % self.char == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.char)
        return pow(x, -1, self.char)

    def to_str(self, x) -> str:
        return str(x % self.char)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("field", self.char))

    def __repr__(self):
        return "GF(%d)" % self.char


QQ = RationalField()


# ---------------------------------------------------------------------------
# Laurent polynomials in v


class LaurentPoly:
    """Laurent polynomial in v with coefficients in a fixed field.

    Canonical form: ``coeffs`` is a tuple of (exponent, scalar) pairs,
    sorted by increasing exponent, with no zero scalars; over F_q every
    scalar is an int in [1, q), as the sums and products rely on.  A
    canonical scalar is never zero, so a zero test is its truth value.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        coerce = field.coerce
        acc = {}
        for exp, val in items:
            exp = int(exp)
            val = coerce(val)
            if exp in acc:
                val = coerce(acc[exp] + val)
            acc[exp] = val
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(sorted((e, c) for e, c in acc.items() if c)))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors

    @classmethod
    def _canonical(cls, field, coeffs: tuple) -> "LaurentPoly":
        """Trusted constructor: ``coeffs`` is already in canonical form
        (sorted exponents, reduced nonzero scalars of the field)."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    @staticmethod
    def const(field, x) -> "LaurentPoly":
        return LaurentPoly(field, {0: x})

    @staticmethod
    def zero(field) -> "LaurentPoly":
        return LaurentPoly(field, ())

    @staticmethod
    def one(field) -> "LaurentPoly":
        return LaurentPoly.const(field, 1)

    @staticmethod
    def v_power(field, k: int) -> "LaurentPoly":
        return LaurentPoly(field, {k: 1})

    # -- inspection

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def low_degree(self):
        """v-adic valuation; None for the zero polynomial."""
        return self.coeffs[0][0] if self.coeffs else None

    @property
    def degree(self):
        return self.coeffs[-1][0] if self.coeffs else None

    @property
    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    @property
    def is_constant(self) -> bool:
        return not self.coeffs or (len(self.coeffs) == 1 and self.coeffs[0][0] == 0)

    def coeff(self, exp: int):
        for e, c in self.coeffs:
            if e == exp:
                return c
        return self.field.coerce(0)

    @property
    def constant_term(self):
        return self.coeff(0)

    @property
    def leading_coeff(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1][1]

    @property
    def trailing_coeff(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no trailing coefficient")
        return self.coeffs[0][1]

    # -- arithmetic

    def _coerce_other(self, other):
        if isinstance(other, LaurentPoly):
            if other.field != self.field:
                raise TypeError("mixed coefficient fields")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.field, other)
        return None

    def __add__(self, other):
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        q = self.field.char
        if q:
            return LaurentPoly._canonical(self.field, tuple((e, q - c) for e, c in self.coeffs))
        return LaurentPoly._canonical(self.field, tuple((e, -c) for e, c in self.coeffs))

    def __sub__(self, other):
        return self._merge(other, True)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        return NotImplemented if other is None else other._merge(self, True)

    def _merge(self, other, negate: bool):
        """self + other, or self - other when negate, in one pass over the
        two sorted term tuples, reducing mod q once per exponent."""
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        a = self.coeffs
        q = self.field.char
        out = []
        i, n = 0, len(a)
        for e, c in other.coeffs:
            while i < n and a[i][0] < e:
                out.append(a[i])
                i += 1
            if negate:
                c = -c
            if i < n and a[i][0] == e:
                c += a[i][1]
                i += 1
            if q:
                c %= q
            if c:
                out.append((e, c))
        out += a[i:]
        return LaurentPoly._canonical(self.field, tuple(out))

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return LaurentPoly._canonical(f, ())
        q = f.char
        if len(b) == 1:  # a monomial factor: a shift and a scale
            (e0, c0), = b
            if q:
                return LaurentPoly._canonical(f, tuple((e + e0, c * c0 % q) for e, c in a))
            return LaurentPoly._canonical(f, tuple((e + e0, c * c0) for e, c in a))
        if q:
            return LaurentPoly._canonical(f, _kronecker_mul(a, b, q))
        acc = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                t = c1 * c2
                acc[e] = acc[e] + t if e in acc else t
        return LaurentPoly._canonical(f, tuple(sorted((e, c) for e, c in acc.items() if c)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if not self.is_monomial:
                raise ValueError("negative power of a non-monomial")
            e, c = self.coeffs[0]
            return LaurentPoly(self.field, {-e: self.field.inv(c)}) ** (-n)
        out = LaurentPoly.one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, x) -> "LaurentPoly":
        f = self.field
        x = f.coerce(x)
        return LaurentPoly(f, tuple((e, c * x) for e, c in self.coeffs))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly._canonical(self.field, tuple((e + k, c) for e, c in self.coeffs))

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly(self.field, tuple((e - 1, c * e) for e, c in self.coeffs if e != 0))

    def truncate(self, n: int) -> "LaurentPoly":
        """Drop all terms of exponent >= n."""
        return LaurentPoly._canonical(
            self.field, tuple((e, c) for e, c in self.coeffs if e < n))

    # -- comparison and display

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.field, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def display(self) -> str:
        if not self.coeffs:
            return "0"
        f = self.field
        parts = []
        for e, c in reversed(self.coeffs):
            cs = f.to_str(c)
            if e == 0:
                term = cs
            else:
                var = "v" if e == 1 else "v^%d" % e
                term = var if cs == "1" else ("-" + var if cs == "-1" else cs + "*" + var)
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self.display()

    def to_coeff_json(self) -> dict:
        return {str(e): self.field.to_str(c) for e, c in self.coeffs}

    @staticmethod
    def from_coeff_json(field, obj: dict) -> "LaurentPoly":
        """Inverse of to_coeff_json.  An exponent is an integer as str(int)
        writes it; a coefficient is a JSON integer or a string "a" or "a/b"
        of integers.  Anything else raises ValueError; a denominator that
        is 0 or vanishes in the field raises ZeroDivisionError."""
        terms = {}
        for e, c in obj.items():
            if not (isinstance(e, str) and _EXPONENT.fullmatch(e)):
                raise ValueError("exponent %s is not an integer" % json.dumps(e))
            m = _SCALAR_STR.fullmatch(c) if isinstance(c, str) else None
            if m:
                c = int(m[1]) if m[2] is None else Fraction(int(m[1]), int(m[2]))
            elif not isinstance(c, int) or isinstance(c, bool):
                raise ValueError('coefficient %s is not an integer or "a/b"' % json.dumps(c))
            terms[int(e)] = field.coerce(c)
        return LaurentPoly._canonical(field, tuple(sorted(t for t in terms.items() if t[1])))


# exponents as str(int) writes them; coefficient strings "a" or "a/b"
_EXPONENT = re.compile(r"0|-?[1-9][0-9]*")
_SCALAR_STR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _kronecker_mul(a: tuple, b: tuple, q: int) -> tuple:
    """The terms of a * b over F_q by Kronecker substitution (Schoenhage
    1982; Harvey, J. Symb. Comp. 2009).  The coefficients of the canonical
    term tuples a, b, all in [0, q), are packed one per slot of w bits into
    one integer each: a product slot sums at most min(len a, len b) terms
    below q^2, so w bits hold it without carrying into the next slot."""
    w = (min(len(a), len(b)) * (q - 1) ** 2).bit_length()
    la, lb = a[0][0], b[0][0]
    x = y = 0
    for e, c in a:
        x |= c << ((e - la) * w)
    for e, c in b:
        y |= c << ((e - lb) * w)
    z = x * y
    mask = (1 << w) - 1
    out = []
    e = la + lb
    while z:
        c = (z & mask) % q
        if c:
            out.append((e, c))
        z >>= w
        e += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomial division, gcd, valuations


def divmod_poly(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder, after clearing v-powers.

    Writes a = q*b + r where r, viewed in the polynomial ring after the
    v-power shift, has degree < deg b.  b must be nonzero.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    f = a.field
    if a.is_zero:
        return LaurentPoly.zero(f), LaurentPoly.zero(f)
    sa, sb = a.low_degree, b.low_degree
    aa, bb = a.shift(-sa), b.shift(-sb)
    # classic long division on polynomials with nonneg exponents
    q = LaurentPoly.zero(f)
    r = aa
    db = bb.degree
    lead_inv = f.inv(bb.leading_coeff)
    while not r.is_zero and r.degree >= db:
        k = r.degree - db
        t = LaurentPoly(f, {k: r.leading_coeff * lead_inv})
        q = q + t
        r = r - t * bb
    return q.shift(sa - sb), r.shift(sa)


def exact_div(a: LaurentPoly, b: LaurentPoly):
    """a / b when the division is exact in the Laurent ring, else None."""
    q, r = divmod_poly(a, b)
    return q if r.is_zero else None


def unit_normalize(a: LaurentPoly) -> LaurentPoly:
    """Strip the unit part: divide by v^(low degree) and by the leading
    coefficient.

    The result is 0 or a monic polynomial with nonzero constant term; it
    generates the same ideal of the Laurent ring.  poly_gcd and RatFunc's
    canonical denominator rely on the monic top.
    """
    if a.is_zero:
        return a
    out = a.shift(-a.low_degree)
    return out.scale(a.field.inv(out.leading_coeff))


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd in the Laurent ring, canonical up to the unit normalization."""
    a, b = unit_normalize(a), unit_normalize(b)
    while not b.is_zero:
        _, r = divmod_poly(a, b)
        a, b = b, unit_normalize(r)
    return a


# ---------------------------------------------------------------------------
# reduced fractions


class RatFunc:
    """Rational function num/den in v, kept in lowest terms.

    Canonical form: den is monic with nonzero constant term (all unit
    factors, scalars and powers of v, are pushed into num).  The
    denominator is a unit of the Laurent ring exactly when den == 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den=None):
        field = num.field
        if den is None:
            den = LaurentPoly.one(field)
        if den.field != field:
            raise TypeError("mixed coefficient fields")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = LaurentPoly.one(field)
        else:
            g = poly_gcd(num, den)
            if not (g.is_constant and g.coeff(0) == 1):
                num = exact_div(num, g)
                den = exact_div(den, g)
            # push den's unit part (v-power and leading scalar) into num
            k = den.low_degree
            num = num.shift(-k)
            den = den.shift(-k)
            lead = den.leading_coeff
            if lead != 1:
                num = num.scale(field.inv(lead))
                den = den.scale(field.inv(lead))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def is_laurent(self) -> bool:
        return self.den == 1
