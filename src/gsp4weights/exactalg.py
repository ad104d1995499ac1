"""Exact scalar and Laurent-polynomial arithmetic.

Two coefficient fields are supported: the rationals (characteristic 0,
scalars are ``fractions.Fraction``) and the prime field F_q (scalars are
ints reduced mod q).  On top of these we build Laurent polynomials in a
single variable ``v`` and their fraction field.  Everything is exact;
division by zero raises, it never produces a silent junk value.
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

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def neg(self, x):
        return -x

    def div(self, x, y):
        if y == 0:
            raise ZeroDivisionError("division by zero in the rationals")
        return x / y

    def inv(self, x):
        return self.div(self.one, x)

    def is_zero(self, x) -> bool:
        return x == 0

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

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, x, y):
        return (x + y) % self.char

    def sub(self, x, y):
        return (x - y) % self.char

    def mul(self, x, y):
        return (x * y) % self.char

    def neg(self, x):
        return (-x) % self.char

    def div(self, x, y):
        if y % self.char == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.char)
        return (x * pow(y, -1, self.char)) % self.char

    def inv(self, x):
        return self.div(1, x)

    def is_zero(self, x) -> bool:
        return x % self.char == 0

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
    scalar is an int in [1, q), as the sums and products rely on.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        acc = {}
        for exp, val in items:
            exp = int(exp)
            val = field.coerce(val)
            if exp in acc:
                val = field.add(acc[exp], val)
            acc[exp] = val
        object.__setattr__(self, "field", field)
        object.__setattr__(
            self, "coeffs",
            tuple(sorted((e, c) for e, c in acc.items() if not field.is_zero(c))))

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
        return LaurentPoly(field, {k: field.one})

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
        return self.field.zero

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
        f = self.field
        return LaurentPoly._canonical(f, tuple((e, f.neg(c)) for e, c in self.coeffs))

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
        if len(b) == 1:  # a monomial factor: a shift and a scale
            (e0, c0), = b
            return LaurentPoly._canonical(f, tuple((e + e0, f.mul(c, c0)) for e, c in a))
        q = f.char
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
        return LaurentPoly(f, tuple((e, f.mul(c, x)) for e, c in self.coeffs))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly._canonical(self.field, tuple((e + k, c) for e, c in self.coeffs))

    def derivative(self) -> "LaurentPoly":
        f = self.field
        return LaurentPoly(
            f, tuple((e - 1, f.mul(c, f.coerce(e))) for e, c in self.coeffs if e != 0))

    def truncate(self, n: int) -> "LaurentPoly":
        """Drop all terms of exponent >= n."""
        return LaurentPoly._canonical(
            self.field, tuple((e, c) for e, c in self.coeffs if e < n))

    def evaluate(self, x):
        f = self.field
        x = f.coerce(x)
        out = f.zero
        for e, c in self.coeffs:
            if e < 0:
                out = f.add(out, f.mul(c, f.inv(_scalar_pow(f, x, -e))))
            else:
                out = f.add(out, f.mul(c, _scalar_pow(f, x, e)))
        return out

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
        return LaurentPoly._canonical(
            field, tuple(sorted(t for t in terms.items() if not field.is_zero(t[1]))))


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


def _scalar_pow(field, x, n: int):
    out = field.one
    for _ in range(n):
        out = field.mul(out, x)
    return out


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
    lead = bb.leading_coeff
    while not r.is_zero and r.degree >= db:
        k = r.degree - db
        c = f.div(r.leading_coeff, lead)
        t = LaurentPoly(f, {k: c})
        q = q + t
        r = r - t * bb
    return q.shift(sa - sb), r.shift(sa)


def exact_div(a: LaurentPoly, b: LaurentPoly):
    """a / b when the division is exact in the Laurent ring, else None."""
    q, r = divmod_poly(a, b)
    return q if r.is_zero else None


def unit_normalize(a: LaurentPoly) -> LaurentPoly:
    """Strip the unit part: divide by (trailing coeff) * v^(low degree).

    The result is 0 or a monic-at-the-bottom polynomial with nonzero
    constant term; it generates the same ideal of the Laurent ring.
    """
    if a.is_zero:
        return a
    out = a.shift(-a.low_degree)
    # normalize by the leading coefficient so poly_gcd output is canonical
    return out.scale(a.field.inv(out.leading_coeff))


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd in the Laurent ring, canonical up to the unit normalization."""
    a, b = unit_normalize(a), unit_normalize(b)
    while not b.is_zero:
        _, r = divmod_poly(a, b)
        a, b = b, unit_normalize(r)
    return a


# ---------------------------------------------------------------------------
# fraction field


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
            if not (g.is_constant and g.coeff(0) == field.one):
                num = exact_div(num, g)
                den = exact_div(den, g)
            # push den's unit part (v-power and leading scalar) into num
            k = den.low_degree
            num = num.shift(-k)
            den = den.shift(-k)
            lead = den.leading_coeff
            if lead != field.one:
                num = num.scale(field.inv(lead))
                den = den.scale(field.inv(lead))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def field(self):
        return self.num.field

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_laurent(self) -> bool:
        return self.den == LaurentPoly.one(self.field)

    def as_laurent(self) -> LaurentPoly:
        if not self.is_laurent:
            raise ValueError("denominator %s is not a unit" % self.den.display())
        return self.num

    def _coerce_other(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                raise TypeError("mixed coefficient fields")
            return other
        if isinstance(other, LaurentPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc(LaurentPoly.const(self.field, other))
        return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = self._coerce_other(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def display(self) -> str:
        if self.is_laurent:
            return self.num.display()
        return "(%s) / (%s)" % (self.num.display(), self.den.display())

    def __repr__(self):
        return "RatFunc(%s)" % self.display()
