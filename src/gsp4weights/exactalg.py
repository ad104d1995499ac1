"""Exact scalar and Laurent-polynomial arithmetic.

Two coefficient fields are supported: the rationals (characteristic 0,
scalars are ``fractions.Fraction``) and the prime field F_q (scalars are
ints in [0, q)).  Scalar arithmetic is Python operators; a field object
only maps a value into the field (``coerce``) and inverts (``inv``).  A
field takes ints, Fractions and strings "a" or "a/b" of integers, the
grammar of coefficient files; it refuses bools and anything else.

On top of these we build Laurent polynomials in a single variable ``v``,
stored as integer numerators over one positive denominator: over F_q the
numerators are the reduced scalars and the denominator is 1, over the
rationals the denominator has no factor in common with all numerators.
So sums and products over either field are integer arithmetic, with one
gcd over the rationals, and no Fraction is made per term.  A product of
two polynomials of more than one term each, over either field, is one
integer product by Kronecker substitution (Schoenhage 1982; Harvey,
J. Symb. Comp. 2009): ``_pack`` evaluates each factor at v = 2^w and
``_unpack`` reads the product back slot by slot; the local model's 4x4
matrix algebra runs on the same pair.  Everything is exact; division by
zero raises, it never produces a silent junk value.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


# ---------------------------------------------------------------------------
# coefficient fields


# the first 13 primes: as Miller-Rabin bases they decide primality for
# every n below _MR_BOUND (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality; n >= _MR_BOUND raises
    ValueError."""
    if n >= _MR_BOUND:
        raise ValueError("primality is decided only below %d, not for %d" % (_MR_BOUND, n))
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0  # n - 1 = d * 2^s with d odd
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# exponents as str(int) writes them; coefficient strings "a" or "a/b"
_EXPONENT = re.compile(r"0|-?[1-9][0-9]*")
_SCALAR_STR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a whole cell's exponents, and its coefficients when all are integer
# strings, each joined by commas
_EXPONENT_LIST = re.compile(r"(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*")
_INTEGER_LIST = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _exact(x, field):
    """x as an int or a Fraction: an int or a Fraction as it is, a string
    "a" or "a/b" of integers read as one.  A string of any other form
    raises ValueError, a bool or any other type TypeError, and b = 0
    ZeroDivisionError."""
    if isinstance(x, str):
        m = _SCALAR_STR.fullmatch(x)
        if m is None:
            raise ValueError('%s is not an integer or "a/b"' % json.dumps(x))
        return int(m[1]) if m[2] is None else Fraction(int(m[1]), int(m[2]))
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise TypeError("cannot coerce %r into %r" % (x, field))


class RationalField:
    """The field of rational numbers; scalars are Fractions."""

    char = 0

    def coerce(self, x) -> Fraction:
        if type(x) is Fraction:
            return x
        return Fraction(_exact(x, self))

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
        if type(x) is not int:
            x = _exact(x, self)
            if not isinstance(x, int):  # a Fraction
                if x.denominator % self.char == 0:
                    raise ZeroDivisionError(
                        "denominator of %s vanishes mod %d" % (x, self.char))
                return (x.numerator * pow(x.denominator, -1, self.char)) % self.char
        return x % self.char

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

    Canonical form: the polynomial is the sum of (c / den) * v^e over the
    (e, c) pairs of ``terms``, a tuple sorted by increasing exponent with
    integer numerators c, none of them zero, over one denominator
    ``den >= 1``.  Over F_q den is 1 and every numerator is an int in
    [1, q), as the sums and products rely on; over the rationals den and
    the numerators have gcd 1.  So equal polynomials have equal
    (terms, den), and a zero test is the truth value of ``terms``.

    ``coeffs`` is the value view: the (exponent, scalar) pairs, with
    Fraction scalars over the rationals.
    """

    __slots__ = ("field", "terms", "den")

    def __init__(self, field, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        coerce = field.coerce
        acc = {}
        for exp, val in items:
            if type(exp) is not int:  # no float, bool or str read as an int
                raise TypeError("exponent %r is not an int" % (exp,))
            val = coerce(val)
            if exp in acc:
                val = coerce(acc[exp] + val)
            acc[exp] = val
        terms, den = LaurentPoly._integer_form(field, sorted(t for t in acc.items() if t[1]))
        _set_field(self, field)
        _set_terms(self, terms)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors

    @staticmethod
    def _integer_form(field, pairs: list) -> tuple:
        """(terms, den) of sorted (exponent, scalar) pairs with nonzero
        scalars of the field: over the rationals den is the lcm of the
        scalars' denominators, which leaves no factor common to all the
        numerators."""
        if field.char:
            return tuple(pairs), 1
        den = lcm(*(c.denominator for _, c in pairs))
        return tuple([(e, c.numerator * (den // c.denominator)) for e, c in pairs]), den

    @staticmethod
    def _canonical(field, terms: tuple, den: int = 1) -> "LaurentPoly":
        """Trusted constructor: ``terms`` are sorted, with nonzero integer
        numerators reduced mod q over F_q, over any ``den >= 1`` (1 over
        F_q).  The common factor of den and the numerators is divided out."""
        if den != 1:
            g = gcd(den, *(c for _, c in terms))
            if g != 1:
                den //= g
                terms = tuple([(e, c // g) for e, c in terms])
        out = _new(LaurentPoly)
        _set_field(out, field)
        _set_terms(out, terms)
        _set_den(out, den)
        return out

    @staticmethod
    def const(field, x) -> "LaurentPoly":
        x = field.coerce(x)
        terms = [(0, x)] if x else []
        return LaurentPoly._canonical(field, *LaurentPoly._integer_form(field, terms))

    @staticmethod
    def zero(field) -> "LaurentPoly":
        return LaurentPoly(field, ())

    @staticmethod
    def one(field) -> "LaurentPoly":
        return LaurentPoly.const(field, 1)

    # -- inspection

    @property
    def coeffs(self) -> tuple:
        if self.field.char:
            return self.terms
        den = self.den
        return tuple((e, Fraction(c, den)) for e, c in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def low_degree(self):
        """v-adic valuation; None for the zero polynomial."""
        return self.terms[0][0] if self.terms else None

    @property
    def degree(self):
        return self.terms[-1][0] if self.terms else None

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 0)

    def _scalar(self, c):
        """The field scalar of the numerator c."""
        return c if self.field.char else Fraction(c, self.den)

    def coeff(self, exp: int):
        for e, c in self.terms:
            if e == exp:
                return self._scalar(c)
        return self.field.coerce(0)

    @property
    def constant_term(self):
        return self.coeff(0)

    @property
    def leading_coeff(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._scalar(self.terms[-1][1])

    # -- arithmetic

    def _coerce_other(self, other):
        if isinstance(other, LaurentPoly):
            if other.field is not self.field and other.field != self.field:
                raise TypeError("mixed coefficient fields")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(self.field, other)
        return None

    def __add__(self, other):
        return self._merge(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._merge(other, True)

    def _merge(self, other, negate: bool):
        """self + other, or self - other when negate, in one pass over the
        two sorted term tuples, reducing mod q once per exponent; over the
        rationals both sides are first brought to the lcm of their
        denominators."""
        if other.__class__ is not LaurentPoly or other.field is not self.field:
            other = self._coerce_other(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        q = self.field.char
        den = self.den
        if den != other.den:
            g = gcd(den, other.den)
            sa, sb = other.den // g, den // g
            den *= sa
            if sa != 1:
                a = [(e, c * sa) for e, c in a]
            if sb != 1:
                b = [(e, c * sb) for e, c in b]
        out = []
        i, n = 0, len(a)
        for e, c in b:
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
        return LaurentPoly._canonical(self.field, tuple(out), den)

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly or other.field is not self.field:
            other = self._coerce_other(other)
            if other is None:
                return NotImplemented
        f = self.field
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return LaurentPoly._canonical(f, ())
        q = f.char
        if len(b) == 1:  # a monomial factor: a shift and a scale
            (e0, c0), = b
            if q:
                terms = tuple([(e + e0, c * c0 % q) for e, c in a])
            else:
                terms = tuple([(e + e0, c * c0) for e, c in a])
        else:  # Kronecker substitution: a product slot sums len(b) products
            top = (q - 1) ** 2 if q else max(abs(c) for _, c in a) * max(abs(c) for _, c in b)
            w = (len(b) * top).bit_length() + 1
            la, lb = a[0][0], b[0][0]
            slots = a[-1][0] - la + b[-1][0] - lb + 1
            terms = _unpack(_pack(a, la, w) * _pack(b, lb, w), la + lb, slots, w, q)
        return LaurentPoly._canonical(f, terms, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, x) -> "LaurentPoly":
        f = self.field
        x = f.coerce(x)
        if not x:
            return LaurentPoly._canonical(f, ())
        q = f.char
        if q:
            return LaurentPoly._canonical(f, tuple((e, c * x % q) for e, c in self.terms))
        return LaurentPoly._canonical(
            f, tuple((e, c * x.numerator) for e, c in self.terms), self.den * x.denominator)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return LaurentPoly._canonical(
            self.field, tuple([(e + k, c) for e, c in self.terms]), self.den)

    def derivative(self) -> "LaurentPoly":
        q = self.field.char
        terms = ((e - 1, c * e % q if q else c * e) for e, c in self.terms)
        return LaurentPoly._canonical(self.field, tuple(t for t in terms if t[1]), self.den)

    def truncate(self, n: int) -> "LaurentPoly":
        """Drop all terms of exponent >= n."""
        return LaurentPoly._canonical(
            self.field, tuple([t for t in self.terms if t[0] < n]), self.den)

    # -- comparison and display

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(self.field, other)
        return (self.field == other.field and self.terms == other.terms
                and self.den == other.den)

    def __hash__(self):
        return hash((self.field, self.terms, self.den))

    def __bool__(self):
        return bool(self.terms)

    def display(self) -> str:
        if not self.terms:
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

    @staticmethod
    def from_coeff_json(field, obj: dict) -> "LaurentPoly":
        """The polynomial of a JSON object {exponent: scalar}.  An exponent
        is an integer as str(int) writes it; a coefficient is a JSON integer
        or a string "a" or "a/b" of integers.  Anything else raises
        ValueError; a denominator that is 0 or vanishes in the field raises
        ZeroDivisionError."""
        try:
            es, cs = ",".join(obj), ",".join(obj.values())
        except TypeError:  # a JSON integer coefficient, or a non-string key
            es = cs = ""
        n = len(obj) - 1
        # one comma too many means a key or a coefficient holding one
        if (es.count(",") == n == cs.count(",")
                and _EXPONENT_LIST.fullmatch(es) and _INTEGER_LIST.fullmatch(cs)):
            q = field.char
            pairs = zip(map(int, es.split(",")), map(int, cs.split(",")))
            if q:
                pairs = ((e, c % q) for e, c in pairs)
            # integers over 1 are already the integer form over QQ
            return LaurentPoly._canonical(field, tuple(sorted(t for t in pairs if t[1])))
        terms = {}
        for e, c in obj.items():
            if not (isinstance(e, str) and _EXPONENT.fullmatch(e)):
                raise ValueError("exponent %s is not an integer" % json.dumps(e))
            try:
                terms[int(e)] = field.coerce(c)
            except (TypeError, ValueError):
                raise ValueError('coefficient %s is not an integer or "a/b"'
                                 % json.dumps(c)) from None
        return LaurentPoly._canonical(field, *LaurentPoly._integer_form(
            field, sorted(t for t in terms.items() if t[1])))


# __init__ and the trusted constructor set the slots directly, past __setattr__
_new = object.__new__
_set_field, _set_terms, _set_den = (LaurentPoly.__dict__[name].__set__
                                    for name in LaurentPoly.__slots__)


def _pack(terms, low: int, w: int, scale: int = 1) -> int:
    """The value at v = 2^w of scale times the numerators of ``terms``,
    with exponents counted from ``low``."""
    x = 0
    for e, c in terms:
        x += c * scale << (e - low) * w
    return x


def _unpack(z: int, low: int, slots: int, w: int, q: int) -> tuple:
    """The sorted (exponent, numerator) terms, from exponent ``low``, of
    the polynomial with value z at v = 2^w and ``slots`` coefficients in
    (-2^(w-1), 2^(w-1)), which the caller's w must ensure.  A slot of
    2^(w-1) or more is negative and borrows one from the next; over F_q
    (q > 0) each slot is reduced mod q, and zero slots are dropped."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    for e in range(low, low + slots):
        c = z & mask
        z >>= w
        if c >= half:
            c -= mask + 1
            z += 1
        if q:
            c %= q
        if c:
            out.append((e, c))
    assert z == 0, "a packed result overflowed its width bound"
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


class RatFunc(NamedTuple):
    """Rational function num/den in v, in lowest terms as `make` builds it.

    Canonical form: den is monic with nonzero constant term (all unit
    factors, scalars and powers of v, are pushed into num).  The
    denominator is a unit of the Laurent ring exactly when den == 1.
    """

    num: LaurentPoly
    den: LaurentPoly

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        field = num.field
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
        return RatFunc(num, den)

    @property
    def is_laurent(self) -> bool:
        return self.den == 1
