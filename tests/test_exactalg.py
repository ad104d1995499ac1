import math
import random
from fractions import Fraction

import pytest

from gsp4weights.exactalg import (
    QQ,
    LaurentPoly,
    PrimeField,
    RatFunc,
    _is_prime,
    divmod_poly,
    exact_div,
    poly_gcd,
    unit_normalize,
)

from oracles import e_valuation, is_prime, laurent_mul, laurent_pow, root_multiplicity, v_power


def v(field=QQ, k=1):
    return v_power(field, k)


def test_rational_field_ops():
    assert QQ.char == 0
    a = QQ.coerce("2/3")
    b = QQ.coerce(5)
    assert a + b == Fraction(17, 3)
    assert a * QQ.inv(a) == 1
    assert not b - b
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.coerce(0))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("x, error", [
    ("1.5", ValueError), (" 2 ", ValueError), ("1e2", ValueError), ("+3", ValueError),
    ("2/", ValueError), ("1/-2", ValueError), ("", ValueError),
    (True, TypeError), (False, TypeError), (1.5, TypeError), (None, TypeError),
], ids=["decimal", "spaces", "exponent", "plus", "no_denominator", "signed_denominator",
        "empty", "true", "false", "float", "none"])
def test_coerce_reads_only_ints_fractions_and_coefficient_strings(field, x, error):
    with pytest.raises(error):
        field.coerce(x)
    with pytest.raises(error):
        LaurentPoly(field, {0: x})


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
@pytest.mark.parametrize("exp", [2.7, True, "2"], ids=["float", "bool", "str"])
def test_exponents_are_ints_and_nothing_read_as_one(field, exp):
    # an exponent of any other type is refused by name, not read as v^int(exp)
    with pytest.raises(TypeError, match="^exponent %s is not an int$" % repr(exp)):
        LaurentPoly(field, {exp: 1})
    with pytest.raises(TypeError, match="^exponent %s is not an int$" % repr(exp)):
        LaurentPoly(field, [(0, 1), (exp, 3)])
    assert LaurentPoly(field, {2: 1, -1: 3}).coeffs == ((-1, 3), (2, 1))


def test_coerce_reads_the_coefficient_grammar():
    assert QQ.coerce("-6/4") == Fraction(-3, 2) and QQ.coerce("07") == 7
    assert PrimeField(5).coerce("3/2") == 4 and PrimeField(5).coerce("-1") == 4
    with pytest.raises(ZeroDivisionError):
        QQ.coerce("1/0")
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).coerce("1/5")


def test_prime_field_ops():
    F = PrimeField(37)
    assert F.char == 37
    assert F.coerce(40) == 3
    assert F.coerce(Fraction(1, 2)) == F.inv(2)
    assert F.coerce(F.coerce(19) * 2) == 1
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10 ** 5) if _is_prime(n) != is_prime(n)] == []


def test_is_prime_past_trial_division():
    # strong pseudoprimes to many small bases; the last passes the first 12
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1)
    assert PrimeField(2 ** 61 - 1).coerce(-1) == 2 ** 61 - 2
    # the least strong pseudoprime to the first 13 primes is refused
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        _is_prime(3317044064679887385961981)


def test_prime_field_distinct_from_rationals():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert PrimeField(5) != QQ


def test_laurent_poly_arithmetic():
    x = v()
    one = LaurentPoly.one(QQ)
    assert (x + one) * (x - one) == x * x - one
    p = 2 * v(QQ, 2) - x + 7
    assert p.coeff(2) == 2 and p.coeff(1) == -1 and p.coeff(0) == 7
    assert p.degree == 2 and p.low_degree == 0


def test_laurent_negative_exponents():
    x = v()
    m = v_power(QQ, -2)
    assert m * x * x == LaurentPoly.one(QQ)
    assert v(QQ, -1).low_degree == -1
    q = x + v(QQ, -1)
    assert q.shift(1) == v(QQ, 2) + LaurentPoly.one(QQ)


def test_prime_field_scalars_are_reduced_on_the_way_in():
    F = PrimeField(37)
    assert LaurentPoly(F, {0: -2}) == LaurentPoly(F, {0: 35})
    assert LaurentPoly(F, {0: -2}).coeffs == ((0, 35),)
    assert LaurentPoly(F, [(1, 40), (1, -3), (2, 74)]).is_zero
    x = v(F)
    assert (x + 1).scale(-2) == LaurentPoly(F, {0: 35, 1: 35})
    assert (x + 1).scale(-2).coeffs == ((0, 35), (1, 35))


def is_canonical(a: LaurentPoly, q: int) -> bool:
    """Strictly increasing exponents and every coefficient an int in [1, q)."""
    exps = [e for e, _ in a.coeffs]
    return (all(x < y for x, y in zip(exps, exps[1:]))
            and all(type(c) is int and 0 < c < q for _, c in a.coeffs))


def random_leaf(F, rng):
    """A polynomial from one of the public constructors, fed raw ints
    outside [0, q), repeated exponents and fraction strings."""
    q = F.char
    kind = rng.randrange(6)
    if kind == 0:
        return LaurentPoly(F, [(rng.randrange(-4, 9), rng.randrange(-3 * q, 3 * q))
                               for _ in range(rng.randrange(8))])
    if kind == 1:
        return LaurentPoly.const(F, rng.randrange(-3 * q, 3 * q))
    if kind == 2:
        return v_power(F, rng.randrange(-4, 5))
    if kind == 3:
        return rng.choice((LaurentPoly.zero(F), LaurentPoly.one(F)))
    cells = {}
    for e in range(rng.randrange(-3, 2), rng.randrange(2, 9)):
        if kind == 4:
            cells[str(e)] = rng.randrange(-3 * q, 3 * q)
        else:
            cells[str(e)] = "%d/%d" % (rng.randrange(-3 * q, 3 * q), rng.randrange(1, q))
    return LaurentPoly.from_coeff_json(F, cells)


def random_expression(F, rng, depth, seen):
    """A seeded random expression tree over F.  Each inner node applies
    every operation to its two subtrees and keeps one result at random;
    all of them are appended to `seen`."""
    if depth == 0 or rng.random() < 0.2:
        seen.append(random_leaf(F, rng))
        return seen[-1]
    a = random_expression(F, rng, depth - 1, seen)
    b = random_expression(F, rng, depth - 1, seen)
    k = rng.randrange(-2 * F.char, 2 * F.char)
    results = (a + b, a - b, a * b, a.scale(k),
               a.shift(rng.randrange(-3, 4)), a.derivative(),
               a.truncate(rng.randrange(-2, 6)), k + a, LaurentPoly.const(F, k) - a,
               a - k, k * a)
    seen.extend(results)
    return rng.choice(results)


@pytest.mark.parametrize("q", [2, 5, 37, 10007])
def test_canonical_form_survives_every_constructor_and_operation(q):
    F = PrimeField(q)
    rng = random.Random(q)
    seen = []
    for _ in range(60):
        random_expression(F, rng, 4, seen)
    assert len(seen) > 2000
    assert all(is_canonical(a, q) for a in seen)


def is_canonical_qq(a: LaurentPoly) -> bool:
    """Strictly increasing exponents, nonzero int numerators, and an int
    denominator den >= 1 with gcd(den, numerators) = 1."""
    exps = [e for e, _ in a.terms]
    return (all(x < y for x, y in zip(exps, exps[1:]))
            and all(type(c) is int and c for _, c in a.terms)
            and type(a.den) is int and a.den >= 1
            and math.gcd(a.den, *(c for _, c in a.terms)) == 1)


def random_ratio(rng):
    return Fraction(rng.randrange(-30, 31), rng.randrange(1, 13))


def random_leaf_qq(rng):
    """A rational polynomial from one of the public constructors, with
    denominators 1 to 12, negative exponents and repeated exponents."""
    kind = rng.randrange(6)
    if kind == 0:
        return LaurentPoly(QQ, [(rng.randrange(-4, 9), random_ratio(rng))
                                for _ in range(rng.randrange(8))])
    if kind == 1:
        return LaurentPoly.const(QQ, rng.choice((random_ratio(rng), rng.randrange(-30, 31))))
    if kind == 2:
        return v_power(QQ, rng.randrange(-4, 5))
    if kind == 3:
        return rng.choice((LaurentPoly.zero(QQ), LaurentPoly.one(QQ)))
    cells = {}
    for e in range(rng.randrange(-3, 2), rng.randrange(2, 9)):
        x, k = random_ratio(rng), rng.randrange(1, 4)  # k: unreduced strings
        a, b = x.numerator * k, x.denominator * k
        cells[str(e)] = x.numerator if kind == 4 else "%d/%d" % (a, b)
    return LaurentPoly.from_coeff_json(QQ, cells)


def model(a: LaurentPoly) -> dict:
    return dict(a.coeffs)


def model_mul(x: dict, y: dict) -> dict:
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def model_add(x: dict, y: dict, sign=1) -> dict:
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def random_expression_qq(rng, depth, seen):
    """A seeded random expression tree over QQ.  Each inner node applies
    every operation to its two subtrees, checks each result against the
    dict-of-Fraction model of the operands' coeffs, and keeps one result
    at random; all of them are appended to `seen`."""
    if depth == 0 or rng.random() < 0.2:
        seen.append(random_leaf_qq(rng))
        return seen[-1]
    a = random_expression_qq(rng, depth - 1, seen)
    b = random_expression_qq(rng, depth - 1, seen)
    ma, mb = model(a), model(b)
    k = rng.choice((random_ratio(rng), rng.randrange(-30, 31)))
    s, t = rng.randrange(-3, 4), rng.randrange(-2, 6)
    cases = (
        (a + b, model_add(ma, mb)),
        (a - b, model_add(ma, mb, -1)),
        (a * b, model_mul(ma, mb)),
        (a.scale(k), {e: c * k for e, c in ma.items()}),
        (a.shift(s), {e + s: c for e, c in ma.items()}),
        (a.derivative(), {e - 1: c * e for e, c in ma.items()}),
        (a.truncate(t), {e: c for e, c in ma.items() if e < t}),
        (k + a, model_add({0: k}, ma)),
        (a + k, model_add(ma, {0: k})),
        (LaurentPoly.const(QQ, k) - a, model_add({0: k}, ma, -1)),
        (a - k, model_add(ma, {0: k}, -1)),
        (k * a, {e: k * c for e, c in ma.items()}),
        (a * k, {e: c * k for e, c in ma.items()}),
    )
    for got, want in cases:
        assert got.coeffs == tuple(sorted((e, Fraction(c)) for e, c in want.items() if c))
        seen.append(got)
    return rng.choice(cases)[0]


def test_rational_canonical_form_survives_every_constructor_and_operation():
    rng = random.Random(0)
    seen = []
    for _ in range(40):
        random_expression_qq(rng, 4, seen)
    assert len(seen) > 2000
    assert all(is_canonical_qq(a) for a in seen)
    assert sum(a.den > 1 for a in seen) > len(seen) // 4
    assert any(e < 0 for a in seen for e, _ in a.terms)
    # polynomials equal in value are equal and hash alike, however built
    by_value = {}
    for a in seen:
        by_value.setdefault(a.coeffs, []).append(a)
    assert sum(len(group) > 1 for group in by_value.values()) > 50
    for group in by_value.values():
        assert all(a == group[0] and hash(a) == hash(group[0]) for a in group)
    x = v()
    half = LaurentPoly.const(QQ, Fraction(1, 2))
    for a, b in [((x * half) * 2, x),
                 (x.scale(Fraction(1, 3)) + x.scale(Fraction(2, 3)), x),
                 (LaurentPoly(QQ, {1: Fraction(2, 4)}),
                  LaurentPoly.from_coeff_json(QQ, {"1": "1/2"})),
                 ((x + half) - x, half), (half - half, LaurentPoly.zero(QQ))]:
        assert a == b and hash(a) == hash(b) and (a.terms, a.den) == (b.terms, b.den)


def random_poly(F, rng, n, low, gap=0.3):
    """Up to n terms from exponent `low` on, each skipped with chance gap."""
    return LaurentPoly(F, {low + k: rng.randrange(1, F.char) for k in range(n)
                           if rng.random() >= gap})


@pytest.mark.parametrize("q", [2, 5, 37, 10007])
def test_kronecker_product_matches_schoolbook(q):
    F = PrimeField(q)
    rng = random.Random(100 + q)
    x, one, zero = v(F), LaurentPoly.one(F), LaurentPoly.zero(F)
    full = LaurentPoly(F, {e: q - 1 for e in range(-7, 33)})  # 40 slots of q - 1
    assert len(full.coeffs) == 40
    cases = [
        (full, full),                                      # the widest slot sums
        (full, LaurentPoly(F, {e: q - 1 for e in range(40, 80)})),
        (full, x - 1),
        (full, zero),
        (zero, zero),
        (v(F, -3), full),                                  # monomial factors
        (LaurentPoly.const(F, q - 1), full),
        (x + 1, x - 1),                                    # the v-term cancels
        (v(F, -2) + v(F, 5), v(F, 3) - v(F, -4)),          # far-apart terms
    ]
    if q < 100:
        # (1 + v)^q = 1 + v^q: every middle coefficient cancels mod q
        frobenius = (laurent_pow(x + 1, q - 1), x + 1)
        assert laurent_mul(*frobenius).coeffs == ((0, 1), (q, 1))
        cases.append(frobenius)
    for _ in range(150):
        a = random_poly(F, rng, rng.randrange(0, 41), rng.randrange(-10, 10))
        b = random_poly(F, rng, rng.randrange(0, 41), rng.randrange(-10, 10))
        cases.append((a, b))
    for a, b in cases:
        want = laurent_mul(a, b)
        assert (a * b).coeffs == want.coeffs and (b * a).coeffs == want.coeffs
        assert is_canonical(a * b, q)


def test_rational_product_matches_schoolbook():
    rng = random.Random(3)
    for _ in range(40):
        a, b = (LaurentPoly(QQ, {rng.randrange(-5, 8): Fraction(rng.randrange(-9, 10),
                                                                rng.randrange(1, 6))
                                 for _ in range(rng.randrange(6))}) for _ in range(2))
        assert a * b == laurent_mul(a, b)
    for m in (2 ** 64, 10 ** 40):
        # numerators of both signs up to m over unequal denominators
        for _ in range(20):
            a, b = (LaurentPoly(QQ, {rng.randrange(-20, 20): Fraction(rng.randrange(-m, m + 1),
                                                                      rng.randrange(1, 10 ** 6))
                                     for _ in range(rng.randrange(2, 12))}) for _ in range(2))
            assert a * b == laurent_mul(a, b)
        # the widest slot sums of both signs: 40 slots of -m times 40 of -m or of m
        for sign in (-1, 1):
            a, b = LaurentPoly(QQ, {e: -m for e in range(40)}), LaurentPoly(
                QQ, {e - 7: sign * m for e in range(40)})
            assert a * b == laurent_mul(a, b)
            assert (a * b).coeff(32) == -sign * 40 * m * m
        # every slot between the ends cancels, through negative slots
        a = LaurentPoly(QQ, {0: -m, 1: m})
        b = LaurentPoly(QQ, {e: m for e in range(30)})
        assert a * b == laurent_mul(a, b) == LaurentPoly(QQ, {0: -m * m, 30: m * m})
    a, b = LaurentPoly(QQ, {0: Fraction(1, 6), 2: Fraction(-5, 4)}), LaurentPoly(
        QQ, {-1: Fraction(3, 10), 1: Fraction(2, 9)})
    assert a * b == laurent_mul(a, b) and (a * b).den == 1080


def test_laurent_derivative():
    x = v()
    p = v(QQ, 3) - 2 * x + 5
    assert p.derivative() == 3 * v(QQ, 2) - 2
    assert v(QQ, -1).derivative() == v(QQ, -2).scale(-1)


def test_laurent_truncate():
    x = v()
    p = v(QQ, 4) + v(QQ, 2) + 1
    assert p.truncate(3) == v(QQ, 2) + 1
    assert p.truncate(10) == p


def test_laurent_display_and_json():
    x = v()
    p = v(QQ, 2) + 3 * x - LaurentPoly.const(QQ, Fraction(1, 2))
    assert p.display() == "v^2 + 3*v - 1/2"
    assert LaurentPoly.from_coeff_json(QQ, {"2": "1", "1": "3", "0": "-1/2"}) == p
    F = PrimeField(5)
    q = v_power(F, -1) + LaurentPoly.const(F, 3)
    assert LaurentPoly.from_coeff_json(F, {"-1": "1", "0": "3"}) == q


def test_from_coeff_json_reads_integers_and_fraction_strings():
    F = PrimeField(5)
    assert LaurentPoly.from_coeff_json(F, {"-1": -2, "2": "6/4"}) == \
        LaurentPoly.from_coeff_json(F, {"-1": "3", "2": "4"})
    assert LaurentPoly.from_coeff_json(QQ, {"0": "-1/2"}) == \
        LaurentPoly.const(QQ, Fraction(-1, 2))


@pytest.mark.parametrize("blob, why", [
    ({"0": True}, 'coefficient true is not an integer or "a/b"'),
    ({"0": 1.5}, 'coefficient 1.5 is not an integer or "a/b"'),
    ({"0": "1.5"}, 'coefficient "1.5" is not an integer or "a/b"'),
    ({"x": 1}, 'exponent "x" is not an integer'),
    ({"01": 1}, 'exponent "01" is not an integer'),
    ({0: 1}, "exponent 0 is not an integer"),
    # all-string cells, read whole when every term is an integer
    ({"1,2": "3"}, 'exponent "1,2" is not an integer'),
    ({"0": "1", "1": "2,3"}, 'coefficient "2,3" is not an integer or "a/b"'),
    ({"0": "1", "-0": "2"}, 'exponent "-0" is not an integer'),
    ({"0": "1_0"}, 'coefficient "1_0" is not an integer or "a/b"'),
    ({"0": " 1"}, 'coefficient " 1" is not an integer or "a/b"'),
    ({"0": "1", "": "2"}, 'exponent "" is not an integer'),
    ({",": "1"}, 'exponent "," is not an integer'),
])
def test_from_coeff_json_rejects_noncanonical_cells(blob, why):
    with pytest.raises(ValueError) as exc:
        LaurentPoly.from_coeff_json(QQ, blob)
    assert str(exc.value) == why


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5), PrimeField(37)],
                         ids=["QQ", "F2", "F5", "F37"])
def test_from_coeff_json_string_cells_match_integer_cells(field):
    # an all-string integer cell is read whole; the same cell with JSON
    # integer coefficients is read term by term
    rng = random.Random(14)
    for _ in range(200):
        exps = rng.sample(range(-12, 13), rng.randint(1, 8))
        coeffs = [rng.choice((0, 1, -1, 36, 37, -74, 10 ** 20, rng.randint(-99, 99)))
                  for _ in exps]
        as_int = dict(zip(map(str, exps), coeffs))
        as_str = {e: rng.choice(("%d", "%03d")) % c for e, c in as_int.items()}
        got = LaurentPoly.from_coeff_json(field, as_str)
        assert got == LaurentPoly.from_coeff_json(field, as_int)
        assert (got.terms, got.den) == (LaurentPoly(field, {int(e): c for e, c in as_int.items()}).terms, 1)


def test_divmod_and_exact_div():
    x = v()
    a = (x + 1) * (v(QQ, 2) + 2)
    q, r = divmod_poly(a, x + 1)
    assert q == v(QQ, 2) + 2 and r.is_zero
    q2, r2 = divmod_poly(a + 1, x + 1)
    assert q2 == v(QQ, 2) + 2 and r2 == LaurentPoly.one(QQ)
    assert exact_div(a, x + 1) == v(QQ, 2) + 2
    assert exact_div(a + 1, x + 1) is None
    # laurent shifts divide out
    assert exact_div(a.shift(-3), (x + 1).shift(2)) == (v(QQ, 2) + 2).shift(-5)


def test_poly_gcd():
    x = v()
    g = poly_gcd((x + 1) * (x + 2), (x + 1) * (x + 3))
    assert g == x + 1
    assert poly_gcd(v(QQ, 2), v(QQ, 5)) == LaurentPoly.one(QQ)  # units stripped
    assert unit_normalize(3 * v(QQ, 2) + 3 * x) == x + 1


def test_root_multiplicity():
    x = v()
    p = laurent_pow(x + 2, 3) * (x - 1)
    assert root_multiplicity(p, QQ.coerce(-2)) == 3
    assert root_multiplicity(p, QQ.coerce(1)) == 1
    assert root_multiplicity(p, QQ.coerce(5)) == 0
    with pytest.raises(ValueError):
        root_multiplicity(p, QQ.coerce(0))


def test_e_valuation_char_zero():
    x = v()
    e = x + 37
    assert e_valuation(e * e * (x + 1), 37) == 2
    assert e_valuation(v(QQ, 5), 37) == 0
    assert e_valuation(LaurentPoly.zero(QQ), 37) is None


def test_e_valuation_char_p():
    F = PrimeField(37)
    x = v(F)
    # v + 37 = v here, so E-valuation is plain v-adic valuation
    assert e_valuation((x + 37) * (x + 37), 37) == 2
    assert e_valuation(v(F, 3) + x, 37) == 1
    assert e_valuation(LaurentPoly.const(F, 4), 37) == 0


def test_ratfunc_cancellation():
    x = v()
    r = RatFunc.make((x * x - 1), (x - 1))
    assert r.is_laurent
    assert r.num == x + 1
    s = RatFunc.make(x, x + 1)
    assert not s.is_laurent
    assert (s.num, s.den) == (x, x + 1)
    assert RatFunc.make(LaurentPoly.zero(QQ), x + 1).den == LaurentPoly.one(QQ)
    # the v-power and the leading scalar of the denominator are units and
    # move into num: 1/(2v(v+1)) has den v + 1; v^2/v is laurent
    t = RatFunc.make(LaurentPoly.one(QQ), 2 * x * (x + 1))
    assert (t.num, t.den) == (LaurentPoly.const(QQ, Fraction(1, 2)) * v(QQ, -1), x + 1)
    assert RatFunc.make(x * x, x).is_laurent
    assert not RatFunc.make(LaurentPoly.one(QQ), x * (x + 1)).is_laurent
