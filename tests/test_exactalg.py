from fractions import Fraction

import pytest

from gsp4weights.exactalg import (
    QQ,
    LaurentPoly,
    PrimeField,
    RatFunc,
    divmod_poly,
    exact_div,
    poly_gcd,
    unit_normalize,
)

from oracles import e_valuation, root_multiplicity


def v(field=QQ):
    return LaurentPoly.v_power(field, 1)


def test_rational_field_ops():
    assert QQ.char == 0
    a = QQ.coerce("2/3")
    b = QQ.coerce(5)
    assert QQ.add(a, b) == Fraction(17, 3)
    assert QQ.mul(a, QQ.inv(a)) == QQ.one
    assert QQ.is_zero(QQ.sub(b, b))
    with pytest.raises(ZeroDivisionError):
        QQ.div(a, QQ.zero)


def test_prime_field_ops():
    F = PrimeField(37)
    assert F.char == 37
    assert F.coerce(40) == 3
    assert F.coerce(Fraction(1, 2)) == F.inv(2)
    assert F.mul(F.coerce(19), 2) == 1
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_distinct_from_rationals():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert PrimeField(5) != QQ


def test_laurent_poly_arithmetic():
    x = v()
    one = LaurentPoly.one(QQ)
    assert (x + one) * (x - one) == x * x - one
    assert (x + one) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + one
    p = 2 * x ** 2 - x + 7
    assert p.coeff(2) == 2 and p.coeff(1) == -1 and p.coeff(0) == 7
    assert p.degree == 2 and p.low_degree == 0
    assert (-p) + p == LaurentPoly.zero(QQ)


def test_laurent_negative_exponents():
    x = v()
    m = LaurentPoly.v_power(QQ, -2)
    assert m * x ** 2 == LaurentPoly.one(QQ)
    assert (x ** -1).low_degree == -1
    q = x + x ** -1
    assert q.shift(1) == x ** 2 + LaurentPoly.one(QQ)
    with pytest.raises(ValueError):
        q ** -1  # only monomials invert


def test_laurent_derivative_and_evaluate():
    x = v()
    p = x ** 3 - 2 * x + 5
    assert p.derivative() == 3 * x ** 2 - 2
    assert p.evaluate(QQ.coerce(2)) == Fraction(9)
    assert (x ** -1).derivative() == -(x ** -2)


def test_laurent_truncate():
    x = v()
    p = x ** 4 + x ** 2 + 1
    assert p.truncate(3) == x ** 2 + 1
    assert p.truncate(10) == p


def test_laurent_display_and_json():
    x = v()
    p = x ** 2 + 3 * x - LaurentPoly.const(QQ, Fraction(1, 2))
    assert p.display() == "v^2 + 3*v - 1/2"
    blob = p.to_coeff_json()
    assert LaurentPoly.from_coeff_json(QQ, blob) == p
    F = PrimeField(5)
    q = LaurentPoly.v_power(F, -1) + LaurentPoly.const(F, 3)
    assert LaurentPoly.from_coeff_json(F, q.to_coeff_json()) == q


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
])
def test_from_coeff_json_rejects_noncanonical_cells(blob, why):
    with pytest.raises(ValueError) as exc:
        LaurentPoly.from_coeff_json(QQ, blob)
    assert str(exc.value) == why


def test_divmod_and_exact_div():
    x = v()
    a = (x + 1) * (x ** 2 + 2)
    q, r = divmod_poly(a, x + 1)
    assert q == x ** 2 + 2 and r.is_zero
    q2, r2 = divmod_poly(a + 1, x + 1)
    assert q2 == x ** 2 + 2 and r2 == LaurentPoly.one(QQ)
    assert exact_div(a, x + 1) == x ** 2 + 2
    assert exact_div(a + 1, x + 1) is None
    # laurent shifts divide out
    assert exact_div(a.shift(-3), (x + 1).shift(2)) == (x ** 2 + 2).shift(-5)


def test_poly_gcd():
    x = v()
    g = poly_gcd((x + 1) * (x + 2), (x + 1) * (x + 3))
    assert g == x + 1
    assert poly_gcd(x ** 2, x ** 5) == LaurentPoly.one(QQ)  # units stripped
    assert unit_normalize(3 * x ** 2 + 3 * x) == x + 1


def test_root_multiplicity():
    x = v()
    p = (x + 2) ** 3 * (x - 1)
    assert root_multiplicity(p, QQ.coerce(-2)) == 3
    assert root_multiplicity(p, QQ.coerce(1)) == 1
    assert root_multiplicity(p, QQ.coerce(5)) == 0
    with pytest.raises(ValueError):
        root_multiplicity(p, QQ.zero)


def test_e_valuation_char_zero():
    x = v()
    e = x + 37
    assert e_valuation(e ** 2 * (x + 1), 37) == 2
    assert e_valuation(x ** 5, 37) == 0
    assert e_valuation(LaurentPoly.zero(QQ), 37) is None


def test_e_valuation_char_p():
    F = PrimeField(37)
    x = v(F)
    # v + 37 = v here, so E-valuation is plain v-adic valuation
    assert e_valuation((x + 37) ** 2, 37) == 2
    assert e_valuation(x ** 3 + x, 37) == 1
    assert e_valuation(LaurentPoly.const(F, 4), 37) == 0


def test_ratfunc_cancellation():
    x = v()
    r = RatFunc((x ** 2 - 1), (x - 1))
    assert r.is_laurent
    assert r.as_laurent() == x + 1
    s = RatFunc(x, x + 1)
    assert not s.is_laurent
    assert s + RatFunc(LaurentPoly.one(QQ), x + 1) == RatFunc(LaurentPoly.one(QQ))


def test_ratfunc_arithmetic():
    x = v()
    a = RatFunc(LaurentPoly.one(QQ), x + 1)
    b = RatFunc(LaurentPoly.one(QQ), x + 2)
    s = a * b / (a + b)
    # 1/((x+1)+(x+2)) = 1/(2x+3)
    assert s == RatFunc(LaurentPoly.one(QQ), 2 * x + 3)
    assert a - a == RatFunc(LaurentPoly.zero(QQ))
    # denominators with v-power units are units: 1/(v(v+1)) is not laurent,
    # but v^2/v is
    assert RatFunc(x ** 2, x).is_laurent
    assert not RatFunc(LaurentPoly.one(QQ), x * (x + 1)).is_laurent
