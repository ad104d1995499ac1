import os
import random
from collections import Counter
from fractions import Fraction

import pytest

import oracles

from gsp4weights import localmodel
from gsp4weights.base import (
    ETA,
    W_ALL,
    W_E,
    W_S1,
    W_S2,
    Weight,
    std_character,
    weyl_from_word,
    weyl_mul,
)
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    IDENTITY,
    W0,
    alcove_of,
    bruhat_lower_interval,
    compose,
    compose_all,
    dual_length,
    finite,
    invert,
    omega_part,
    restricted_alcove_index,
    star,
    translation,
)
from gsp4weights.admissible import adm_dual_set, adm_set, elem_sort_key
from gsp4weights.cli import load_matrix
from gsp4weights.weights import enumerate_ap_prime
from gsp4weights.exactalg import QQ, LaurentPoly, PrimeField
from gsp4weights.localmodel import (
    MonodromyParams,
    PolyMat,
    RegColOneParams,
    build_regcolone_matrix,
    dominance_leq,
    e_divisor_pattern,
    e_poly,
    fixed_point_set_T,
    fixed_point_set_colone,
    monodromy_defect,
    monodromy_params_of,
    monomial_matrix,
    regcolone_coordinates,
    regcolone_relation_holds,
    shape_of,
    symplectic_similitude,
    weyl_matrix,
)

from crosschecks import is_generic, monodromy_act, random_iwahori

P = 37
A_GENERIC = (110, 66, 42)   # root values (7, 16, 23, 30) mod 37


def unit_inverse(A):
    """The inverse of a matrix whose determinant is a monomial."""
    return oracles.mat_scale(A.adjugate(), oracles.laurent_pow(A.det(), -1))


def diag_mat(field, exps):
    zero = LaurentPoly.zero(field)
    return PolyMat.make(field, [[oracles.v_power(field, exps[i]) if i == j
                                 else zero for j in range(4)] for i in range(4)])


def solved_params(field=QQ, c00=3, c21=5, c13=2, c31=7, a=A_GENERIC):
    return RegColOneParams.solved(field, P, c00=c00, c21=c21, c13=c13,
                                  c31=c31, a=a)


# ---------------------------------------------------------------------------
# matrices of Weyl and extended affine elements


def test_weyl_matrices_preserve_form():
    J = oracles.j_matrix(QQ)
    for w in W_ALL:
        M = weyl_matrix(w, QQ)
        assert oracles.transpose(M) * J * M == J


def test_weyl_matrix_conjugates_torus_characters():
    # w diag(v^t) w^-1 = diag(v^(w t)) pins the generator assignment
    for w in W_ALL:
        for t in ((1, 2, 3, 4), (0, 1, -1, 2)):
            a = t[0] - t[3]
            b = t[1] - t[3]
            c = t[3]
            assert std_character(Weight(a - c + c, 0, 0)) is not None  # shape
    s1 = weyl_matrix(W_S1, QQ)
    d = diag_mat(QQ, (4, 3, 2, 1))
    left = s1 * d * unit_inverse(s1)
    # s1 swaps the middle character exponents
    assert left == diag_mat(QQ, (4, 2, 3, 1))
    s2 = weyl_matrix(W_S2, QQ)
    left2 = s2 * d * unit_inverse(s2)
    # s2 swaps the outer pairs
    assert left2 == diag_mat(QQ, (3, 4, 1, 2))


def test_monomial_matrix_of_translation():
    M = monomial_matrix(translation(ETA), QQ)
    assert M == diag_mat(QQ, std_character(ETA))
    assert M.det() == oracles.v_power(QQ, 6)


def test_monomial_matrix_multiplicative():
    rng = random.Random(3)
    elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
    for _ in range(12):
        x = rng.choice(elems)
        y = rng.choice(elems)
        lhs = monomial_matrix(compose(x, y), QQ)
        rhs = monomial_matrix(x, QQ) * monomial_matrix(y, QQ)
        # the section is multiplicative up to a sign-diagonal torus element
        q = lhs * unit_inverse(rhs)
        for i in range(4):
            for j in range(4):
                e = q.rows[i][j]
                if i == j:
                    assert e == LaurentPoly.one(QQ) or e == LaurentPoly.const(QQ, -1)
                else:
                    assert e.is_zero


def test_monomial_matrices_are_similitudes():
    for z in sorted(adm_dual_set(ETA), key=elem_sort_key):
        res = symplectic_similitude(monomial_matrix(z, QQ), P)
        assert res.ok
        assert res.v_order == 3  # similitude exponent of eta-admissibles
        assert res.e_order == 0 and res.unit_form


def test_polymat_json_roundtrip():
    M = monomial_matrix(star(translation(ETA)), QQ)
    blob = [[{"coeffs": {str(e): str(c) for e, c in x.coeffs}} for x in row] for row in M.rows]
    assert PolyMat.from_json_obj(QQ, blob) == M


# ---------------------------------------------------------------------------
# the 2x2-minor kernel behind det, adjugate and the similitude form


def random_entry(field, rng):
    q = field.char or 7
    return LaurentPoly(field, {e: rng.randrange(-q, q) for e in range(-2, 4)
                               if rng.random() < 0.5})


def minor_kernel_cases(field, rng):
    """Seeded 4x4 matrices: similitudes (Iwahori sandwiches over F_q,
    family draws over Q), each also with one random entry perturbed,
    random matrices, and singular ones."""
    if field.char:
        elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
        sims = [oracles.mat_scale(random_iwahori(field, rng) * monomial_matrix(rng.choice(elems), field)
                                  * random_iwahori(field, rng), oracles.v_power(field, -rng.randrange(3)))
                for _ in range(10)]
    else:
        sims = family_draws(field, rng, 10)
    perturbed = []
    for A in sims:
        rows = [list(r) for r in A.rows]
        i, j = rng.randrange(4), rng.randrange(4)
        rows[i][j] = rows[i][j] + oracles.v_power(field, rng.randrange(-1, 3))
        perturbed.append(PolyMat.make(field, rows))
    zero, v = LaurentPoly.zero(field), oracles.v_power(field, 1)
    for k in (1, 2):
        # column 3 plus v times column k: the form first fails at (3 - k, 3)
        perturbed.append(PolyMat.make(field, [r[:3] + (r[3] + r[k] * v,) for r in sims[k].rows]))
    randoms = [PolyMat.make(field, [[random_entry(field, rng) for _ in range(4)] for _ in range(4)])
               for _ in range(10)]
    singular = [PolyMat.make(field, [[zero] * 4] * 4),
                PolyMat.make(field, [[v if (i, j) in ((0, 3), (1, 2)) else zero for j in range(4)]
                                     for i in range(4)])]
    for A in sims[:3] + randoms[:3]:
        rows = [list(r) for r in A.rows]
        rows[3] = [a * v + b.scale(2) for a, b in zip(rows[1], rows[0])]
        singular.append(PolyMat.make(field, rows))
        singular.append(PolyMat.make(field, [r[:2] + (zero,) + r[3:] for r in A.rows]))
    return sims + perturbed + randoms + singular


@pytest.mark.parametrize("field", [QQ, PrimeField(5), PrimeField(P)], ids=["QQ", "F5", "F37"])
def test_minor_kernel_matches_cofactor_oracles(field):
    failed_at = set()
    n_singular = 0
    for A in minor_kernel_cases(field, random.Random(60 + field.char)):
        det = A.det()
        assert det == oracles.minor_det([list(r) for r in A.rows])
        assert A.adjugate() == oracles.cofactor_adjugate(A)
        form = localmodel._form_scalar(A)
        assert form == oracles.similitude_form(A)
        failed_at.add(form[1])
        n_singular += det.is_zero
    assert n_singular == 14
    # similitudes pass, and non-similitudes fail at several first entries
    assert {None, (0, 1), (1, 2), (1, 3), (2, 3)} <= failed_at


# the packed evaluation: the same minor formulas on the polynomial entries,
# and the cofactor and full-product oracles


def assert_packed_kernel_matches(A):
    rows = A.rows
    det = A.det()
    assert det == localmodel._det(rows) == oracles.minor_det([list(r) for r in rows])
    adj = A.adjugate()
    # _adjugate negates cofactors with unary minus, which LaurentPoly does
    # not define, so it runs on the packed ints only
    assert adj == oracles.cofactor_adjugate(A)
    form = localmodel._form_scalar(A)
    assert form == oracles.similitude_form(A)
    for B in (A, oracles.transpose(A)):
        assert A * B == oracles.matmul(A, B)
    if form[1] is None:
        m03, m12 = localmodel._minors(rows[0], rows[3]), localmodel._minors(rows[1], rows[2])
        assert form[0] == m03[0, 3] + m12[0, 3]
    return det, form


FIELDS = (QQ, PrimeField(2), PrimeField(5), PrimeField(P))
FIELD_IDS = ("QQ", "F2", "F5", "F37")


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_packed_kernel_on_the_zero_matrix_and_single_entries(field):
    zero = LaurentPoly.zero(field)
    det, form = assert_packed_kernel_matches(PolyMat.make(field, [[zero] * 4] * 4))
    assert det.is_zero and form == (zero, None)
    entry = LaurentPoly(field, {-2: 3, 7: 1})
    for i in range(4):
        for j in range(4):
            A = PolyMat.make(field, [[entry if (r, c) == (i, j) else zero for c in range(4)]
                                     for r in range(4)])
            # every 2 x 2 minor has a zero factor in each product
            assert assert_packed_kernel_matches(A) == (zero, (zero, None))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_packed_kernel_on_sparse_entries_from_v_minus_40_to_v_40(field):
    rng = random.Random(140 + field.char)
    q = field.char or 1000
    for n in range(12):
        cells = [[LaurentPoly(field, {rng.randrange(-40, 41): rng.randrange(-q, q)
                                      for _ in range(rng.randrange(3))})
                  for _ in range(4)] for _ in range(4)]
        cells[n % 4][0] = LaurentPoly(field, {-40: 1, 40: -1})
        assert_packed_kernel_matches(PolyMat.make(field, cells))


@pytest.mark.parametrize("q", (2, 5, 37))
def test_packed_kernel_with_every_coefficient_q_minus_1(q):
    # the width bound's worst case over F_q: every numerator is q - 1
    F = PrimeField(q)
    rng = random.Random(240 + q)
    span = range(-3, 7)
    full = LaurentPoly(F, {k: q - 1 for k in span})
    assert_packed_kernel_matches(PolyMat.make(F, [[full] * 4] * 4))
    for _ in range(8):
        cells = [[LaurentPoly(F, {k: q - 1 for k in span if rng.random() < 0.7})
                  for _ in range(4)] for _ in range(4)]
        cells[rng.randrange(4)][rng.randrange(4)] = full
        assert_packed_kernel_matches(PolyMat.make(F, cells))


def test_packed_kernel_on_huge_numerators_over_distinct_denominators():
    rng = random.Random(300)
    big = 10 ** 30
    for n in range(6):
        dens = rng.sample(range(2, 200), 16)
        cells = [[LaurentPoly(QQ, {k: Fraction(rng.choice((big, -big)) + rng.randrange(-99, 100),
                                               dens[4 * i + j])
                                   for k in range(-1 - n % 2, 2 + n % 3)})
                  for j in range(4)] for i in range(4)]
        assert_packed_kernel_matches(PolyMat.make(QQ, cells))
        # a similitude with the same entry sizes: the form passes
        sim = oracles.mat_scale(monomial_matrix(star(translation(ETA)), QQ), cells[0][0])
        assert localmodel._form_scalar(sim)[1] is None
        assert_packed_kernel_matches(sim)


def test_packed_kernel_on_adm_monomials_and_iwahori_sandwiches():
    elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
    assert len(elems) == 63
    for field in (QQ, PrimeField(5), PrimeField(P)):
        for z in elems:
            det, form = assert_packed_kernel_matches(monomial_matrix(z, field))
            assert det.is_monomial and form[1] is None
    for q in (5, P):
        F = PrimeField(q)
        rng = random.Random(q)
        for i in range(12):
            A = oracles.mat_scale(random_iwahori(F, rng) * monomial_matrix(rng.choice(elems), F)
                                  * random_iwahori(F, rng), oracles.v_power(F, -(i % 3)))
            det, form = assert_packed_kernel_matches(A)
            assert form[1] is None and det.low_degree == 2 * form[0].low_degree


def test_packed_result_beyond_its_slots_fails_loudly():
    A = monomial_matrix(star(translation(ETA)), PrimeField(5))
    packed = localmodel._Packed(A.rows, 24, 4)
    assert packed.poly(localmodel._det(packed.rows)) == A.det()
    with pytest.raises(AssertionError, match="width bound"):
        packed.poly(1 << packed.w * packed.slots)


# ---------------------------------------------------------------------------
# similitude checks


def test_similitude_identity_and_failure():
    assert symplectic_similitude(oracles.identity(QQ), P).ok
    one = LaurentPoly.one(QQ)
    zero = LaurentPoly.zero(QQ)
    rows = [[one if i == j else zero for j in range(4)] for i in range(4)]
    rows[0][1] = one  # unbalanced root direction breaks the form
    res = symplectic_similitude(PolyMat.make(QQ, rows), P)
    assert not res.ok and res.failed_entry is not None


def test_similitude_of_iwahori_elements():
    F = PrimeField(P)
    rng = random.Random(5)
    for _ in range(10):
        i = random_iwahori(F, rng)
        res = symplectic_similitude(i, P)
        assert res.ok and res.v_order == 0 and res.e_order == 0
        assert res.unit_form


def test_similitude_singular_raises():
    zero = LaurentPoly.zero(QQ)
    with pytest.raises(ValueError):
        symplectic_similitude(PolyMat.make(QQ, [[zero] * 4] * 4), P)


def test_similitude_and_divisors_refuse_a_field_of_another_characteristic():
    # over F_5, v + 37 is v + 2, not the v that the E-adic functions read
    # as E there, so they refuse p = 37 rather than answer for another E
    draw = (3, 5, 2, 7, 1, 4, 6)
    F = PrimeField(P)
    mat = build_regcolone_matrix(RegColOneParams.admissible(F, P, *draw), P)
    assert symplectic_similitude(mat, P).unit_form
    assert e_divisor_pattern(mat, P) == (3, 2, 1, 0)
    F5 = PrimeField(5)
    mat5 = build_regcolone_matrix(RegColOneParams.admissible(F5, P, *draw), P)
    with pytest.raises(ValueError):
        e_poly(F5, P)
    with pytest.raises(ValueError):
        e_divisor_pattern(mat5, P)
    with pytest.raises(ValueError):
        symplectic_similitude(mat5, P)
    assert e_poly(F5, 5) == oracles.v_power(F5, 1)


def test_e_adic_functions_refuse_p_zero_before_any_work():
    # over the rationals E(v) = v + 0 has the root 0, where v is not a
    # unit: all three refuse p = 0 with one message, first, so a singular
    # matrix that fails the form check is refused for its p and not for
    # its determinant
    zero, one = LaurentPoly.zero(QQ), LaurentPoly.one(QQ)
    singular = PolyMat.make(QQ, [[one if i == j < 3 else zero for j in range(4)]
                                 for i in range(4)])
    message = r"E\(v\) = v \+ p needs p != 0 over the rationals"
    with pytest.raises(ValueError, match=message):
        e_poly(QQ, 0)
    for fn in (symplectic_similitude, e_divisor_pattern):
        for A in (singular, oracles.identity(QQ)):
            with pytest.raises(ValueError, match=message):
                fn(A, 0)
        with pytest.raises(ValueError, match="matrix is singular"):
            fn(singular, P)
    with pytest.raises(ValueError, match="characteristic 0 or 0"):
        e_poly(PrimeField(5), 0)


@pytest.mark.parametrize("fn", [symplectic_similitude, e_divisor_pattern, monodromy_defect])
@pytest.mark.parametrize("field, p, message", [
    (QQ, 0, r"E\(v\) = v \+ p needs p != 0 over the rationals"),
    (PrimeField(5), P, r"E\(v\) = v \+ 37 needs characteristic 0 or 37, not GF\(5\)"),
], ids=["QQ-p0", "F5-p37"])
def test_e_adic_matrix_functions_refuse_a_bad_p_before_the_determinant(fn, field, p, message):
    # the zero matrix is singular, but each function checks p first
    zero = PolyMat.make(field, [[0] * 4] * 4)
    arg = MonodromyParams.make(field, 1, 2, 3, p) if fn is monodromy_defect else p
    with pytest.raises(ValueError, match=message):
        fn(zero, arg)


def test_make_refuses_what_no_matrix_is():
    F5 = PrimeField(5)
    one = LaurentPoly.one(QQ)
    with pytest.raises(ValueError, match="PolyMat needs a 4x4 entry array"):
        PolyMat.make(QQ, [[one] * 4] * 3)
    with pytest.raises(ValueError, match="PolyMat needs a 4x4 entry array"):
        PolyMat.make(QQ, [[one] * 4] * 3 + [[one] * 5])
    with pytest.raises(TypeError, match="entry field mismatch"):
        PolyMat.make(F5, [[one] * 4] * 4)
    with pytest.raises(TypeError, match="as a matrix entry"):
        PolyMat.make(QQ, [[one] * 3 + [1.5]] * 4)
    # ints and Fractions are constants of the field
    assert PolyMat.make(F5, [[Fraction(1, 2) if i == j else 0 for j in range(4)]
                             for i in range(4)]) == oracles.mat_scale(oracles.identity(F5), 3)


# ---------------------------------------------------------------------------
# elementary divisor patterns


def test_e_divisor_diag_examples():
    E = e_poly(QQ, P)
    zero = LaurentPoly.zero(QQ)
    rows = [[zero] * 4 for _ in range(4)]
    for i, k in enumerate((3, 2, 1, 0)):
        rows[i][i] = oracles.laurent_pow(E, k)
    assert e_divisor_pattern(PolyMat.make(QQ, rows), P) == (3, 2, 1, 0)
    assert e_divisor_pattern(oracles.identity(QQ), P) == (0, 0, 0, 0)


def test_e_divisor_of_monomials():
    # translation monomials realize the sorted character exponents
    for nu in (ETA, Weight(1, 1, 0), Weight(2, 2, -1)):
        M = monomial_matrix(translation(nu), PrimeField(P))
        pat = e_divisor_pattern(M, P)
        assert pat == tuple(sorted(std_character(nu), reverse=True))


def test_e_divisor_iwahori_invariance():
    F = PrimeField(5)
    rng = random.Random(9)
    elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
    for _ in range(6):
        z = rng.choice(elems)
        M = monomial_matrix(z, F)
        base = e_divisor_pattern(M, 5)
        i1 = random_iwahori(F, rng)
        i2 = random_iwahori(F, rng)
        assert e_divisor_pattern(i1 * M * i2, 5) == base


def test_dominance_order():
    assert dominance_leq((2, 2, 1, 1), (3, 2, 1, 0))
    assert not dominance_leq((3, 2, 1, 0), (2, 2, 1, 1))
    assert dominance_leq((3, 2, 1, 0), (3, 2, 1, 0))
    assert not dominance_leq((3, 3, 0, 0), (3, 2, 1, 0))


# ---------------------------------------------------------------------------
# shapes


def test_shape_of_monomials():
    F = PrimeField(P)
    for z in sorted(adm_dual_set(ETA), key=elem_sort_key):
        assert shape_of(monomial_matrix(z, F)) == z


def test_shape_sandwich():
    rng = random.Random(21)
    elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
    for q in (5, 37):
        F = PrimeField(q)
        for _ in range(25):
            z = rng.choice(elems)
            M = random_iwahori(F, rng) * monomial_matrix(z, F) * random_iwahori(F, rng)
            assert shape_of(M) == z


def test_shape_sandwich_at_a_larger_lambda():
    # every element of Adm(6, 3, 0), 523 by the size polynomial, is the
    # shape of its monomial matrix between two seeded Iwahori elements
    F = PrimeField(P)
    rng = random.Random(0)
    elems = adm_set(Weight(6, 3, 0)).order
    assert len(elems) == 523
    for x in elems:
        M = random_iwahori(F, rng) * monomial_matrix(x, F) * random_iwahori(F, rng)
        assert shape_of(M) == x, x


def test_shape_sandwich_at_lambda_40_15_0(monkeypatch):
    # the 4 longest elements of Adm(40, 15, 0) and a seeded sample of 16
    # more, between seeded Iwahori elements over F_37: the kernel runs at
    # precisions up to 111 there, against 3 or 7 on Adm(eta).  Each
    # sandwich has its shape, and the E-divisors of M(x).
    precs = []
    real = localmodel._local_pivots
    monkeypatch.setattr(localmodel, "_local_pivots",
                        lambda rows, k, prec: precs.append(prec) or real(rows, k, prec))
    F = PrimeField(P)
    rng = random.Random(40)
    elems = sorted(adm_set(Weight(40, 15, 0)).order, key=elem_sort_key)
    assert len(elems) == 20731
    for n, x in enumerate(elems[-4:] + rng.sample(elems[:-4], 16)):
        M = random_iwahori(F, rng) * monomial_matrix(x, F) * random_iwahori(F, rng)
        assert shape_of(M) == x, x
        assert e_divisor_pattern(M, P) == e_divisor_pattern(monomial_matrix(x, F), P)
        if n % 5 == 0:
            assert oracles.shape_of(M) == x
            assert oracles.e_divisor_pattern(M, P) == e_divisor_pattern(M, P)
    assert max(precs) == 111


def test_shape_central_shift():
    F = PrimeField(5)
    z = star(translation(ETA))
    M = monomial_matrix(z, F)
    shifted = oracles.mat_scale(M, oracles.v_power(F, 2))
    assert shape_of(shifted) == compose(translation(Weight(0, 0, 2)), z)
    # negative exponents exercise the normalization path
    lowered = oracles.mat_scale(M, oracles.v_power(F, -1))
    assert shape_of(lowered) == compose(translation(Weight(0, 0, -1)), z)


def test_central_shift_by_a_large_power_of_v(monkeypatch):
    # v^E is central, so shape(v^E A) = t(0,0,E) shape(A); over F_p each
    # E-divisor of v^E A is E plus that of A, and over Q, where v is a unit
    # at E, the pattern stays.  The least valuation of the entries is
    # divided out first, so the kernel runs at A's own precision for every
    # E, dense units included.
    precs = []
    real = localmodel._local_pivots
    monkeypatch.setattr(localmodel, "_local_pivots",
                        lambda rows, k, prec: precs.append(prec) or real(rows, k, prec))
    F = PrimeField(P)
    mat1 = load_matrix(os.path.join(os.path.dirname(__file__), "..", "fixtures", "mat1.json"), F)
    elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
    rng = random.Random(24)
    sandwich = random_iwahori(F, rng) * monomial_matrix(rng.choice(elems), F) * random_iwahori(F, rng)
    family = family_draws(QQ, random.Random(24), 1)[0]
    cases = ([(10 ** 4, A) for A in [mat1] + [monomial_matrix(z, F) for z in elems[::21]]]
             + [(E, sandwich) for E in (1, 400)])
    for E, A in cases:
        del precs[:]
        shape, pattern = shape_of(A), e_divisor_pattern(A, P)
        unscaled = list(precs)
        shifted = oracles.mat_scale(A, oracles.v_power(F, E))
        assert shape_of(shifted) == compose(translation(Weight(0, 0, E)), shape)
        assert e_divisor_pattern(shifted, P) == tuple(d + E for d in pattern)
        assert precs == unscaled * 2
    assert shape_of(oracles.mat_scale(mat1, oracles.v_power(F, 10 ** 4))).display() == "t(1,0,10001)*s2s1s2"
    del precs[:]
    pattern = e_divisor_pattern(family, P)
    for E in (1, 400):
        assert e_divisor_pattern(oracles.mat_scale(family, oracles.v_power(QQ, E)), P) == pattern
    assert precs == precs[:1] * 3


def test_the_kernel_makes_no_laurent_polynomial(monkeypatch):
    # the local elimination kernel works on packed integer rows: inside
    # _local_pivots no LaurentPoly is made, multiplied, subtracted or
    # shifted.  The oracle's elimination on LaurentPoly entries, counted
    # the same way, shows that the counters see such calls.
    inside, calls = [False], Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name, inside[0]] += 1
            return fn(*args)
        return wrapper

    def counted_inside(fn):
        def wrapper(*args):
            inside[0] = True
            try:
                return fn(*args)
            finally:
                inside[0] = False
        return wrapper

    names = ("_canonical", "__mul__", "__sub__", "shift")
    for name in names:
        fn = counted(name, getattr(LaurentPoly, name))
        monkeypatch.setattr(LaurentPoly, name, staticmethod(fn) if name == "_canonical" else fn)
    monkeypatch.setattr(localmodel, "_local_pivots", counted_inside(localmodel._local_pivots))
    F = PrimeField(P)
    rng = random.Random(7)
    mat1 = load_matrix(os.path.join(os.path.dirname(__file__), "..", "fixtures", "mat1.json"), F)
    z = rng.choice(sorted(adm_dual_set(ETA), key=elem_sort_key))
    sandwich = random_iwahori(F, rng) * monomial_matrix(z, F) * random_iwahori(F, rng)
    for A in (mat1, sandwich):
        shape_of(A)
        e_divisor_pattern(A, P)
    for field in (QQ, F):
        e_divisor_pattern(family_draws(field, rng, 1)[0], P)
    assert sum(calls.values()) > 0
    assert [key for key in calls if key[1]] == []
    counted_inside(oracles.shape_of)(sandwich)
    assert {name for name, in_kernel in calls if in_kernel} == set(names)


def test_shape_errors():
    with pytest.raises(ValueError):
        shape_of(oracles.identity(QQ))  # needs the special fiber
    F = PrimeField(5)
    zero = LaurentPoly.zero(F)
    with pytest.raises(ValueError):
        shape_of(PolyMat.make(F, [[zero] * 4] * 4))


def test_shape_rejects_non_similitudes():
    F = PrimeField(5)
    for exps in ((0, 1, 0, 0), (2, 0, 0, 0), (1, 1, 0, 1)):
        with pytest.raises(ValueError, match="not a symplectic similitude"):
            shape_of(diag_mat(F, exps))


def test_shape_of_regcolone_strata():
    # the two components of the special fiber carry extremal translation
    # shapes; their intersection carries the colength-one element
    F = PrimeField(P)
    mk = lambda c00, c33pp: RegColOneParams.make(
        F, c00=c00, c21=4, c13=9, c31=11, c31p=6, c33=8, c33p=13,
        c33pp=c33pp, a0=1, a1=2, a2=3, a3=1, e=5)
    both = shape_of(build_regcolone_matrix(mk(0, 0), P))
    expected = star(compose(translation(Weight(0, -1, 2)),
                            finite(weyl_from_word("212"))))
    assert both == expected
    assert dual_length(both) == 6

    first = shape_of(build_regcolone_matrix(mk(0, 17), P))
    assert first == star(translation(ETA))

    adm = RegColOneParams.admissible(F, P, c00=5, c21=4, c13=9, c31=11,
                                     c31p=6, c33=8, c33p=13)
    second = shape_of(build_regcolone_matrix(adm, P))
    assert second == translation(Weight(-1, -2, 3))
    assert dual_length(second) == 7 and dual_length(first) == 7


# ---------------------------------------------------------------------------
# the local elimination kernel against the minors and full-precision oracles


def family_draws(field, rng, n):
    out = []
    while len(out) < n:
        vals = [rng.randrange(1, P) for _ in range(7)]
        try:
            params = RegColOneParams.admissible(field, P, *vals)
        except ValueError:
            continue
        out.append(build_regcolone_matrix(params, P))
    return out


def unimodular(field, rng, lower, coeff=lambda rng: rng.randrange(-3, 4), degree=2):
    """Unitriangular matrix with random polynomials off the diagonal, of
    the given degree with coefficients drawn by coeff."""
    one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
    rows = [[one if i == j else zero for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            if (i > j) if lower else (i < j):
                rows[i][j] = LaurentPoly(
                    field, {e: coeff(rng) for e in range(degree + 1)})
    return PolyMat.make(field, rows)


def test_kernel_on_adm_monomials_matches_oracles():
    elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
    assert len(elems) == 63
    for z in elems:
        M = monomial_matrix(z, QQ)
        assert e_divisor_pattern(M, P) == oracles.e_divisor_pattern(M, P) == (0, 0, 0, 0)
        for q in (5, 37):
            F = PrimeField(q)
            M = monomial_matrix(z, F)
            assert shape_of(M) == oracles.shape_of(M) == z
            assert e_divisor_pattern(M, q) == oracles.e_divisor_pattern(M, q)


@pytest.mark.parametrize("q", [5, 37])
def test_kernel_on_iwahori_sandwiches_matches_oracles(q):
    F = PrimeField(q)
    rng = random.Random(40 + q)
    elems = sorted(adm_dual_set(ETA), key=elem_sort_key)
    for i in range(16):
        # a bare Iwahori element has det of valuation 0
        iw = random_iwahori(F, rng)
        assert shape_of(iw) == oracles.shape_of(iw) == IDENTITY
        assert e_divisor_pattern(iw, q) == oracles.e_divisor_pattern(iw, q) == (0, 0, 0, 0)
        z = rng.choice(elems)
        M = random_iwahori(F, rng) * monomial_matrix(z, F) * random_iwahori(F, rng)
        for k in (0, 1 + i % 3):
            A = oracles.mat_scale(M, oracles.v_power(F, -k))
            expect = compose(translation(Weight(0, 0, -k)), z)
            assert shape_of(A) == oracles.shape_of(A) == expect
            assert e_divisor_pattern(A, q) == oracles.e_divisor_pattern(A, q)


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=["QQ", "F37"])
def test_kernel_on_family_draws_matches_oracle(field):
    for A in family_draws(field, random.Random(77), 150):
        assert e_divisor_pattern(A, P) == oracles.e_divisor_pattern(A, P)


UNBALANCED = ((3, 0, 0, 0), (0, 0, 2, 0), (1, 0, 0, 1), (0, 4, 1, 0), (2, 2, 0, 0))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["QQ", "F5"])
def test_kernel_on_unbalanced_divisors_matches_oracle(field):
    # non-symplectic U * diag(E^e) * L: one divisor may carry all of
    # val(det), the case that needs the precision val(det) + 1
    p = P if field.char == 0 else field.char
    E = e_poly(field, p)
    zero = LaurentPoly.zero(field)
    rng = random.Random(13)
    for exps in UNBALANCED:
        D = PolyMat.make(field, [[oracles.laurent_pow(E, exps[i]) if i == j else zero for j in range(4)]
                                 for i in range(4)])
        for k in (0, 2):
            A = oracles.mat_scale(unimodular(field, rng, False) * D * unimodular(field, rng, True),
                                  oracles.v_power(field, -k))
            want = tuple(sorted(exps, reverse=True))
            if field.char:
                want = tuple(e - k for e in want)  # over F_q, v^-k is E^-k
            assert e_divisor_pattern(A, p) == oracles.e_divisor_pattern(A, p) == want


DENSE = ((30, 10, 5, 1), (20, 0, 0, 0), (12, 6, 3, 0))


def large_fraction(rng):
    """Numerator up to 10^6 over a denominator up to 10^4 prime to P."""
    d = rng.randrange(1, 10 ** 4)
    return Fraction(rng.randrange(-10 ** 6, 10 ** 6 + 1), d + (d % P == 0))


@pytest.mark.parametrize("field", [QQ, PrimeField(P)], ids=["QQ", "F37"])
def test_kernel_on_dense_factors_at_high_precision(field):
    # U * diag(E^e) * L with cubic factors whose coefficients have large,
    # unequal denominators, at precision up to 47: the fraction-free row
    # update must give the divisors without growing a unit's inverse
    E = e_poly(field, P)
    zero = LaurentPoly.zero(field)
    rng = random.Random(29)
    for exps in DENSE:
        D = PolyMat.make(field, [[oracles.laurent_pow(E, exps[i]) if i == j else zero for j in range(4)]
                                 for i in range(4)])
        for _ in range(3):
            A = (unimodular(field, rng, False, large_fraction, 3) * D
                 * unimodular(field, rng, True, large_fraction, 3))
            assert e_divisor_pattern(A, P) == exps


def test_kernel_and_oracles_reject_singular_input():
    F = PrimeField(5)
    zero = LaurentPoly.zero(F)
    v = oracles.v_power(F, 1)
    rank3 = [list(r) for r in random_iwahori(F, random.Random(4)).rows]
    rank3[3] = [e * v for e in rank3[1]]
    cases = [
        PolyMat.make(F, [[zero] * 4] * 4),
        PolyMat.make(F, [[v if (i, j) in ((0, 3), (1, 2)) else zero for j in range(4)]
                         for i in range(4)]),  # form check holds with c = 0
        PolyMat.make(F, rank3),
    ]
    for A in cases:
        with pytest.raises(ValueError):
            symplectic_similitude(A, 5)  # by c = 0 or, failing the form, by det
        for shape in (shape_of, oracles.shape_of):
            with pytest.raises(ValueError):
                shape(A)
        for divisors in (e_divisor_pattern, oracles.e_divisor_pattern):
            with pytest.raises(ValueError):
                divisors(A, 5)
    q_rows = [list(r) for r in build_regcolone_matrix(solved_params(), P).rows]
    q_rows[2] = q_rows[0]
    for divisors in (e_divisor_pattern, oracles.e_divisor_pattern):
        with pytest.raises(ValueError):
            divisors(PolyMat.make(QQ, q_rows), P)


def sympy_pattern(sympy, A, p):
    """E-valuations of the invariant factors of v^k * A over Q[v]."""
    from sympy.matrices.normalforms import smith_normal_form

    v = sympy.Symbol("v")
    k = max(0, -min(e.low_degree for row in A.rows for e in row if not e.is_zero))
    M = sympy.Matrix([[sum(sympy.Rational(c) * v ** (e + k) for e, c in x.coeffs)
                       for x in row] for row in A.rows])
    snf = smith_normal_form(M, domain=sympy.QQ[v])
    out = []
    for i in range(4):
        f = sympy.Poly(snf[i, i], v)
        n = 0
        while True:
            quo, rem = sympy.div(f, sympy.Poly(v + p, v))
            if not rem.is_zero:
                break
            f, n = quo, n + 1
        out.append(n)
    return tuple(sorted(out, reverse=True))


def test_kernel_divisors_match_sympy_smith_form():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    cases = family_draws(QQ, rng, 20)
    E = e_poly(QQ, P)
    zero = LaurentPoly.zero(QQ)
    for exps in UNBALANCED:
        D = PolyMat.make(QQ, [[oracles.laurent_pow(E, exps[i]) if i == j else zero for j in range(4)]
                              for i in range(4)])
        cases.append(oracles.mat_scale(unimodular(QQ, rng, False) * D * unimodular(QQ, rng, True),
                                       oracles.v_power(QQ, -1)))
    for A in cases:
        assert e_divisor_pattern(A, P) == sympy_pattern(sympy, A, P)


# ---------------------------------------------------------------------------
# monodromy


def test_monodromy_params_basics():
    mp = MonodromyParams.make(QQ, *A_GENERIC, P)
    assert mp.diag_values() == tuple(QQ.coerce(x) for x in (110, 66, -24, -68))
    assert is_generic(mp, 6)
    assert not is_generic(mp, 7)
    assert not is_generic(MonodromyParams.make(QQ, 105, 68, 22, P), 3)


def test_monodromy_act_matches_matrix_conjugation():
    mp = MonodromyParams.make(QQ, *A_GENERIC, P)
    for w in W_ALL:
        U = weyl_matrix(w, QQ)
        lhs = U * oracles.diagonal(QQ, mp.diag_values()) * unit_inverse(U)
        assert lhs == oracles.diagonal(QQ, monodromy_act(mp, w).diag_values())
    assert monodromy_act(mp, W_E) == mp
    assert monodromy_act(monodromy_act(mp, W_S1), W_S1) == mp


def test_monodromy_act_composition():
    mp = MonodromyParams.make(QQ, *A_GENERIC, P)
    for u in W_ALL:
        for w in W_ALL:
            assert monodromy_act(mp, weyl_mul(u, w)) == monodromy_act(monodromy_act(mp, w), u)


def test_monodromy_pass_on_solved_instance():
    sp = solved_params()
    A = build_regcolone_matrix(sp, P)
    mp = monodromy_params_of(sp, P)
    assert mp.a == tuple(QQ.coerce(x) for x in A_GENERIC)
    assert monodromy_defect(A, mp) is None


def test_monodromy_fails_clause_one_off_locus():
    sp = solved_params()
    bumped = RegColOneParams.make(
        QQ, c00=sp.c00, c21=sp.c21, c13=sp.c13, c31=sp.c31, c31p=sp.c31p,
        c33=sp.c33 + 1, c33p=sp.c33p, c33pp=sp.c33pp,
        a0=sp.a0, a1=sp.a1, a2=sp.a2, a3=sp.a3, e=sp.e)
    d = monodromy_defect(build_regcolone_matrix(bumped, P),
                         monodromy_params_of(sp, P))
    assert d is not None and d.clause == 1
    assert "not a unit" in d.display()


# the perturbation c33 -> c33 + 1 of the solved family at the default
# arguments; over F_37 E(v) = v, so the denominator is a unit and the pole
# shows at v = 0 instead
OFF_LOCUS_MESSAGES = {
    "QQ": "clause (i) at entry (0,0): denominator v^3 + 111*v^2 + 4107*v + 54760 "
          "is not a unit",
    "F37": "clause (iii) at entry (0,3): pole at v = 0",
}


@pytest.mark.parametrize("tag, field", [("QQ", QQ), ("F37", PrimeField(P))])
def test_monodromy_defect_messages_on_and_off_the_solved_locus(tag, field):
    sp = solved_params(field)
    mp = monodromy_params_of(sp, P)
    assert monodromy_defect(build_regcolone_matrix(sp, P), mp) is None
    vals = {k: getattr(sp, k) for k in ("c00", "c21", "c13", "c31", "c31p", "c33",
                                        "c33p", "c33pp", "a0", "a1", "a2", "a3", "e")}
    vals["c33"] += 1
    bumped = RegColOneParams.make(field, **vals)
    d = monodromy_defect(build_regcolone_matrix(bumped, P), mp)
    assert d.display() == OFF_LOCUS_MESSAGES[tag]


def clause_two_example():
    # v*diag breaks the similitude balance of the candidate operator
    return diag_mat(QQ, (1, 0, 0, 0)), MonodromyParams.make(QQ, 0, 0, 0, P)


def clause_three_examples():
    one = LaurentPoly.one(QQ)
    zero = LaurentPoly.zero(QQ)
    vm1 = oracles.v_power(QQ, -1)
    rows = [[one if i == j else zero for j in range(4)] for i in range(4)]
    rows[0][1] = vm1
    rows[2][3] = vm1.scale(-1)
    rows2 = [[one if i == j else zero for j in range(4)] for i in range(4)]
    rows2[1][0] = one
    rows2[3][2] = LaurentPoly.const(QQ, -1)
    mp = MonodromyParams.make(QQ, *A_GENERIC, P)
    return [(PolyMat.make(QQ, rows), mp), (PolyMat.make(QQ, rows2), mp)]


def test_monodromy_fails_clause_two():
    d = monodromy_defect(*clause_two_example())
    assert d is not None and d.clause == 2


def test_monodromy_fails_clause_three():
    for A, mp in clause_three_examples():
        d = monodromy_defect(A, mp)
        assert d is not None and d.clause == 3


def monodromy_grid():
    """(matrix, parameters) cases: at p = 37 and 41, over Q and F_p, 10
    seeded solved-family matrices and each one's 8 single-coordinate +1
    perturbations, then the 63 monomial matrices of Adm(eta) over Q."""
    cases = []
    for p in (37, 41):
        for field in (QQ, PrimeField(p)):
            rng = random.Random(p * 100 + field.char)
            solved = []
            while len(solved) < 10:
                cs = [rng.randrange(1, p) for _ in range(4)]
                a = tuple(rng.randrange(3 * p) for _ in range(3))
                try:
                    solved.append(RegColOneParams.solved(field, p, *cs, a=a))
                except ValueError:
                    continue
            for sp in solved:
                mp = monodromy_params_of(sp, p)
                cases.append((build_regcolone_matrix(sp, p), mp))
                vals = sp._asdict()
                del vals["field"]
                for name in ("c00", "c21", "c13", "c31", "c31p", "c33", "c33p", "c33pp"):
                    bumped = RegColOneParams.make(field, **dict(vals, **{name: vals[name] + 1}))
                    cases.append((build_regcolone_matrix(bumped, p), mp))
    mp = MonodromyParams.make(QQ, *A_GENERIC, P)
    cases += [(monomial_matrix(z, QQ), mp) for z in sorted(adm_dual_set(ETA), key=elem_sort_key)]
    return cases


def test_monodromy_defect_matches_the_matrix_algebra_oracle():
    cases = monodromy_grid() + [clause_two_example()] + clause_three_examples()
    assert len(cases) == 423 + 3
    seen = Counter()
    for A, mp in cases:
        got = monodromy_defect(A, mp)
        assert got == oracles.monodromy_defect_oracle(A, mp), (A, mp)
        seen[None if got is None else got.clause] += 1
    assert set(seen) == {None, 1, 2, 3}, seen


def test_monodromy_omega_equivariance():
    # conjugating by a length-zero monomial matrix shifts the parameters
    # by the crossed Weyl action plus the character of the translation part
    sp = solved_params()
    A = build_regcolone_matrix(sp, P)
    mp = monodromy_params_of(sp, P)
    deltas = []
    for a in range(-1, 2):
        for c in range(-1, 2):
            d = omega_part(translation(Weight(a, 0, c)))
            if d not in deltas:
                deltas.append(d)
    assert len(deltas) >= 6
    for delta in deltas:
        sd = star(delta)
        U = monomial_matrix(sd, QQ)
        B = U * A * unit_inverse(U)
        base = monodromy_act(mp, sd.w)
        t = std_character(sd.nu)
        sim = sd.nu.a + sd.nu.b + 2 * sd.nu.c
        shifted = MonodromyParams.make(
            QQ,
            base.a[0] + t[0],
            base.a[1] + t[1],
            base.a[2] + sim,
            P)
        assert monodromy_defect(B, shifted) is None


def test_monodromy_field_mismatch():
    A = oracles.identity(PrimeField(5))
    with pytest.raises(TypeError):
        monodromy_defect(A, MonodromyParams.make(QQ, 1, 2, 3, P))


# ---------------------------------------------------------------------------
# the explicit colength-one family


def test_regcolone_solved_relation():
    sp = solved_params()
    assert regcolone_relation_holds(sp, P)
    coords = regcolone_coordinates(sp, P)
    assert coords["xy"] - P == 0
    assert coords["x"] == sp.c00
    assert set(coords) == {"z1", "z2", "z3", "x", "y", "xy"}


def test_regcolone_admissible_similitude():
    rng = random.Random(12)
    for field in (QQ, PrimeField(P)):
        for _ in range(8):
            vals = [rng.randrange(1, P) for _ in range(7)]
            pr = RegColOneParams.admissible(field, P, *vals)
            A = build_regcolone_matrix(pr, P)
            res = symplectic_similitude(A, P)
            assert res.ok
            pat = e_divisor_pattern(A, P)
            assert sum(pat) == 6
            assert dominance_leq(pat, (3, 2, 1, 0))


@pytest.mark.parametrize("p", (5, 7, 11, 37, 41))
def test_family_similitude_is_e_cubed(p):
    # the colength-one family's similitude factor is E(v)^3: over QQ it
    # is (v + p)^3, of v-order 0; over F_p it is v^3
    rng = random.Random(700 + p)
    for field in (QQ, PrimeField(p)):
        done = 0
        while done < 60:
            try:
                pr = RegColOneParams.admissible(
                    field, p, *(rng.randrange(1, p) for _ in range(7)))
            except ValueError:
                continue
            res = symplectic_similitude(build_regcolone_matrix(pr, p), p)
            assert res.ok and res.unit_form
            assert res.scalar == oracles.laurent_pow(e_poly(field, p), 3)
            assert (res.v_order, res.e_order) == ((0 if field is QQ else 3), 3)
            done += 1


def test_regcolone_generic_raw_params_fail_similitude():
    rng = random.Random(8)
    hits = 0
    for _ in range(5):
        vals = {n: rng.randrange(1, P) for n in
                ("c00", "c21", "c13", "c31", "c31p", "c33", "c33p", "c33pp")}
        pr = RegColOneParams.make(QQ, a0=1, a1=2, a2=3, a3=1, e=5, **vals)
        if not symplectic_similitude(build_regcolone_matrix(pr, P), P).ok:
            hits += 1
    assert hits == 5


def test_regcolone_solved_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        RegColOneParams.solved(QQ, P, c00=0, c21=1, c13=1, c31=1, a=A_GENERIC)
    with pytest.raises(ValueError):
        # a1 = a2 kills the first solving denominator
        RegColOneParams.solved(QQ, P, c00=1, c21=1, c13=1, c31=1, a=(5, 5, 3))


def test_regcolone_dictionary_roundtrip():
    sp = solved_params()
    mp = monodromy_params_of(sp, P)
    assert mp.a == tuple(QQ.coerce(x) for x in A_GENERIC)
    off = RegColOneParams.make(
        QQ, c00=1, c21=1, c13=1, c31=1, c31p=1, c33=1, c33p=1, c33pp=1,
        a0=1, a1=2, a2=3, a3=1, e=5)  # e != -1: not in the dictionary image
    with pytest.raises(ValueError):
        monodromy_params_of(off, P)


def test_regcolone_denominator_guard():
    with pytest.raises(ValueError):
        RegColOneParams.make(
            QQ, c00=1, c21=1, c13=1, c31=1, c31p=1, c33=1, c33p=1, c33pp=1,
            a0=3, a1=0, a2=0, a3=1, e=-1)  # e + a0 - a3 - 1 = 0


@pytest.mark.parametrize("drop, extra, named", [
    ("c33pp", {}, "'c33pp'"),
    (None, {"c34": 1}, "'c34'"),
], ids=["missing", "unknown"])
def test_regcolone_make_names_a_missing_or_unknown_parameter(drop, extra, named):
    vals = dict(c00=1, c21=1, c13=1, c31=1, c31p=1, c33=1, c33p=1, c33pp=1,
                a0=1, a1=2, a2=3, a3=1, e=5)
    vals.pop(drop, None)
    with pytest.raises(TypeError, match=named):
        RegColOneParams.make(QQ, **vals, **extra)


@pytest.mark.parametrize("field", [QQ, PrimeField(P), PrimeField(5)], ids=["QQ", "F37", "F5"])
def test_family_matrix_in_closed_form_matches_the_product_oracle(field):
    # p = 37 throughout: over F_5 the matrix is the reduction of the rational one
    rng = random.Random(500 + field.char)
    built = {"admissible": 0, "solved": 0, "make": 0}
    for _ in range(150):
        cs = [rng.randrange(-2 * P, 2 * P) for _ in range(7)]
        a = tuple(rng.randrange(-3 * P, 3 * P) for _ in range(3))
        fracs = {n: Fraction(rng.randrange(-99, 100), rng.randrange(1, 30))
                 for n in ("c00", "c21", "c13", "c31", "c31p", "c33", "c33p", "c33pp")}
        builders = {
            "admissible": lambda: RegColOneParams.admissible(field, P, *cs),
            "solved": lambda: RegColOneParams.solved(field, P, *cs[:4], a),
            "make": lambda: RegColOneParams.make(field, a0=1, a1=2, a2=3, a3=1, e=5, **fracs),
        }
        for name, build in builders.items():
            params, raised = _call(build)
            if raised:
                continue
            built[name] += 1
            assert build_regcolone_matrix(params, P) == oracles.regcolone_matrix(params, P)
    assert min(built.values()) >= 30, built


def _family_args(rng, q):
    """Integer draws for the family constructors, zero mod q now and then."""
    cs = [rng.randrange(-2 * q, 2 * q) for _ in range(7)]
    opaque = [rng.randrange(-2 * q, 2 * q) for _ in range(5)]
    a = tuple(rng.randrange(-3 * q, 3 * q) for _ in range(3))
    return cs, opaque, a, rng.choice((q, 37, 41, rng.randrange(1, 3 * q)))


def _call(fn, *args):
    try:
        return fn(*args), False
    except (ValueError, ZeroDivisionError):
        return None, True


@pytest.mark.parametrize("q", (5, 37, 41))
def test_prime_field_family_is_the_rational_family_reduced(q):
    """Reducing Z_(q) -> F_q is a ring map, so whenever a family call over
    F_q returns, it returns the rational call's result mapped by coerce;
    and the rational call raises only where the F_q call raises."""
    F = PrimeField(q)
    rng = random.Random(1000 + q)
    names = ("c00", "c21", "c13", "c31", "c31p", "c33", "c33p", "c33pp",
             "a0", "a1", "a2", "a3", "e")

    def through_make(field, cs, opaque, a, p):
        # an admissible draw's coordinates with random display values
        adm = RegColOneParams.admissible(field, p, *cs)
        return RegColOneParams.make(field, **{n: getattr(adm, n) for n in names[:8]},
                                    **dict(zip(names[8:], opaque)))

    constructors = (
        lambda field, cs, opaque, a, p: RegColOneParams.admissible(field, p, *cs),
        through_make,
        lambda field, cs, opaque, a, p: RegColOneParams.solved(field, p, *cs[:4], a),
    )
    returned = raised = 0
    for _ in range(100):
        cs, opaque, a, p = _family_args(rng, q)
        for build in constructors:
            got, f_raised = _call(build, F, cs, opaque, a, p)
            want, q_raised = _call(build, QQ, cs, opaque, a, p)
            assert f_raised or not q_raised
            if f_raised:
                raised += 1
                continue
            returned += 1
            assert all(getattr(got, n) == F.coerce(getattr(want, n)) for n in names)
            got_xy, want_xy = regcolone_coordinates(got, p), regcolone_coordinates(want, p)
            assert got_xy == {k: F.coerce(x) for k, x in want_xy.items()}
            got_m, want_m = build_regcolone_matrix(got, p), build_regcolone_matrix(want, p)
            for got_row, want_row in zip(got_m.rows, want_m.rows):
                for g, w in zip(got_row, want_row):
                    reduced = ((e, F.coerce(c)) for e, c in w.coeffs)
                    assert g.coeffs == tuple((e, c) for e, c in reduced if c)
    assert returned >= 75 and raised >= 10


# ---------------------------------------------------------------------------
# fixed point sets


def ap_prime_pairs():
    return sorted(enumerate_ap_prime(1),
                  key=lambda pr: (elem_sort_key(pr.w1[0]), elem_sort_key(pr.w2[0])))


def test_fixed_point_set_T_sizes():
    adm = adm_dual_set(ETA)
    for pr in ap_prime_pairs():
        a, b = pr.w1[0], pr.w2[0]
        fp = fixed_point_set_T(a, b)
        assert len(fp) == len(bruhat_lower_interval(compose(W0, a)))
        assert fp <= adm


def test_fixed_point_set_T_against_subword_oracle():
    hw_inv = invert(HIGHEST_RESTRICTED)
    for pr in ap_prime_pairs():
        a, b = pr.w1[0], pr.w2[0]
        want = frozenset(star(compose_all(invert(b), hw_inv, wt))
                         for wt in oracles.bruhat_lower_interval(compose(W0, a)))
        assert fixed_point_set_T(a, b) == want


def test_fixed_point_set_T_rejects_bad_pairs():
    deep = compose(translation(Weight(9, 9, 0)), IDENTITY)
    with pytest.raises(ValueError):
        fixed_point_set_T(deep, IDENTITY)


def test_fixed_point_set_colone_sizes_by_floor():
    seen = {}
    for pr in ap_prime_pairs():
        a = pr.w1[0]
        idx = restricted_alcove_index(alcove_of(a))
        s1 = fixed_point_set_colone(a, 1)
        s2 = fixed_point_set_colone(a, 2)
        assert len(s1) == idx + 1
        assert len(s2) == idx  # the omega-indexed term drops out
        seen[idx] = (len(s1), len(s2))
    assert seen == {0: (1, 0), 1: (2, 1), 2: (3, 2), 3: (4, 3)}


def test_fixed_point_set_colone_validation():
    pr = ap_prime_pairs()[0]
    with pytest.raises(ValueError):
        fixed_point_set_colone(pr.w1[0], 3)
    with pytest.raises(ValueError):
        fixed_point_set_colone(compose(translation(Weight(9, 9, 0)), IDENTITY), 1)


# ---------------------------------------------------------------------------
# iwahori sampler


def test_random_iwahori_structure():
    F = PrimeField(P)
    rng = random.Random(2)
    for _ in range(10):
        M = random_iwahori(F, rng)
        det = M.det()
        assert det.is_monomial  # unit of the Laurent ring
        for i in range(4):
            for j in range(4):
                e = M.rows[i][j]
                assert e.is_zero or e.low_degree >= 0
                if i > j and not e.is_zero:
                    assert e.low_degree >= 1  # lower part vanishes mod v
    with pytest.raises(ValueError):
        random_iwahori(QQ, rng)


@pytest.mark.parametrize("q", (5, 37))
def test_random_iwahori_matches_product_oracle(q):
    # the same draws give the same matrix, and leave the generator in the
    # same state
    F = PrimeField(q)
    for seed in range(40):
        for max_deg in (1, 2, 3):
            fast, slow = random.Random(seed), random.Random(seed)
            assert random_iwahori(F, fast, max_deg) == oracles.random_iwahori(F, slow, max_deg)
            assert fast.random() == slow.random()
