import collections
import itertools
import random

import pytest

from gsp4weights.base import ETA, W_ALL, Weight, weyl_from_word
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    S1,
    W0,
    compose,
    invert,
    length,
    omega_class,
    star,
    translation,
)
from gsp4weights.admissible import (
    LEVI_G,
    LEVI_M1,
    LEVI_M2,
    LEVI_T,
    adm_dual_set,
    adm_levi_conjugate,
    adm_set,
    adm_set_oracle,
    colength_one_split,
    is_regular_element,
    levi_adm_set,
    levi_finite_weyl,
    levi_minimal_rep,
    translation_generators,
)

import oracles


def test_adm_eta_against_oracle():
    assert adm_set(ETA).elements == adm_set_oracle(ETA).elements
    assert adm_set(ETA).sorted_elements() == adm_set_oracle(ETA).sorted_elements()


def test_adm_small_weights_against_oracle():
    for lam in (Weight(1, 0, 0), Weight(1, 1, 0)):
        assert adm_set(lam).elements == adm_set_oracle(lam).elements


def test_adm_set_against_subword_oracle_on_grid():
    # t_(0,0,c) is central and of length 0, so Adm(lam + (0,0,c)) is
    # t_(0,0,c) Adm(lam): the oracle runs once per (a, b), the kernel on
    # every lam
    for a in range(1, 7):
        for b in range(a + 1):
            want = oracles.adm_set(Weight(a, b, 0))
            for c in range(-3, 4):
                shift = translation(Weight(0, 0, c))
                got = adm_set(Weight(a, b, c)).elements
                assert got == {compose(shift, z) for z in want}, (a, b, c)


def test_adm_eta_counts():
    adm = adm_set(ETA)
    assert len(adm.elements) == 63
    hist = collections.Counter(length(x) for x in adm.elements)
    assert dict(sorted(hist.items())) == {0: 1, 1: 3, 2: 5, 3: 8, 4: 11, 5: 13, 6: 14, 7: 8}
    assert len([x for x in adm.elements if is_regular_element(x)]) == 20
    assert all(omega_class(x) == 3 for x in adm.elements)


def test_adm_size_polynomial():
    # Adm(lam) = Perm(lam), the vertexwise test, and |Adm(a, b, c)| = 8a^2 +
    # 16ab - 8b^2 + 4a - 2b + 1: both measured on this grid, not proven
    lams = [Weight(a, b, c) for a in range(16) for b in range(a + 1) for c in (-1, 0, 1)]
    for lam in lams + [Weight(40, 15, 0)]:
        a, b, _ = lam
        got, perm = adm_set(lam).elements, oracles.perm_set(lam)
        assert got == perm, lam
        assert oracles.perm_count(lam) == len(perm), lam
        assert len(got) == _size(a, b), lam


def _size(a, b):
    return 8 * a * a + 16 * a * b - 8 * b * b + 4 * a - 2 * b + 1


def test_perm_count_follows_the_size_polynomial_at_large_lambda():
    # |Perm(lam)| counted by the vertexwise test in O(a) steps, far past
    # the lambda perm_set can list: measured, not proven
    rng = random.Random(5)
    lams = [Weight(20000, 8000, 0)]
    for _ in range(10):
        a = rng.randint(1000, 5000)
        lams.append(Weight(a, rng.randint(0, a), rng.choice((-1, 0, 1))))
    for lam in lams:
        assert oracles.perm_count(lam) == _size(lam.a, lam.b), lam
    # negative control: any two of the three vertices count more than 63
    two = [oracles.BASE_VERTICES[:k] + oracles.BASE_VERTICES[k + 1:] for k in range(3)]
    assert [oracles.perm_count(ETA, vertices) for vertices in two] == [72, 70, 72]


def test_perm_set_needs_every_vertex():
    # the vertexwise test on any two of the base alcove's three vertices
    # keeps elements outside Adm
    for lam in (Weight(2, 1, 0), Weight(3, 1, 0), Weight(5, 3, 0)):
        adm = adm_set(lam).elements
        for drop in range(3):
            vertices = oracles.BASE_VERTICES[:drop] + oracles.BASE_VERTICES[drop + 1:]
            perm = oracles.perm_set(lam, vertices)
            assert adm < perm, (lam, drop)


def test_colength_zero_is_translations():
    adm = adm_set(ETA)
    translations = frozenset(translation(w.act(ETA)) for w in W_ALL)
    assert frozenset(adm.of_colength(0)) == translations
    assert len(translations) == 8
    for t in translations:
        assert is_regular_element(t)


def test_colength_one_split():
    reg, irr = colength_one_split()
    assert len(reg) == 6
    assert len(irr) == 8
    assert oracles.irregular_family() == frozenset(irr)


def test_eta_times_simple_is_irregular_colength_one():
    adm = adm_set(ETA)
    x = compose(translation(ETA), S1)
    assert adm.colength(x) == 1
    assert not is_regular_element(x)
    assert x in oracles.irregular_family()


def test_bruhat_downward_closed():
    from gsp4weights.affine import bruhat_lower_interval

    adm = adm_set(ETA).elements
    for x in list(adm)[::7]:
        assert bruhat_lower_interval(x) <= adm


def test_dual_set():
    adm = adm_set(ETA).elements
    dual = adm_dual_set(ETA)
    assert len(dual) == len(adm)
    assert frozenset(star(x) for x in dual) == adm


def test_translation_generators_requires_dominant():
    with pytest.raises(ValueError):
        translation_generators(Weight(0, 1, 0))


def test_levi_finite_weyl_sizes():
    assert len(levi_finite_weyl(LEVI_T)) == 1
    assert len(levi_finite_weyl(LEVI_M1)) == 2
    assert len(levi_finite_weyl(LEVI_M2)) == 2
    assert len(levi_finite_weyl(LEVI_G)) == 8


def test_levi_adm_torus():
    assert levi_adm_set(ETA, LEVI_T) == frozenset({translation(ETA)})


def test_levi_adm_inside_full_adm():
    adm = adm_set(ETA).elements
    for levi in (LEVI_T, LEVI_M1, LEVI_M2):
        sub = levi_adm_set(ETA, levi)
        assert sub <= adm
    assert levi_adm_set(ETA, LEVI_G) == adm


def test_levi_adm_set_against_subword_oracle():
    # lam need not be dominant: the Levi's Weyl translates are generators
    for levi in (LEVI_T, LEVI_M1, LEVI_M2, LEVI_G):
        for a, b in itertools.product(range(-3, 4), repeat=2):
            for c in (-1, 0, 1):
                lam = Weight(a, b, c)
                assert levi_adm_set(lam, levi) == oracles.levi_adm_set(lam, levi), (lam, levi)


def test_levi_conjugate_inclusion():
    adm = adm_set(ETA).elements
    for levi in (LEVI_M1, LEVI_M2, LEVI_T):
        reps = [w for w in W_ALL if levi_minimal_rep(w, levi)[1] == w]
        if levi != LEVI_T:
            assert len(reps) == 4
        for w in reps:
            conj = adm_levi_conjugate(ETA, levi, w)
            assert conj <= adm
    with pytest.raises(ValueError):
        adm_levi_conjugate(ETA, LEVI_M1, weyl_from_word("1"))


def test_levi_minimal_rep_decomposition():
    from gsp4weights.base import weyl_mul

    for levi in (LEVI_M1, LEVI_M2, LEVI_G, LEVI_T):
        for w in W_ALL:
            w_m, rep = levi_minimal_rep(w, levi)
            assert weyl_mul(w_m, rep) == w
            assert w_m in levi_finite_weyl(levi)
            assert w_m.length + rep.length == w.length


def test_irregular_family_formula_is_conjugation_by_diamonds():
    # the two displays agree: hw^(-1) w0 = t_eta
    assert compose(invert(HIGHEST_RESTRICTED), W0) == translation(ETA)
