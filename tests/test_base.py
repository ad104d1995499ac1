import itertools
import random

import pytest

from gsp4weights.base import (
    ETA,
    POSITIVE_COROOTS,
    POSITIVE_ROOTS,
    REFLECTIONS,
    W_ALL,
    W_E,
    W_LONG,
    W_S1,
    W_S2,
    Coweight,
    Weight,
    depth,
    lowest_alcove_depth,
    pairing,
    std_character,
    weyl_from_word,
    weyl_inv,
    weyl_mul,
)

from oracles import (
    CHAR_BASIS,
    COWEIGHT_BASIS,
    is_m_deep,
    is_m_generic,
    std_coweight,
    word_act,
    word_act_coweight,
    word_images,
)
from crosschecks import max_presentation_depth


def test_pairing_table():
    got = [[pairing(r, c) for c in POSITIVE_COROOTS] for r in POSITIVE_ROOTS]
    assert got == [
        [2, -1, 0, 1],
        [-2, 2, 2, 0],
        [0, 1, 2, 1],
        [2, 0, 2, 2],
    ]


def test_word_order_of_w_all():
    # W_E, W_S1, W_S2 and W_LONG are picked from W_ALL by position
    assert tuple(w.word for w in W_ALL) == ("", "1", "2", "12", "21", "121", "212", "1212")
    assert (W_E.word, W_S1.word, W_S2.word, W_LONG.word) == ("", "1", "2", "1212")


def test_eta_pairings_and_std():
    assert [pairing(ETA, c) for c in POSITIVE_COROOTS] == [1, 1, 3, 2]
    assert std_character(ETA) == (3, 2, 1, 0)


def test_std_character_additive():
    rng = random.Random(11)
    for _ in range(50):
        u = Weight(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        v = Weight(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        su, sv, suv = std_character(u), std_character(v), std_character(u + v)
        assert tuple(x + y for x, y in zip(su, sv)) == suv
        # first exponent is determined by the other three
        assert su[0] == su[1] + su[2] - su[3]


def test_group_structure():
    assert len(set(W_ALL)) == 8
    for w in W_ALL:
        assert weyl_mul(w, weyl_inv(w)) is W_E
        assert weyl_mul(weyl_inv(w), w) is W_E
    assert weyl_mul(W_S1, W_S1) is W_E
    assert weyl_mul(W_S2, W_S2) is W_E
    # braid relation: (s1 s2)^4 = e, dihedral of order 8
    r = weyl_mul(W_S1, W_S2)
    acc = W_E
    orbit = []
    for _ in range(4):
        acc = weyl_mul(acc, r)
        orbit.append(acc)
    assert acc is W_E
    assert len(set(orbit)) == 4
    assert weyl_from_word("1212") is W_LONG
    assert weyl_from_word("2121") is W_LONG
    assert weyl_from_word("") is W_E


@pytest.mark.parametrize("word", ["3", "abc", "1x2"])
def test_weyl_from_word_rejects_other_letters(word):
    with pytest.raises(ValueError, match="not 1 or 2"):
        weyl_from_word(word)


def test_tables_against_word_oracle():
    # each element's word and index, and its action matrices on the
    # character and coweight bases
    for i, w in enumerate(W_ALL):
        assert w.index == i and weyl_from_word(w.word) is w
        for e in CHAR_BASIS:
            assert w.act(e) == word_act(w.word, e)
        for e in COWEIGHT_BASIS:
            assert w.act_coweight(e) == word_act_coweight(w.word, e)
    # all 64 products and all 8 inverses: the concatenated word acts alike
    for w, u in itertools.product(W_ALL, repeat=2):
        assert word_images(weyl_mul(w, u).word) == word_images(w.word + u.word)
    for w in W_ALL:
        assert word_images(w.word + weyl_inv(w).word) == CHAR_BASIS


def test_lengths():
    lengths = sorted(w.length for w in W_ALL)
    assert lengths == [0, 1, 1, 2, 2, 3, 3, 4]
    # length equals the number of positive roots sent negative
    for w in W_ALL:
        neg = 0
        for r in POSITIVE_ROOTS:
            if -w.act(r) in POSITIVE_ROOTS:
                neg += 1
        assert neg == w.length


def test_actions():
    lam = Weight(5, 3, 1)
    assert W_S1.act(lam) == Weight(3, 5, 1)
    assert W_S2.act(lam) == Weight(5, -3, 4)
    assert W_LONG.act(lam) == Weight(-5, -3, 9)
    # similitude coordinate of std never changes: last+first = second+third
    for w in W_ALL:
        sc = std_character(w.act(lam))
        assert sc[0] + sc[3] == sc[1] + sc[2]
        assert sc[0] + sc[3] == sum(std_character(lam)[i] for i in (0, 3))


def test_reflection_formula():
    rng = random.Random(3)
    for i in range(4):
        s = REFLECTIONS[i]
        for _ in range(20):
            lam = Weight(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            assert s.act(lam) == lam - POSITIVE_ROOTS[i].scale(pairing(lam, POSITIVE_COROOTS[i]))


def test_coweight_action_adjoint():
    rng = random.Random(7)
    for w in W_ALL:
        wi = weyl_inv(w)
        for _ in range(20):
            lam = Weight(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            cov = Coweight(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            assert pairing(w.act(lam), cov) == pairing(lam, wi.act_coweight(cov))


def test_coweight_action_std_permutes():
    # On the standard torus a Weyl element permutes the 4 diagonal slots
    # (up to the similitude twist); check s1 and s2 give signed shuffles
    # consistent with conjugation by their matrices.
    cov = Coweight(4, 2, 1)
    assert std_coweight(cov) == (4, 2, -1, -3)
    assert std_coweight(W_S1.act_coweight(cov)) == (2, 4, -3, -1)
    assert std_coweight(W_S2.act_coweight(cov)) == (4, -1, 2, -3)


def test_depth_consistency():
    p = 13
    for a, b, c in itertools.product(range(-3, 14), range(-3, 14), range(-2, 3)):
        lam = Weight(a, b, c)
        d = depth(lam, p)
        for m in range(0, 7):
            assert is_m_deep(lam, p, m) == (m <= d)


def test_depths_are_the_coroot_pairings_of_lam_plus_eta():
    # both depths are read off the four pairings <lam + eta, coroot>
    for p in (11, 13, 37):
        for a, b, c in itertools.product(range(-4, p + 2), range(-4, p + 2), (-1, 0, 2)):
            lam = Weight(a, b, c)
            vs = [pairing(lam + ETA, cov) for cov in POSITIVE_COROOTS]
            assert depth(lam, p) == min(min(v % p, p - v % p) for v in vs) - 1
            inside = all(0 < v < p for v in vs)
            assert lowest_alcove_depth(lam, p) == (
                min(min(v, p - v) for v in vs) - 1 if inside else -1)


def test_generic_iff_shifted_deep():
    p = 11
    for a, b, c in itertools.product(range(-4, 12), range(-4, 12), range(-1, 2)):
        lam = Weight(a, b, c)
        for m in range(0, 5):
            assert is_m_generic(lam, p, m) == is_m_deep(lam - ETA, p, m)


def test_depth_cap():
    assert max_presentation_depth(37) == 8
    assert max_presentation_depth(41) == 9
    # no p-restricted weight at p = 37 is 9-deep: v3 = v1 + 2 v2
    p = 37
    for a, b in itertools.product(range(0, p), range(0, p)):
        assert depth(Weight(a, b, 0), p) <= 8
    assert depth(Weight(16, 8, 0), 37) == 8
    assert depth(Weight(18, 9, 0), 41) == 9


def test_depth_invariance_under_similitude():
    # every positive coroot has f = 0, so c never enters the pairings
    for c in range(-5, 6):
        assert depth(Weight(16, 8, c), 37) == depth(Weight(16, 8, 0), 37)
