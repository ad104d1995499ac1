import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from gsp4weights import admissible, affine
from gsp4weights.base import ETA, W_ALL, W_LONG, Weight, weyl_from_word
from gsp4weights.admissible import (
    LEVI_G,
    LEVI_M1,
    LEVI_M2,
    LEVI_T,
    adm_set,
    elem_sort_key,
    levi_adm_set,
    levi_finite_weyl,
    translation_generators,
)
from gsp4weights.affine import (
    AFFINE_SIMPLES,
    BASE_ALCOVE,
    HIGHEST_RESTRICTED,
    IDENTITY,
    RESTRICTED_ALCOVES,
    S0,
    S1,
    S2,
    W0,
    Alcove,
    ExtAffine,
    _BRUHAT_CACHE,
    alcove_of,
    arrow_down_region,
    bruhat_down_alcoves,
    bruhat_down_set,
    bruhat_leq,
    bruhat_leq_oracle,
    bruhat_lower_interval,
    compose,
    compose_all,
    coset_ball,
    diamond,
    dominant_down_set,
    dual_length,
    elem_of_alcove,
    finite,
    functional_values,
    in_omega,
    invert,
    is_dominant_element,
    is_restricted_alcove,
    is_restricted_element,
    length,
    locate_weight,
    omega_class,
    omega_part,
    omega_split,
    orbit_weight,
    p_dot,
    restricted_alcove_index,
    shi_coordinates,
    star,
    translation,
    upper_arrow_leq,
    upper_arrow_leq_alcove,
    weight_alcove,
    weight_alcove_index,
    weight_arrow_leq,
)

import oracles
from oracles import box_down_set


def random_element(rng, span=3):
    nu = Weight(rng.randint(-span, span), rng.randint(-span, span), rng.randint(-span, span))
    return ExtAffine(nu, rng.choice(W_ALL))


def test_group_laws():
    rng = random.Random(1)
    for _ in range(60):
        x, y, z = (random_element(rng) for _ in range(3))
        assert compose(compose(x, y), z) == compose(x, compose(y, z))
        assert compose(x, invert(x)) == IDENTITY
        assert compose(invert(x), x) == IDENTITY
        assert star(star(x)) == x
        assert star(compose(x, y)) == compose(star(y), star(x))


def test_length_basics():
    assert length(IDENTITY) == 0
    for s in AFFINE_SIMPLES:
        assert length(s) == 1
    assert length(translation(ETA)) == 7
    assert length(W0) == 4
    for w in W_ALL:
        assert length(finite(w)) == w.length
    rng = random.Random(2)
    for _ in range(40):
        x = random_element(rng)
        assert length(x) == length(invert(x))


def test_translation_lengths():
    # l(t_nu) for dominant nu equals <nu, 2 rho^vee> = sum of pairings
    from gsp4weights.base import POSITIVE_COROOTS, pairing, dominant

    for a, b in itertools.product(range(0, 4), range(0, 4)):
        if a < b:
            continue
        nu = Weight(a, b, 0)
        assert dominant(nu)
        assert length(translation(nu)) == sum(pairing(nu, c) for c in POSITIVE_COROOTS)


def test_dual_length():
    assert dual_length(translation(ETA)) == 7
    rng = random.Random(3)
    w0 = W0
    for _ in range(60):
        x = random_element(rng)
        assert dual_length(x) == length(compose_all(w0, x, w0))
        assert dual_length(star(x)) == length(x)


def test_omega_split():
    rng = random.Random(4)
    for _ in range(40):
        x = random_element(rng)
        word, delta = omega_split(x)
        assert len(word) == length(x)
        assert length(delta) == 0
        acc = IDENTITY
        for i in word:
            acc = compose(acc, AFFINE_SIMPLES[i])
        assert compose(acc, delta) == x


def test_omega_part_against_greedy_word():
    # every element of four coset balls, in Omega-classes 0, 1, 2 and -1
    delta1 = compose(translation(Weight(1, 0, 0)), finite(weyl_from_word("121")))
    centre = translation(Weight(0, 0, 1))
    for delta in (IDENTITY, delta1, centre, compose(delta1, invert(centre))):
        assert length(delta) == 0
        for x in coset_ball(delta, 5):
            assert omega_part(x) == omega_split(x)[1] == delta


def test_omega_class():
    rng = random.Random(5)
    assert omega_class(S0) == 0
    assert omega_class(S1) == 0
    assert omega_class(S2) == 0
    assert omega_class(translation(ETA)) == 3
    assert omega_class(translation(Weight(0, 0, 1))) == 2
    for _ in range(40):
        x, y = random_element(rng), random_element(rng)
        assert omega_class(compose(x, y)) == omega_class(x) + omega_class(y)
    # the class of the length-zero part matches, and length-zero elements
    # with class 0 are trivial
    for _ in range(20):
        x = random_element(rng)
        assert omega_class(omega_part(x)) == omega_class(x)
    delta1 = compose(translation(Weight(1, 0, 0)), finite(weyl_from_word("121")))
    assert length(delta1) == 0
    assert omega_class(delta1) == 1


def test_bruhat_against_subword_oracle():
    rng = random.Random(6)
    delta1 = compose(translation(Weight(1, 0, 0)), finite(weyl_from_word("121")))
    for delta in (IDENTITY, delta1):
        ball = sorted(coset_ball(delta, 4), key=lambda e: (length(e), str(e)))
        sample = rng.sample(ball, min(30, len(ball)))
        for x in sample:
            for y in sample:
                assert bruhat_leq(x, y) == bruhat_leq_oracle(x, y)


def test_bruhat_cross_coset():
    assert not bruhat_leq(translation(Weight(0, 0, 1)), translation(ETA))
    assert not bruhat_leq(IDENTITY, translation(Weight(0, 0, 1)))


def test_bruhat_interval_of_eta_translation():
    iv = bruhat_lower_interval(translation(ETA))
    assert translation(ETA) in iv
    delta = omega_part(translation(ETA))
    assert delta in iv and IDENTITY not in iv
    lengths = sorted(length(x) for x in iv)
    assert lengths[0] == 0 and lengths[-1] == 7
    # cross-check against the recursive comparison over the whole coset ball
    ball = coset_ball(delta, 7)
    slow = {x for x in ball if bruhat_leq(x, translation(ETA))}
    assert iv == frozenset(slow)


def test_bruhat_down_set_against_subword_oracle():
    rng = random.Random(9)
    delta1 = compose(translation(Weight(1, 0, 0)), finite(weyl_from_word("121")))
    for delta in (IDENTITY, delta1):
        ball = sorted(coset_ball(delta, 6), key=lambda e: (length(e), str(e)))
        for y in rng.sample(ball, 16):
            assert bruhat_lower_interval(y) == oracles.bruhat_lower_interval(y)
    # several generators of one Omega-class, some of them comparable
    t31 = translation(Weight(3, 1, 0))
    gens = (t31, translation(Weight(1, 3, 0)), translation(Weight(2, 2, 0)), compose(t31, S1))
    want = set().union(*(oracles.bruhat_lower_interval(g) for g in gens))
    assert bruhat_down_set(gens) == want
    with pytest.raises(AssertionError):
        bruhat_down_set((IDENTITY, translation(Weight(0, 0, 1))))


def test_bruhat_down_set_of_no_generators_is_empty():
    assert bruhat_down_set(()) == frozenset()
    assert bruhat_down_set([], (0,)) == frozenset()


def test_bruhat_closure_makes_and_checks_each_element_once(monkeypatch):
    gens = translation_generators(Weight(6, 3, -1))
    made = []
    real = affine._element_at

    def counted(a, cls):
        made.append(a)
        return real(a, cls)

    monkeypatch.setattr(affine, "_element_at", counted)
    down = bruhat_down_alcoves(gens)
    assert all(alcove_of(z) == a for a, z in down.items())
    assert sorted(made) == sorted(set(down) - {alcove_of(g) for g in gens})
    # an element that does not map the base alcove to its alcove is refused
    monkeypatch.setattr(affine, "_element_at", lambda a, cls: compose(S1, real(a, cls)))
    with pytest.raises(AssertionError):
        bruhat_down_alcoves(gens)


def test_middle_separating_walls_are_never_covers():
    # every alcove t_(i,j,0) w(A_0) with |i|, |j| <= 12: a separating wall
    # shortens, by at least 3 when it is a middle wall (one with a
    # separating wall of its direction on each side), so every cover (a
    # drop of 1) reflects in one of the two outermost walls
    middle = covers = 0
    for i, j in itertools.product(range(-12, 13), repeat=2):
        for w in W_ALL:
            a = _oracle_alcove(ExtAffine(Weight(i, j, 0), w))
            n = oracles.alcove_length(a)
            for k, t in enumerate(oracles.functionals(a)):
                # the separating walls of direction k, from the base out
                walls = range(6, t, 6) if t > 6 else range(0, t, -6)
                for pos, m in enumerate(walls):
                    drop = n - oracles.alcove_length(oracles._reflect(a, k, m))
                    outermost = pos in (0, len(walls) - 1)
                    assert drop >= 1, (a, k, m)
                    assert outermost or drop >= 3, (a, k, m)
                    assert drop != 1 or outermost, (a, k, m)
                    middle += not outermost
                    covers += drop == 1
    assert middle > 0 and covers > 0


def _assert_every_wall_down_set(got, gens, roots=range(4)):
    """got is one element, in the generators' Omega-class, per alcove of
    the every-wall closure of the generators' alcoves."""
    want = oracles.every_wall_down_set({alcove_of(g) for g in gens}, roots)
    assert {omega_class(x) for x in got} == {omega_class(g) for g in gens}
    assert len(got) == len(want) and {alcove_of(x) for x in got} == want


def test_adm_set_against_every_wall_closure():
    rng = random.Random(23)
    lams = [Weight(a, b, 0) for a in range(16) for b in range(a + 1)]
    for _ in range(4):
        a = rng.randint(16, 40)
        lams.append(Weight(a, rng.randint(0, a), rng.randint(-1, 1)))
    for lam in lams:
        _assert_every_wall_down_set(adm_set(lam).elements, translation_generators(lam))


def test_levi_adm_set_against_every_wall_closure():
    for levi in (LEVI_T, LEVI_M1, LEVI_M2, LEVI_G):
        roots = oracles.LEVI_ROOTS[levi]
        for a in range(10):
            for b in range(a + 1):
                lam = Weight(a, b, 0)
                gens = [translation(w.act(lam)) for w in levi_finite_weyl(levi)]
                _assert_every_wall_down_set(levi_adm_set(lam, levi), gens, roots)


def _short_elements(seed):
    """200 seeded elements of length <= 14 from each of two cosets."""
    rng = random.Random(seed)
    delta1 = compose(translation(Weight(1, 0, 0)), finite(weyl_from_word("121")))
    out = []
    for delta in (IDENTITY, delta1):
        ball = sorted(coset_ball(delta, 14), key=lambda e: (length(e), str(e)))
        out += rng.sample(ball, 200)
    return out


def test_bruhat_lower_interval_against_every_wall_closure():
    for y in _short_elements(29):
        _assert_every_wall_down_set(bruhat_lower_interval(y), (y,))


def _one_sided_down_set(a, nearest):
    """The every-wall closure of the alcove a cut to one separating wall
    per direction: the one nearest the alcove, or the one nearest the base
    alcove."""
    seen = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for b in frontier:
            for k, t in enumerate(oracles.functionals(b)):
                if t > 6:
                    m = 6 * (t // 6) if nearest else 6
                elif t < 0:
                    m = 6 * (t // 6 + 1) if nearest else 0
                else:
                    continue
                q = oracles._reflect(b, k, m)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def test_one_sided_closures_miss_elements_of_intervals():
    # the negative control of the comparison above: a closure through only
    # one of the two outermost walls of each direction loses elements
    ys = _short_elements(29)
    for nearest in (True, False):
        missed = 0
        for y in ys:
            a = alcove_of(y)
            full = oracles.every_wall_down_set({a})
            part = _one_sided_down_set(a, nearest)
            assert part <= full
            missed += part != full
        assert missed > len(ys) // 2, (nearest, missed)


def test_bruhat_leq_against_oracle_on_adm_pairs():
    rng = random.Random(8)
    for lam in (Weight(2, 1, 0), Weight(3, 1, 1), Weight(3, 3, -1), Weight(5, 2, 0)):
        elems = sorted(adm_set(lam).elements, key=elem_sort_key)
        for _ in range(100):
            x, y = rng.choice(elems), rng.choice(elems)
            assert bruhat_leq(x, y) == bruhat_leq_oracle(x, y), (x, y)


def _oracle_alcove(x):
    bx, by = oracles.barycenter(x)
    return (int(6 * bx), int(6 * by))


def test_bruhat_loop_against_descent_recursion_on_every_adm_pair():
    lams = [Weight(a, b, 0) for a in range(5) for b in range(a + 1)]
    for lam in lams + [Weight(3, 1, 1), Weight(3, 1, -1)]:
        elems = sorted(adm_set(lam).elements, key=elem_sort_key)
        alcoves = [_oracle_alcove(x) for x in elems]
        for x, a in zip(elems, alcoves):
            for y, b in zip(elems, alcoves):
                n = len(_BRUHAT_CACHE)
                assert bruhat_leq(x, y) == oracles.bruhat_leq_descent(a, b), (lam, x, y)
                # the loop caches the queried pair only
                assert len(_BRUHAT_CACHE) <= n + 1


def test_ext_affine_equals_and_hashes_as_its_pair():
    rng = random.Random(13)
    elems = list(_grid()) + [random_element(rng, span=40) for _ in range(200)]
    for x in elems:
        pair = (x.nu, x.w)
        assert hash(x) == hash(pair)
        assert x == pair and pair == x and not x != pair
        twin = ExtAffine(Weight(*x.nu), x.w)
        assert twin == x and twin is not x and hash(twin) == hash(x)
    assert len(set(elems)) == len({(x.nu, x.w) for x in elems})
    with pytest.raises(AttributeError):
        elems[0].nu = Weight(0, 0, 0)


# sha256 of the repr of adm_set(lam).sorted_elements() over the grid of
# test_adm_set_against_subword_oracle_on_grid, as the frozen-dataclass
# ExtAffine with the lru-cached length in its sort key gave it
_GRID_SORTED_SHA256 = "7cb517d70e9f422024e772a3e9eedbbf3334e5990acdd4280647b26e95c5b84e"


def test_adm_sorted_elements_keep_their_order():
    digest = hashlib.sha256()
    for a in range(1, 7):
        for b in range(a + 1):
            for c in range(-3, 4):
                adm = adm_set(Weight(a, b, c))
                got = adm.sorted_elements()
                digest.update(repr(got).encode())
                if c == 0:
                    assert got == _oracle_sorted(adm.elements)
    assert digest.hexdigest() == _GRID_SORTED_SHA256
    for lam in (Weight(12, 5, 0), Weight(40, 15, 0)):
        adm = adm_set(lam)
        assert adm.sorted_elements() == _oracle_sorted(adm.elements), lam


def _oracle_sorted(elems):
    return sorted(elems, key=lambda x: (oracles.length(x), tuple(x.nu), x.w.word))


def test_adm_sorted_elements_make_each_alcove_once(monkeypatch):
    # the closure hands each element over with its alcove, and the sort
    # reads that alcove: the alcove_of calls left are the generators',
    # in translation_generators' sort and as the closure's seeds
    calls = []
    real = affine.alcove_of

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(affine, "alcove_of", counted)
    monkeypatch.setattr(admissible, "alcove_of", counted)
    for lam in (Weight(2, 1, 0), Weight(6, 3, -1), Weight(12, 5, 0)):
        calls.clear()
        got = adm_set(lam).sorted_elements()
        assert len(calls) <= len(got), (lam, len(calls), len(got))


def test_restricted_alcove_chain():
    a0, a1, a2, a3 = RESTRICTED_ALCOVES
    assert a0 == BASE_ALCOVE
    assert (a1, a2, a3) == (
        Alcove(5, 3),
        Alcove(7, 3),
        Alcove(9, 5),
    )
    for lo, hi in ((a0, a1), (a1, a2), (a2, a3)):
        assert upper_arrow_leq_alcove(lo, hi)
        assert not upper_arrow_leq_alcove(hi, lo)
    assert upper_arrow_leq_alcove(a0, a3)
    # the chain from the base barycenter: reflect in the wall of root 2 at
    # m = 1, of root 3 at m = 1, of root 2 at m = 2, and scale by 6
    pt, chain = oracles.BASE, [BASE_ALCOVE]
    for i, m in ((2, 1), (3, 1), (2, 2)):
        pt = oracles._reflect(pt, i, m)
        chain.append(Alcove(6 * pt[0], 6 * pt[1]))
    assert tuple(chain) == RESTRICTED_ALCOVES
    assert all(is_restricted_alcove(a) for a in chain) and len(set(chain)) == 4


def test_arrow_is_partial_order_sample():
    rng = random.Random(7)
    pts = set()
    for _ in range(40):
        x = random_element(rng, span=2)
        pts.add(alcove_of(x))
    pts = sorted(pts)
    for a in pts:
        assert upper_arrow_leq_alcove(a, a)
    for a, b in itertools.product(pts, repeat=2):
        if a != b and upper_arrow_leq_alcove(a, b):
            assert not upper_arrow_leq_alcove(b, a)


def test_arrow_below_base_is_infinite_without_truncation():
    # the alcove two steps below the base alcove through the x+y walls
    c = Alcove(BASE_ALCOVE.x - 6, BASE_ALCOVE.y - 6)
    assert upper_arrow_leq_alcove(c, BASE_ALCOVE)
    assert not is_dominant_element(elem_of_alcove(c))


def test_dominant_down_set_sizes():
    sizes = [len(dominant_down_set(a)) for a in RESTRICTED_ALCOVES]
    assert sizes == [1, 2, 3, 4]
    # and each is totally ordered along the restricted chain
    for i, a in enumerate(RESTRICTED_ALCOVES):
        ds = dominant_down_set(a)
        assert set(ds) == {b for b in RESTRICTED_ALCOVES[: i + 1]}


def test_box_down_set_contains_nondominant():
    ds = box_down_set(BASE_ALCOVE, 4)
    assert BASE_ALCOVE in ds
    c = Alcove(BASE_ALCOVE.x - 6, BASE_ALCOVE.y - 6)
    assert c in ds
    assert len(ds) > 4
    for a in ds:
        assert upper_arrow_leq_alcove(a, BASE_ALCOVE)


def _box_top():
    """The deep dominant alcove whose radius-12 box criterion 3 reads."""
    return alcove_of(oracles.locate_point((Fraction(21, 2), Fraction(1, 4))))


def test_box_down_set_matches_the_wider_search():
    # box alcoves have x + y >= -6 radius and arrow chains never lower
    # x + y, so a search to that bound finds what a wider search finds
    for b, radius, size in ((_box_top(), 12, 1100), (BASE_ALCOVE, 4, 64)):
        r = 6 * radius
        wider = arrow_down_region(b, -r, -2 * r)
        in_box = frozenset(a for a in wider if all(abs(v) <= r for v in functional_values(a)))
        assert box_down_set(b, radius) == in_box
        assert len(in_box) == size


def test_diamond_against_search_oracle():
    for w in W_ALL:
        assert diamond(w) == oracles.diamond(w)


def test_diamond_table():
    table = {}
    for w in W_ALL:
        d = diamond(w)
        assert d.w is w and d.nu.c == 0
        assert is_restricted_element(d)
        table[w.display()] = ((d.nu.a, d.nu.b), restricted_alcove_index(alcove_of(d)))
    assert table == {
        "e": ((0, 0), 0),
        "s1": ((1, 0), 2),
        "s2": ((1, 1), 3),
        "s1s2": ((1, 0), 1),
        "s2s1": ((1, 1), 2),
        "s1s2s1": ((1, 0), 0),
        "s2s1s2": ((1, 1), 1),
        "s1s2s1s2": ((2, 1), 3),
    }


def test_highest_restricted():
    assert HIGHEST_RESTRICTED == ExtAffine(Weight(2, 1, -3), W_LONG)
    assert alcove_of(HIGHEST_RESTRICTED) == RESTRICTED_ALCOVES[3]
    assert compose(invert(HIGHEST_RESTRICTED), W0) == translation(ETA)
    assert length(HIGHEST_RESTRICTED) == 3


def test_locate_point_roundtrip():
    rng = random.Random(8)
    for _ in range(50):
        x = random_element(rng, span=2)
        a = alcove_of(x)
        u = elem_of_alcove(a)
        assert alcove_of(u) == a
        assert omega_class(u) == 0
    with pytest.raises(ValueError):
        locate_weight(Weight(1, 2, 0), 7)  # (lam + eta) / 7 on the wall x-y=0


def test_locate_weight_and_orbit():
    lam = Weight(5, 3, 0)
    assert weight_alcove_index(lam, 5) == 3
    kappa = orbit_weight(lam, 5, IDENTITY)
    assert kappa == Weight(0, 0, 4)
    assert weight_arrow_leq(kappa, lam, 5)
    assert not weight_arrow_leq(Weight(0, 0, 3), lam, 5)
    assert not weight_arrow_leq(lam, kappa, 5)


def test_p_dot_is_action():
    rng = random.Random(9)
    p = 7
    for _ in range(40):
        x, y = random_element(rng), random_element(rng)
        lam = Weight(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert p_dot(compose(x, y), lam, p) == p_dot(x, p_dot(y, lam, p), p)
    assert p_dot(IDENTITY, Weight(1, 2, 3), p) == Weight(1, 2, 3)


def test_upper_arrow_elements():
    a3 = elem_of_alcove(RESTRICTED_ALCOVES[3])
    assert upper_arrow_leq(IDENTITY, a3)
    assert not upper_arrow_leq(a3, IDENTITY)
    # different length-zero classes never compare
    shifted = compose(translation(Weight(0, 0, 1)), a3)
    assert not upper_arrow_leq(IDENTITY, shifted)


def test_normalize_c():
    # the central translation t_(0,0,c) splits off on either side
    x = ExtAffine(Weight(2, 1, -3), W_LONG)
    y = ExtAffine(Weight(2, 1, 0), W_LONG)
    central = translation(Weight(0, 0, -3))
    assert compose(central, y) == x == compose(y, central)


def test_functional_values_of_base():
    # barycenter values 1/3, 1/6, 2/3, 1/2, scaled by 6
    assert functional_values(BASE_ALCOVE) == (2, 1, 4, 3)
    assert functional_values(Alcove(-3, -1)) == (-2, -1, -4, -3)


def _grid():
    """Every t_nu * w with |nu_a|, |nu_b| <= 4, in two central classes."""
    for a, b, c in itertools.product(range(-4, 5), range(-4, 5), (0, -1)):
        for w in W_ALL:
            yield ExtAffine(Weight(a, b, c), w)


def test_integer_alcoves_against_barycenter_oracle():
    for x in _grid():
        bx, by = oracles.barycenter(x)
        assert alcove_of(x) == Alcove(6 * bx, 6 * by)
        assert length(x) == oracles.length(x)
        assert dual_length(x) == oracles.dual_length(x)
        assert is_restricted_element(x) == oracles.is_restricted(x)


def test_locate_weight_against_folding_oracle():
    # weights p-dot-moved from the lowest 7-alcove into every grid
    # element's alcove, one on the wall x = y, and a seeded sample with
    # coordinates in [-300, 300], walls included
    p = 7
    thetas = (Weight(0, 0, 0), Weight(2, 1, 1), Weight(1, 2, 0))
    cases = [(p_dot(x, theta, p), p) for x in _grid() for theta in thetas]
    rng = random.Random(18)
    cases += [(Weight(rng.randint(-300, 300), rng.randint(-300, 300), rng.randint(-3, 3)), q)
              for q in (5, 7, 11, 37, 41) for _ in range(200)]
    walls = 0
    for lam, q in cases:
        try:
            expect = oracles.locate_weight(lam, q)
        except ValueError:
            walls += 1
            with pytest.raises(ValueError, match="lies on a wall for p=%d$" % q):
                locate_weight(lam, q)
            continue
        assert locate_weight(lam, q) == expect
        assert weight_alcove(lam, q) == alcove_of(expect)
    assert 200 < walls < len(cases) // 2


def test_weight_alcove_of_far_weights():
    # far beyond the folding oracle's reach: the Shi coordinates of the
    # alcove are the floors of the functionals of lam + eta over p
    rng = random.Random(19)
    far = [(Weight(700002, 1, 0), 5), (Weight(123456789, -987654, 0), 41)]
    far += [(Weight(rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9), 0),
             rng.choice((5, 7, 11, 37, 41, 101))) for _ in range(2000)]
    far += [(Weight(k * p - 2, rng.randint(-10**9, 10**9), 0), p)  # X on a wall
            for k, p in ((10**7, 7), (-10**7, 11), (3 * 10**6, 41))]
    walls = 0
    for lam, p in far:
        mu = lam + ETA
        x, y = mu.a, mu.b
        on_wall = any(v % p == 0 for v in (x - y, y, x + y, x))
        if on_wall:
            walls += 1
            with pytest.raises(ValueError, match="lies on a wall for p=%d$" % p):
                weight_alcove(lam, p)
            continue
        a = weight_alcove(lam, p)
        assert shi_coordinates(a) == ((x - y) // p, y // p, (x + y) // p, x // p)
        u = locate_weight(lam, p)
        assert alcove_of(u) == a and omega_class(u) == 0
        assert weight_alcove(p_dot(invert(u), lam, p), p) == BASE_ALCOVE
    assert 3 <= walls < len(far) // 2


def test_in_omega_is_length_zero():
    for x in _grid():
        assert in_omega(x) == (length(x) == 0)


def test_arrow_order_against_barycenter_oracle():
    # a seeded sample of criterion 3's box, at small x so that the
    # oracle's rational searches stay shallow
    band = sorted(a for a in box_down_set(_box_top(), 12) if a.x <= 6 * 4)
    sample = random.Random(12).sample(band, 20) + list(RESTRICTED_ALCOVES)
    for a, b in itertools.product(sample, repeat=2):
        expect = oracles.upper_arrow_leq(
            (Fraction(a.x, 6), Fraction(a.y, 6)), (Fraction(b.x, 6), Fraction(b.y, 6))
        )
        assert upper_arrow_leq_alcove(a, b) == expect


def test_arrow_order_against_downward_search_on_far_pairs():
    # a seeded sample of criterion 3's whole box, so that many pairs lie
    # far apart and the upward search goes deep; the downward search
    # bounded by the sample's least x and x+y is complete for every pair
    box = sorted(box_down_set(_box_top(), 12))
    sample = random.Random(5).sample(box, 64) + list(RESTRICTED_ALCOVES)
    min_x = min(a.x for a in sample)
    min_s = min(a.x + a.y for a in sample)
    related = 0
    for b in sample:
        below = arrow_down_region(b, min_x, min_s)
        for a in sample:
            assert upper_arrow_leq_alcove(a, b) == (a in below)
            related += a in below
    # the sample is not trivially related or unrelated
    assert len(sample) < related < len(sample) ** 2 // 2
