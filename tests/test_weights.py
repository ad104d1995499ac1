import os
import random

import pytest

from gsp4weights.base import ETA, W_ALL, W_E, Weight, lowest_alcove_depth, weyl_inv
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    IDENTITY,
    W0,
    compose,
    compose_all,
    diamond,
    finite,
    invert,
    translation,
)
from gsp4weights.admissible import adm_set, is_regular_element
from gsp4weights.weights import (
    APPair,
    GenericityError,
    LowestAlcovePresentation,
    SerreWeight,
    TamePresentation,
    alcove_shift,
    alcove_shift_inv,
    ap_target,
    compat_element,
    enumerate_ap,
    enumerate_ap_prime,
    intersect_w_jh,
    jh_factors,
    jh_set,
    normalize_central,
    obvious_weights,
    outer_weight_at,
    outer_weights,
    param_from_target,
    param_of_reduction,
    predicted_pair_of_weight,
    predicted_set_via_shift,
    predicted_weight_at,
    presentation_of,
    random_deep_presentation,
    rotate_left,
    serre_weight_of_presentation,
    t_compose,
    t_invert,
    type_from_target,
    w_question,
    w_question_set,
    weight_class_arrow_leq,
)
from gsp4weights.adjacency import build_instance, valid_simples
from gsp4weights.cli import load_presentation

import oracles

P = 37


def rho_fixture(seed=5, p=P, f=1, depth=8):
    rng = random.Random(seed)
    return random_deep_presentation(p, f, depth, rng, kind="param")


def tau_fixture(seed=6, p=P, f=1, depth=6):
    rng = random.Random(seed)
    return random_deep_presentation(p, f, depth, rng, kind="type")


def test_normalize_central():
    assert normalize_central((P - 1,), P) == (0,)
    assert normalize_central((3,), P) == (3,)
    assert normalize_central((-1,), P) == (P - 2,)
    # f = 2: lattice spanned by (1, -p) and (0, p^2 - 1)
    assert normalize_central((1, -P), P) == (0, 0)
    assert normalize_central((0, P * P - 1), P) == (0, 0)
    assert normalize_central((2, 5), P) == (0, 5 + 2 * P)


def test_serre_weight_normal_form():
    s1 = SerreWeight.make(P, (Weight(4, 2, 7),))
    s2 = SerreWeight.make(P, (Weight(4, 2, 7 + (P - 1) * 3),))
    assert s1 == s2
    with pytest.raises(ValueError):
        SerreWeight.make(P, (Weight(P, 0, 0),))


def test_regular_flag():
    assert SerreWeight.make(P, (Weight(4, 2, 0),)).is_regular()
    assert not SerreWeight.make(P, (Weight(P - 1, 0, 0),)).is_regular()


def test_identity_presentation():
    omega = Weight(10, 5, 1)
    pres = LowestAlcovePresentation((IDENTITY,), (omega,))
    got = serre_weight_of_presentation(pres, P)
    assert got == SerreWeight.make(P, (omega - ETA,))


def test_presentation_equivalence_central_shifts():
    rng = random.Random(11)
    rho = rho_fixture()
    table = w_question(rho)
    pairs = list(table)
    for _ in range(1000):
        pair = rng.choice(pairs)
        nu = Weight(0, 0, rng.randint(-6, 6))
        w1 = tuple(compose(translation(nu), x) for x in pair.w2)
        omega0 = tuple(
            compose(a, invert(b)).nu for a, b in zip(rho.w_tilde(), pair.w1)
        )
        shifted = LowestAlcovePresentation(w1, tuple(o - nu for o in omega0))
        assert serre_weight_of_presentation(shifted, P) == table[pair]


def test_presentation_rotation_f2():
    # for f = 2 the rotation applied twice is the identity on classes
    lam = (Weight(20, 10, 0), Weight(16, 8, 1))
    sig = SerreWeight.make(P, lam)
    pres = presentation_of(sig)
    assert rotate_left(rotate_left(pres.w1)) == pres.w1
    assert serre_weight_of_presentation(pres, P) == sig


def test_ap_counts_and_targets():
    ap = enumerate_ap(1)
    app = enumerate_ap_prime(1)
    assert len(ap) == 20 and len(app) == 20
    regs = {x for x in adm_set(ETA).elements if is_regular_element(x)}
    targets = [ap_target(pr)[0] for pr in ap]
    assert len(set(targets)) == len(targets)
    assert set(targets) == regs
    assert len(enumerate_ap(2)) == 400


def test_ap_contains_outer_and_obvious_pairs():
    ap1 = {(pr.w1[0], pr.w2[0]) for pr in enumerate_ap(1)}
    app1 = {(pr.w1[0], pr.w2[0]) for pr in enumerate_ap_prime(1)}
    for w in W_ALL:
        d = diamond(w)
        assert (d, compose(HIGHEST_RESTRICTED, d)) in ap1
        assert (d, d) in app1


def test_jh_injective_random_types():
    rng = random.Random(21)
    for _ in range(10):
        tau = random_deep_presentation(P, 1, 6, rng, kind="type")
        table = jh_factors(tau)
        assert len(set(table.values())) == len(table) == 20


def test_jh_outer_weights_distinct():
    tau = tau_fixture()
    out = outer_weights(tau)
    assert len(out) == 8
    assert len(set(out.values())) == 8
    for ws, sigma in out.items():
        assert outer_weight_at(tau, ws) == sigma


def test_jh_depth_guard():
    shallow = TamePresentation("type", (W_E,), (Weight(1, 0, 0),), P)
    assert shallow.depth() < 3
    with pytest.raises(GenericityError):
        jh_factors(shallow)
    # thresholds are data: an explicit lower bound is allowed
    jh_factors(tau_fixture(), min_depth=1)


def test_wq_injective_and_sizes():
    rho = rho_fixture()
    table = w_question(rho)
    assert len(table) == 20
    assert len(set(table.values())) == 20
    obv = obvious_weights(rho)
    assert len(set(obv.values())) == 8
    assert set(obv.values()) <= set(table.values())
    inv = predicted_pair_of_weight(rho)
    assert len(inv) == 20


def test_wq_cross_check_alcove_shift():
    for seed in (5, 17, 23):
        rho = rho_fixture(seed=seed)
        assert predicted_set_via_shift(rho) == w_question_set(rho)


def test_alcove_shift_bijection():
    rho = rho_fixture()
    sigmas = [s for s in w_question_set(rho) if s.is_regular()]
    assert sigmas
    for s in sigmas:
        assert alcove_shift_inv(alcove_shift(s)) == s


def test_depth_audit_deep_prime():
    # at p = 41 a 9-deep parameter exists; predicted weights stay >= 3-deep
    rng = random.Random(31)
    rho = random_deep_presentation(41, 1, 9, rng, kind="param")
    assert rho.depth() >= 9
    for sigma in w_question_set(rho):
        assert sigma.depth() >= 3


def test_jh_f2_product_structure():
    # split type with equal halves: the embedding rotation couples the
    # components, but each diagonal product pair reproduces the f=1 value
    # in both slots
    tau1 = tau_fixture(seed=61)
    tau = TamePresentation("type", tau1.s + tau1.s, tau1.mu + tau1.mu, P)
    table1 = jh_factors(tau1)
    table2 = jh_factors(tau)
    assert len(set(table2.values())) == 400
    for pair1, sig1 in table1.items():
        pair2 = APPair(pair1.w1 + pair1.w1, pair1.w2 + pair1.w2, "AP")
        lam = sig1.parts[0]
        assert table2[pair2] == SerreWeight.make(P, (lam, lam))


def test_type_from_target_trivial_and_obvious():
    rho = rho_fixture()
    tau = type_from_target(rho, (IDENTITY,))
    assert tau.w_tilde() == rho.w_tilde()
    assert compat_element(rho, tau) == (IDENTITY,)
    for w in W_ALL:
        d = diamond(w)
        g = compose_all(invert(d), invert(HIGHEST_RESTRICTED), W0, d)
        # the target is a pure translation by w^(-1)(eta)
        assert g == translation(weyl_inv(w).act(ETA))
        tau_w = type_from_target(rho, (g,))
        inter = intersect_w_jh(rho, tau_w)
        obv = obvious_weights(rho)
        assert inter == frozenset({obv[(w,)]})


def test_type_from_target_depth_bound():
    rng = random.Random(41)
    rho = rho_fixture()
    adm = sorted(adm_set(ETA).elements, key=lambda x: str(x))
    for _ in range(1000):
        g = (rng.choice(adm),)
        tau = type_from_target(rho, g)
        assert tau.depth() >= rho.depth() - 3


def test_type_from_target_malformed():
    rho = rho_fixture()
    with pytest.raises(ValueError):
        type_from_target(rho, (translation(Weight(30, 0, 0)),))


def test_disjoint_presentations_empty_intersection():
    rho = rho_fixture()
    g = (translation(Weight(3, 0, 0)),)  # not admissible for eta
    from gsp4weights.affine import length

    assert length(g[0]) == 9
    tau = type_from_target(rho, g)
    assert intersect_w_jh(rho, tau) == frozenset()


def test_param_of_reduction_and_param_from_target():
    rho = rho_fixture()
    tau = param_of_reduction(rho)
    assert tau.kind == "type" and tau.s == rho.s and tau.mu == rho.mu
    back = param_from_target(rho, (IDENTITY,))
    assert back.kind == "param"
    assert back.s == rho.s and back.mu == rho.mu


def test_covering_uparrow_sampled():
    rng = random.Random(51)
    tau = tau_fixture(seed=61, depth=6)
    table = jh_factors(tau)
    by_weight = {v: k for k, v in table.items()}
    deep = [s for s in by_weight if s.depth() >= 6]
    assert deep
    sigma0 = max(deep, key=lambda s: s.sort_key())
    pair0 = by_weight[sigma0]
    below = [s for s in by_weight if weight_class_arrow_leq(s, sigma0)]
    assert sigma0 in below
    assert len(below) >= 2
    kappa = invert(pair0.w2[0]).nu
    omega0 = compose(tau.w_tilde()[0], invert(pair0.w2[0])).nu
    count = 0
    tries = 0
    while count < 50 and tries < 2000:
        tries += 1
        s_new = rng.choice(W_ALL)
        mu_new = omega0 - ETA - s_new.act(kappa)
        if lowest_alcove_depth(mu_new, P) < 3:
            continue
        tau2 = TamePresentation("type", (s_new,), (mu_new,), P)
        jh2 = jh_set(tau2)
        if sigma0 not in jh2:
            continue
        count += 1
        for s in below:
            assert s in jh2
    assert count >= 50


def test_weight_class_arrow_basic():
    s0 = SerreWeight.make(P, (Weight(16, 8, 0),))
    assert weight_class_arrow_leq(s0, s0)
    rho = rho_fixture()
    table = w_question(rho)
    obv = obvious_weights(rho)
    # the obvious weight of e sits arrow-below the one attached to w0 when
    # their pairs share the length-zero part; just check antisymmetry on
    # the predicted set
    vals = sorted(set(table.values()), key=lambda s: s.sort_key())
    for a in vals[:8]:
        for b in vals[:8]:
            if a != b and weight_class_arrow_leq(a, b):
                assert not weight_class_arrow_leq(b, a)


# --- the slot-wise kernel against the brute-force oracle -------------------

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
PRESENTATION_FIXTURES = ("rb1.json", "rb41.json", "rb_f2.json", "tau1.json")


def _fixture(name):
    return load_presentation(os.path.join(FIXTURES, name))


def _both_kinds(pres):
    return (TamePresentation("param", pres.s, pres.mu, pres.p),
            TamePresentation("type", pres.s, pres.mu, pres.p))


@pytest.mark.parametrize("name", PRESENTATION_FIXTURES)
def test_kernel_tables_match_oracle_on_fixtures(name):
    rho, tau = _both_kinds(_fixture(name))
    # same keys, values and order
    wq = w_question(rho)
    assert list(wq.items()) == list(oracles.w_question(rho).items())
    assert list(jh_factors(tau).items()) == list(oracles.jh_factors(tau).items())
    for pair, sigma in wq.items():
        assert predicted_weight_at(rho, pair) == sigma


def _instances(rho, count=None, rng=None):
    """Adjacency instances of rho: all of them, or `count` seeded draws."""
    if count is None:
        for pair in enumerate_ap_prime(rho.f):
            for s in valid_simples(pair):
                yield build_instance(rho, pair, s, check=False)
        return
    pairs = enumerate_ap_prime(rho.f)
    for _ in range(count):
        pair = rng.choice(pairs)
        yield build_instance(rho, pair, rng.choice(valid_simples(pair)), check=False)


def _assert_intersection_matches(inst):
    got = intersect_w_jh(inst.rhobar0, inst.tau)
    assert got == oracles.intersect_w_jh(inst.rhobar0, inst.tau)
    assert got == {inst.sigma1, inst.sigma2}
    assert predicted_weight_at(inst.rhobar, inst.pair) == inst.sigma1


@pytest.mark.parametrize("name", ("rb1.json", "rb41.json"))
def test_kernel_intersection_matches_oracle_on_every_f1_instance(name):
    count = 0
    for inst in _instances(_fixture(name)):
        _assert_intersection_matches(inst)
        count += 1
    assert count == 34


def test_kernel_intersection_matches_oracle_on_f2_sample():
    rng = random.Random(2024)
    rhos = [_fixture("rb_f2.json")] + [rho_fixture(seed=seed, f=2) for seed in (3, 4)]
    for rho in rhos:
        for inst in _instances(rho, 12, rng):
            _assert_intersection_matches(inst)


def test_kernel_intersection_matches_oracle_on_f3_sample():
    rng = random.Random(303)
    for seed in (1, 2, 3):
        rho = rho_fixture(seed=seed, f=3)
        for inst in _instances(rho, 1, rng):
            _assert_intersection_matches(inst)


def test_kernel_intersection_matches_oracle_on_random_targets():
    # targets w(rhobar, tau) drawn from Adm(eta): intersections of up to
    # 120 weights, where the slot-wise (a, b) filter admits many tuples
    rng = random.Random(77)
    adm = sorted(adm_set(ETA).elements, key=lambda x: x.display())
    sizes = set()
    for seed in (5, 6, 7, 8):
        rho = rho_fixture(seed=seed, f=2)
        for _ in range(3):
            tau = type_from_target(rho, tuple(rng.choice(adm) for _ in range(2)))
            got = intersect_w_jh(rho, tau)
            assert got == oracles.intersect_w_jh(rho, tau)
            sizes.add(len(got))
    assert len(sizes) > 3


def _error_of(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_kernel_errors_match_oracle():
    # too shallow for the default depth: refused before any weight
    shallow = TamePresentation("param", (W_E, W_E), (Weight(1, 0, 0), Weight(16, 8, 0)), P)
    assert shallow.depth() < 3
    # allowed at depth 0, but thetas leave the lowest alcove: refused by
    # the lowest-alcove check of a weight part
    edge = TamePresentation("param", (W_E, W_E), (Weight(16, 8, 0), Weight(1, 0, 0)), P)
    assert edge.depth() == 0
    _, deep_tau = _both_kinds(_fixture("rb_f2.json"))
    for pres, depth in ((shallow, 3), (edge, 0)):
        rho, tau = _both_kinds(pres)
        for fast, slow, arg in ((w_question, oracles.w_question, rho),
                                (jh_factors, oracles.jh_factors, tau)):
            assert _error_of(fast, arg, depth)[0] is _error_of(slow, arg, depth)[0] is GenericityError
        assert (_error_of(intersect_w_jh, rho, deep_tau, depth)[0]
                is _error_of(oracles.intersect_w_jh, rho, deep_tau, depth)[0])
    # the lowest-alcove failure reads the same on both sides
    rho, tau = _both_kinds(edge)
    assert _error_of(w_question, rho, 0) == _error_of(oracles.w_question, rho, 0)
    assert _error_of(jh_factors, tau, 0) == _error_of(oracles.jh_factors, tau, 0)
    # the wrong kind of presentation
    assert _error_of(w_question, tau)[0] is _error_of(oracles.w_question, tau)[0] is ValueError
    assert _error_of(jh_factors, rho)[0] is _error_of(oracles.jh_factors, rho)[0] is ValueError
