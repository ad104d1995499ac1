import itertools
import os
import random

import pytest

from gsp4weights.base import (
    ETA,
    POSITIVE_COROOTS,
    SIMPLE_INDICES,
    W_ALL,
    W_E,
    Coweight,
    Weight,
    lowest_alcove_depth,
    pairing,
    weyl_inv,
)
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    IDENTITY,
    W0,
    compose,
    compose_all,
    diamond,
    invert,
    translation,
)
from gsp4weights.admissible import adm_set, elem_sort_key, is_regular_element
from gsp4weights.weights import (
    APPair,
    GenericityError,
    SerreWeight,
    TamePresentation,
    compat_element,
    enumerate_ap,
    enumerate_ap_prime,
    intersect_w_jh,
    jh_factors,
    jh_set,
    obvious_weights,
    presentation_from_w_tilde,
    t_compose,
    t_invert,
    type_from_target,
    w_question,
    w_question_set,
)
from gsp4weights import weights
from gsp4weights.config import derived_depth_bound
from gsp4weights.adjacency import build_instance, valid_simples
from gsp4weights.cli import load_presentation

import oracles
from crosschecks import (
    conjugated_target,
    outer_pair,
    random_deep_presentation,
    weight_class_arrow_leq,
)
from oracles import LowestAlcovePresentation, normalize_central, serre_weight_of_presentation

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


@pytest.mark.parametrize("p", [5, 7, 37, 41])
def test_normalize_central_against_hnf_oracle(p):
    # per coordinate: around 0, around p, and p^2 - 1; then seeded large
    # values of both signs
    grid = (-p, -1, 0, 1, 2, p - 2, p - 1, p, p + 1, p * p - 1)
    rng = random.Random(p)
    for f in range(1, 5):
        for cs in itertools.product(grid, repeat=f):
            assert normalize_central(cs, p) == oracles.normalize_central_hnf(cs, p), cs
        for _ in range(200):
            cs = tuple(rng.randrange(-10 ** 12, 10 ** 12) for _ in range(f))
            assert normalize_central(cs, p) == oracles.normalize_central_hnf(cs, p), cs


@pytest.mark.parametrize("p", [5, 37, 131])
def test_trusted_weights_fold_the_central_integer_as_the_oracle_does(p):
    # seeded parts of both signs of c, given as Weights and as plain
    # triples: the weight keeps each (a, b) and the oracle's central tuple
    rng = random.Random(p)
    for f in range(1, 5):
        signs = set()
        for _ in range(300):
            parts = [(rng.randrange(p), rng.randrange(p), rng.randrange(-3 * p ** f, 3 * p ** f))
                     for _ in range(f)]
            cs = normalize_central(tuple(c for _, _, c in parts), p)
            want = SerreWeight(p, tuple(Weight(a, b, c) for (a, b, _), c in zip(parts, cs)))
            for given in (parts, tuple(Weight(*lam) for lam in parts)):
                got = SerreWeight._trusted(p, given)
                assert got == want and type(got.parts) is tuple
                assert all(type(lam) is Weight for lam in got.parts)
            signs |= {c < 0 for _, _, c in parts}
        assert signs == {False, True}


def test_p_restricted_is_read_off_the_simple_coroot_pairings():
    # is_p_restricted reads the pairings with the simple coroots as a - b and b
    simple = tuple(POSITIVE_COROOTS[i] for i in SIMPLE_INDICES)
    assert simple == (Coweight(1, -1, 0), Coweight(0, 1, 0))
    grid = itertools.product(range(-3, 12), range(-3, 9), (-2, 0, 5))
    for lam, p in itertools.product(itertools.starmap(Weight, grid), (5, 7)):
        assert weights.is_p_restricted(lam, p) == all(0 <= pairing(lam, c) < p for c in simple)


def test_serre_weight_normal_form():
    s1 = SerreWeight.make(P, (Weight(4, 2, 7),))
    s2 = SerreWeight.make(P, (Weight(4, 2, 7 + (P - 1) * 3),))
    assert s1 == s2
    with pytest.raises(ValueError):
        SerreWeight.make(P, (Weight(P, 0, 0),))


def test_regular_flag():
    assert oracles.is_regular_weight(SerreWeight.make(P, (Weight(4, 2, 0),)))
    assert not oracles.is_regular_weight(SerreWeight.make(P, (Weight(P - 1, 0, 0),)))


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
    pres = oracles.presentation_of(sig)
    assert serre_weight_of_presentation(pres, P) == sig


def test_ap_counts_and_targets():
    ap = enumerate_ap(1)
    app = enumerate_ap_prime(1)
    assert len(ap) == 20 and len(app) == 20
    regs = {x for x in adm_set(ETA).elements if is_regular_element(x)}
    targets = [compose_all(invert(pr.w2[0]), W0, pr.w1[0]) for pr in ap]
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


@pytest.mark.parametrize("f", (1, 2, 3))
def test_pair_enumerations_are_disjoint_and_sorted(f):
    # no AP single is an AP' single, so a pair's slots tell its kind; and
    # each enumeration comes out in the order the ap and weights outputs
    # list it, slot by slot by the keys of w1_j and w2_j
    singles = [{(pr.w1[0], pr.w2[0]) for pr in enum(1)}
               for enum in (enumerate_ap, enumerate_ap_prime)]
    assert not singles[0] & singles[1]
    for pairs in (enumerate_ap(f), enumerate_ap_prime(f)):
        assert list(pairs) == sorted(pairs, key=lambda pr: tuple(
            elem_sort_key(a) + elem_sort_key(b) for a, b in zip(pr.w1, pr.w2)))


def test_jh_injective_random_types():
    rng = random.Random(21)
    for _ in range(10):
        tau = random_deep_presentation(P, 1, 6, rng, kind="type")
        table = jh_factors(tau)
        assert len(set(table.values())) == len(table) == 20


def test_jh_outer_weights_distinct():
    tau = tau_fixture()
    table = jh_factors(tau)
    out = [table[outer_pair((w,))] for w in W_ALL]
    assert len(set(out)) == 8


def test_jh_depth_guard(monkeypatch):
    shallow = TamePresentation.make("type", (W_E,), (Weight(1, 0, 0),), P)
    assert shallow.depth() < 3
    with pytest.raises(GenericityError):
        jh_factors(shallow)
    # thresholds are data: the policy's one threshold may be lowered
    monkeypatch.setattr(weights, "WEIGHT_DEPTH", 1)
    jh_factors(tau_fixture())


def test_make_refuses_what_no_presentation_is():
    # the one maker refuses, in this order, an unknown kind, s and mu of
    # different lengths, and no embedding; what it makes carries the
    # depth of its mu and equals the plain tuple of its fields
    with pytest.raises(ValueError, match="^kind must be 'type' or 'param'$"):
        TamePresentation.make("typ", (), (Weight(12, 8, 0),), P)
    with pytest.raises(ValueError, match="^mismatched tuple lengths$"):
        TamePresentation.make("type", (), (Weight(12, 8, 0),), P)
    with pytest.raises(ValueError, match="^a presentation needs at least one embedding$"):
        TamePresentation.make("param", (), (), P)
    mu = (Weight(12, 8, 0), Weight(1, 0, 0))
    pres = TamePresentation.make("param", (W_E, W_E), mu, P)
    assert pres.depth() == pres.mu_depth == lowest_alcove_depth(Weight(1, 0, 0), P)
    assert pres == ("param", (W_E, W_E), mu, P, pres.mu_depth)


def test_wq_injective_and_sizes():
    rho = rho_fixture()
    table = w_question(rho)
    assert len(table) == 20
    assert len(set(table.values())) == 20
    obv = obvious_weights(rho)
    assert len(set(obv.values())) == 8
    assert set(obv.values()) <= set(table.values())


def test_wq_cross_check_alcove_shift():
    for seed in (5, 17, 23):
        rho = rho_fixture(seed=seed)
        assert oracles.predicted_set_via_shift(rho) == w_question_set(rho)


def _herzig_identity_holds(rho, r=oracles.herzig_r):
    jh = jh_set(oracles.param_of_reduction(rho))
    return w_question_set(rho) == {r(s) for s in jh}


def _herzig_grid():
    """246 seeded parameters: f = 1, 2, 3 at depths 4, 6, 9 over seven primes."""
    rng = random.Random(7)
    for f, count, depth in ((1, 200, 4), (2, 40, 6), (3, 6, 9)):
        for _ in range(count):
            p = rng.choice((37, 41, 43, 53, 61, 67, 101))
            yield random_deep_presentation(p, f, depth, rng, kind="param")


def test_w_question_is_herzig_r_of_the_reduction_jh_set():
    # W?(rhobar) = R(JH(tau_rhobar)), with tau_rhobar the type of the same
    # data (Herzig, Duke 2009, sec. 6; Gee-Herzig-Savitt, JEMS 2018)
    rhos = [_fixture(name) for name in ("rb1.json", "rb41.json", "rb_f2.json")]
    rhos += _herzig_grid()
    assert len(rhos) == 3 + 246
    assert [rho for rho in rhos if not _herzig_identity_holds(rho)] == []


@pytest.mark.parametrize("control", ({"shift": 0}, {"w": W_E}), ids=("no-p-eta", "w0-is-e"))
def test_herzig_r_negative_controls(control):
    # without the -p eta shift, or with e for w0, some part leaves the
    # p-restricted range, so R of the JH set is not even a set of weights
    rho = _fixture("rb1.json")
    with pytest.raises(ValueError, match="is not p-restricted$"):
        _herzig_identity_holds(rho, lambda s: oracles.herzig_r(s, **control))


def _phi_holds(rho, phi):
    wq = w_question(rho)
    return all(wq[phi(pair)] == oracles.herzig_r(sigma)
               for pair, sigma in jh_factors(oracles.param_of_reduction(rho)).items())


def test_phi_is_a_bijection_of_ap_onto_ap_prime():
    images = {oracles.phi_map()(pair) for pair in enumerate_ap(1)}
    assert len(images) == 20 and images == set(enumerate_ap_prime(1))


@pytest.mark.parametrize("f, seed, primes, count, fixtures", (
    (1, 3, (41, 53, 61, 37, 43, 67, 101), 40, ("rb1.json", "rb41.json")),
    (2, 7, (37, 41, 53, 61, 67, 101), 4, ("rb_f2.json",)),
), ids=("f1", "f2"))
def test_phi_carries_r_pair_by_pair(f, seed, primes, count, fixtures):
    # W?(rhobar)[phi(P)] = R(JH(tau_rhobar)[P]) for every AP pair P, with
    # phi applied slot by slot at f = 2: 282 parameters at f = 1, 25 at f = 2
    rng = random.Random(seed)
    rhos = [_fixture(name) for name in fixtures]
    rhos += [random_deep_presentation(p, f, 6, rng, kind="param")
             for p in primes for _ in range(count)]
    phi = oracles.phi_map()
    assert [rho for rho in rhos if not _phi_holds(rho, phi)] == []


def test_phi_with_two_entries_swapped_fails():
    keys = list(oracles.PHI)
    table = dict(oracles.PHI)
    table[keys[0]], table[keys[1]] = table[keys[1]], table[keys[0]]
    assert not _phi_holds(_fixture("rb1.json"), oracles.phi_map(table))


def test_alcove_shift_bijection():
    rho = rho_fixture()
    sigmas = [s for s in w_question_set(rho) if oracles.is_regular_weight(s)]
    assert sigmas
    for s in sigmas:
        assert oracles.alcove_shift_inv(oracles.alcove_shift(s)) == s


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
    tau = TamePresentation.make("type", tau1.s + tau1.s, tau1.mu + tau1.mu, P)
    table1 = jh_factors(tau1)
    table2 = jh_factors(tau)
    assert len(set(table2.values())) == 400
    for pair1, sig1 in table1.items():
        pair2 = APPair(pair1.w1 + pair1.w1, pair1.w2 + pair1.w2)
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


def test_type_from_target_warns_below_the_derived_bound(caplog):
    # Adm(eta) keeps a type within 3 of the parameter's depth, so a seeded
    # search draws targets from the larger Adm(3, 1, 0); each draw warns
    # exactly when the type is shallower than derived_depth_bound
    rng = random.Random(0)
    targets = sorted(adm_set(Weight(3, 1, 0)).elements, key=elem_sort_key)
    caplog.set_level("WARNING", logger="gsp4weights.weights")
    warned = quiet = 0
    for _ in range(40):
        rho = random_deep_presentation(41, 1, 6, rng, kind="param")
        caplog.clear()
        try:
            tau = type_from_target(rho, (rng.choice(targets),))
        except ValueError:  # the type's mu leaves the lowest alcove
            continue
        below = tau.depth() < derived_depth_bound(rho.depth())
        assert [r.getMessage() for r in caplog.records] == [
            "type depth %d below the expected bound for a %d-deep parameter"
            % (tau.depth(), rho.depth())] * below
        warned, quiet = warned + below, quiet + (not below)
    assert warned and quiet


def test_type_from_target_malformed():
    rho = rho_fixture()
    with pytest.raises(ValueError):
        type_from_target(rho, (translation(Weight(30, 0, 0)),))


def test_presentation_from_w_tilde_names_the_first_bad_slot():
    good, bad, worse = (translation(Weight(a, 1, 0)) for a in (3, 40, 50))
    assert presentation_from_w_tilde("type", (good, good), P).depth() == 0
    for wt, named in (((good, bad), bad), ((worse, bad), worse)):
        with pytest.raises(ValueError) as info:
            presentation_from_w_tilde("type", wt, P)
        assert str(info.value) == "translation part is not in the lowest alcove: %r" % (named,)


def test_disjoint_presentations_empty_intersection():
    rho = rho_fixture()
    g = (translation(Weight(3, 0, 0)),)  # not admissible for eta
    from gsp4weights.affine import length

    assert length(g[0]) == 9
    tau = type_from_target(rho, g)
    assert intersect_w_jh(rho, tau) == frozenset()


def test_param_of_reduction_and_param_from_target():
    rho = rho_fixture()
    tau = oracles.param_of_reduction(rho)
    assert tau.kind == "type" and tau.s == rho.s and tau.mu == rho.mu
    back = presentation_from_w_tilde(
        "param", t_compose(rho.w_tilde(), t_invert((IDENTITY,))), rho.p)
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
        tau2 = TamePresentation.make("type", (s_new,), (mu_new,), P)
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


def _kernel_at(pres, pair):
    """F_pres at one pair tuple, read alone at its one index tuple: no
    table and no full slot is made."""
    index = weights._singles(pres.kind).index
    xs, ys = (pair.w1, pair.w2) if pres.kind == "param" else (pair.w2, pair.w1)
    combo = tuple(index[pr] for pr in zip(xs, ys))
    return weights._SlotTable.weight(pres, pres.kind, combo)


def _both_kinds(pres):
    return (TamePresentation.make("param", pres.s, pres.mu, pres.p),
            TamePresentation.make("type", pres.s, pres.mu, pres.p))


def test_kernel_keys_parts_by_the_distinct_x_of_each_kind():
    # a part y . theta depends on a single only through its x (w2 for a
    # type, w1 for a parameter), so the 20 singles of a kind fall into 12
    # theta classes; at f = 1 a row holds the thetas of its y's own
    # singles, all distinct, and a theta pair leads to distinct next rows
    for kind, ix in (("type", 1), ("param", 0)):
        sing = weights._singles(kind)
        assert (len(sing.pairs), len(sing.members)) == (20, 12)
        assert sorted(sum(sing.members, ())) == list(range(20))
        assert len({sing.pairs[ks[0]][ix] for ks in sing.members}) == 12
        for k, pr in enumerate(sing.pairs):
            assert k in sing.members[sing.x_slot[k]]
            assert {sing.pairs[m][ix] for m in sing.members[sing.x_slot[k]]} == {pr[ix]}
        for i, ts in enumerate(sing.own):
            assert len(set(ts)) == len(ts)
            assert set(ts) == {sing.x_slot[k] for k in range(20) if sing.y_slot[k] == i}
    for row in weights._next_rows():
        assert len(row) == 12 and all(len(set(nexts)) == len(nexts) > 0 for nexts in row)


@pytest.mark.parametrize("name", PRESENTATION_FIXTURES)
def test_kernel_tables_match_oracle_on_fixtures(name):
    rho, tau = _both_kinds(_fixture(name))
    # same keys, values and order
    wq, jh = w_question(rho), jh_factors(tau)
    assert list(wq.items()) == list(oracles.w_question(rho).items())
    assert list(jh.items()) == list(oracles.jh_factors(tau).items())
    # the kernel on one tuple reads the same weight as on all of them
    for table, pres in ((wq, rho), (jh, tau)):
        for pair, sigma in table.items():
            assert _kernel_at(pres, pair) == sigma


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
    # tau and rhobar0 are assembled from per-slot constants; these are
    # their defining properties
    w1, w2 = inst.pair.w1, inst.pair.w2
    assert inst.tau == type_from_target(inst.rhobar, conjugated_target(w2, w1, inst.s))
    assert compat_element(inst.rhobar0, inst.tau) == conjugated_target(
        w2, w2, inst.s)
    got = intersect_w_jh(inst.rhobar0, inst.tau)
    assert got == oracles.intersect_w_jh(inst.rhobar0, inst.tau)
    assert got == {inst.sigma1, inst.sigma2}
    assert w_question(inst.rhobar)[inst.pair] == inst.sigma1


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


def test_join_matches_oracle_off_the_adjacency_locus():
    # rhobar against its instances' tau rather than rhobar0: intersections
    # of 2 to 32 weights, where several chains of slot matches survive
    rng = random.Random(15)
    sizes = set()
    for f, seeds, count in ((1, (5, 6, 7), 12), (2, (3, 4), 8)):
        for seed in seeds:
            rho = rho_fixture(seed=seed, f=f)
            for inst in _instances(rho, count, rng):
                got = intersect_w_jh(rho, inst.tau)
                assert got == oracles.intersect_w_jh(rho, inst.tau)
                sizes.add(len(got))
    assert min(sizes) == 2 and max(sizes) >= 24 and len(sizes) >= 6


def _labels(table):
    return [tuple(lam[:2] for lam in sigma.parts) for sigma in table.values()]


@pytest.mark.parametrize("name", ("rb41.json", "rb_f2.json"))
def test_join_compares_central_characters(name):
    # adding (0, 0, 1) to mu_0 moves every central integer of JH(tau) by
    # p^(f-1) and keeps every (a, b): the labels still join, the weights
    # do not meet.  Adding (0, 0, p - 1) to every mu_j moves them by
    # p^f - 1, which is no move: the weights still meet
    rho = _fixture(name)
    for inst in _instances(rho, 4, random.Random(8)):
        tau = inst.tau
        shifted = TamePresentation.make(
            "type", tau.s, (tau.mu[0] + Weight(0, 0, 1),) + tau.mu[1:], tau.p)
        assert _labels(jh_factors(shifted)) == _labels(jh_factors(tau))
        got = intersect_w_jh(inst.rhobar0, shifted)
        assert got == oracles.intersect_w_jh(inst.rhobar0, shifted) == frozenset()
        wrapped = TamePresentation.make(
            "type", tau.s, tuple(mu + Weight(0, 0, tau.p - 1) for mu in tau.mu), tau.p)
        assert jh_set(wrapped) == jh_set(tau)
        assert intersect_w_jh(inst.rhobar0, wrapped) == {inst.sigma1, inst.sigma2}
    # presentations over different fields share no weight
    other_p = rho_fixture(p=41)
    assert intersect_w_jh(other_p, _both_kinds(_fixture("rb1.json"))[1]) == frozenset()
    assert intersect_w_jh(rho_fixture(), _both_kinds(_fixture("rb_f2.json"))[1]) == frozenset()


def _error_of(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_kernel_errors_match_oracle(monkeypatch):
    # too shallow for the default depth: refused before any weight
    shallow = TamePresentation.make("param", (W_E, W_E), (Weight(1, 0, 0), Weight(16, 8, 0)), P)
    assert shallow.depth() < 3
    # allowed at depth 0, but thetas leave the lowest alcove: refused by
    # the lowest-alcove check of a weight part
    edge = TamePresentation.make("param", (W_E, W_E), (Weight(16, 8, 0), Weight(1, 0, 0)), P)
    assert edge.depth() == 0
    _, deep_tau = _both_kinds(_fixture("rb_f2.json"))
    for pres, depth in ((shallow, 3), (edge, 0)):
        monkeypatch.setattr(weights, "WEIGHT_DEPTH", depth)
        rho, tau = _both_kinds(pres)
        for fast, slow, arg in ((w_question, oracles.w_question, rho),
                                (jh_factors, oracles.jh_factors, tau)):
            assert _error_of(fast, arg)[0] is _error_of(slow, arg, depth)[0] is GenericityError
        assert (_error_of(intersect_w_jh, rho, deep_tau)[0]
                is _error_of(oracles.intersect_w_jh, rho, deep_tau, depth)[0])
    # the lowest-alcove failure reads the same on both sides
    rho, tau = _both_kinds(edge)
    assert _error_of(w_question, rho) == _error_of(oracles.w_question, rho, 0)
    assert _error_of(jh_factors, tau) == _error_of(oracles.jh_factors, tau, 0)
    monkeypatch.undo()
    # the wrong kind of presentation
    assert _error_of(w_question, tau)[0] is _error_of(oracles.w_question, tau)[0] is ValueError
    assert _error_of(jh_factors, rho)[0] is _error_of(oracles.jh_factors, rho)[0] is ValueError


def test_wrong_kind_errors_name_both_kinds():
    rho, tau = _both_kinds(_fixture("rb1.json"))
    want_param = (ValueError, "expected a param presentation, got a type presentation")
    want_type = (ValueError, "expected a type presentation, got a param presentation")
    assert _error_of(obvious_weights, tau) == want_param
    assert _error_of(w_question, tau) == want_param
    assert _error_of(jh_factors, rho) == want_type


# --- the offset table, exhaustively at small primes ------------------------
#
# At f = 1 every slot element s and every lowest-alcove mu (c in -1..1)
# reaches the kernel, shallow ones included (WEIGHT_DEPTH lowered to 0), so
# each row of the per-(kind, s) offset table and each outcome of the
# lowest-alcove test is compared with the brute-force oracle.

def _lowest_alcove_mus(p):
    return [Weight(a, b, c) for a in range(-2, p) for b in range(-1, p) for c in (-1, 0, 1)
            if lowest_alcove_depth(Weight(a, b, c), p) >= 0]


def _outcome(fn, *args):
    """fn's value, or the class and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _oracle_at(pres, xs, ys):
    """The oracle's weight at one pair tuple: theta from xs, the p-dot by ys."""
    omega = tuple(compose(a, invert(b)).nu for a, b in zip(pres.w_tilde(), xs))
    return serre_weight_of_presentation(LowestAlcovePresentation(ys, omega), pres.p)


@pytest.mark.parametrize("p", (11, 13))
def test_offset_table_matches_oracle_exhaustively(p, monkeypatch):
    # each tuple is also evaluated alone: the kernel on its one index
    # tuple gives the table's weight, or the oracle's error
    monkeypatch.setattr(weights, "WEIGHT_DEPTH", 0)
    outer = [outer_pair((w,)) for w in W_ALL]
    raised = 0
    for s in W_ALL:
        for mu in _lowest_alcove_mus(p):
            rho = TamePresentation.make("param", (s,), (mu,), p)
            tau = TamePresentation.make("type", (s,), (mu,), p)
            wq = _outcome(lambda: list(w_question(rho).items()))
            assert wq == _outcome(lambda: list(oracles.w_question(rho, 0).items()))
            jh = _outcome(lambda: list(jh_factors(tau).items()))
            assert jh == _outcome(lambda: list(oracles.jh_factors(tau, 0).items()))
            raised += isinstance(wq, tuple) + isinstance(jh, tuple)
            wq_table = dict(wq) if isinstance(wq, list) else None
            # the sigma1 check's read, one weight alone, gives the table's
            # weight or the oracle's error
            for pair in enumerate_ap_prime(1):
                got = _outcome(_kernel_at, rho, pair)
                if wq_table is not None:
                    assert got == wq_table[pair]
                else:
                    assert got == _outcome(_oracle_at, rho, pair.w1, pair.w2)
            jh_table = dict(jh) if isinstance(jh, list) else None
            for pair in outer:
                got = _outcome(_kernel_at, tau, pair)
                if jh_table is not None:
                    assert got == jh_table[pair]
                else:
                    assert got == _outcome(_oracle_at, tau, pair.w2, pair.w1)
    # both outcomes occur: whole tables, and the lowest-alcove refusal
    assert 0 < raised < 2 * len(W_ALL) * len(_lowest_alcove_mus(p))
