import os
import random
import re

import pytest

from gsp4weights.base import W_ALL, W_E, W_S1, Weight
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    RESTRICTED_ALCOVES,
    W0,
    compose_all,
    diamond,
    elem_of_alcove,
    finite,
    invert,
    orbit_weight,
    translation,
    weight_alcove_index,
    weight_arrow_leq,
)
from gsp4weights.admissible import adm_set, colength_one_split, elem_sort_key
from gsp4weights.weights import (
    GenericityError,
    SerreWeight,
    intersect_w_jh,
    jh_factors,
    jh_set,
    obvious_weights,
    type_from_target,
    w_question_set,
)
from gsp4weights.cli import load_presentation
from gsp4weights.config import TAU_DEPTH
from gsp4weights.cycles import (
    BMSumResult,
    Cycle,
    GrothendieckClass,
    _case_tables,
    _lowest_companion,
    bm_cycle,
    bm_sum,
    classify_embedding_shape,
    colength_one_components,
    restricted_chain,
    weyl_class,
)

import oracles
from crosschecks import (
    obvious_bm_report,
    outer_pair,
    random_deep_presentation,
    support_upper_bound,
    weight_class_arrow_leq,
)

P = 37


def sw(*parts, p=P):
    return SerreWeight.make(p, tuple(parts))


def deep_weight_in_alcove(idx, p=P, seed=0):
    # transport a deep bottom-alcove weight to the requested restricted alcove
    rng = random.Random(seed)
    pres = random_deep_presentation(p, 1, 4, rng)
    lam = pres.mu[0]
    return orbit_weight(lam, p, elem_of_alcove(RESTRICTED_ALCOVES[idx]))


def test_formal_sum_arithmetic():
    a = sw(Weight(5, 3, 0))
    b = sw(Weight(8, 2, 1))
    x = Cycle({a: 1, b: 2})
    y = Cycle({b: 1})
    assert (x + y).coeff(b) == 3
    assert Cycle({a: 0}) == Cycle()
    assert not bool(Cycle())
    assert x.support() == tuple(sorted((a, b), key=lambda s: s.sort_key()))


@pytest.mark.parametrize("n", [True, 0.9, 2.5, "3"])
def test_formal_sum_refuses_coefficients_that_are_not_ints(n):
    a = sw(Weight(5, 3, 0))
    with pytest.raises(TypeError, match=r"^coefficient %s of %s is not an int$"
                       % (re.escape(repr(n)), re.escape(a.display()))):
        Cycle({a: n})


def test_formal_sum_kinds_do_not_mix():
    a = sw(Weight(5, 3, 0))
    with pytest.raises(TypeError):
        Cycle({a: 1}) + GrothendieckClass({a: 1})
    assert Cycle({a: 1}) != GrothendieckClass({a: 1})


def test_formal_sum_display_deterministic():
    a = sw(Weight(5, 3, 0))
    b = sw(Weight(8, 2, 1))
    assert Cycle().display() == "0"
    assert Cycle({b: 2, a: 1}).display() == Cycle({a: 1, b: 2}).display()


def test_bm_cycle_lower_alcoves_single_term():
    for idx in (0, 1, 3):
        lam = deep_weight_in_alcove(idx, seed=idx)
        sigma = sw(lam)
        cyc = bm_cycle(sigma)
        assert cyc == Cycle({sigma: 1})


def test_bm_cycle_second_alcove_two_terms():
    lam = deep_weight_in_alcove(2, seed=5)
    sigma = sw(lam)
    cyc = bm_cycle(sigma)
    assert len(cyc.support()) == 2
    assert cyc.coeff(sigma) == 1
    other = next(s for s in cyc.support() if s != sigma)
    assert weight_alcove_index(other.parts[0], P) == 0
    assert weight_class_arrow_leq(other, sigma)


def test_bm_cycle_f2_support_size():
    rng = random.Random(9)
    pres = random_deep_presentation(P, 2, 4, rng)
    lam2 = tuple(
        orbit_weight(m, P, elem_of_alcove(RESTRICTED_ALCOVES[2])) for m in pres.mu
    )
    both = SerreWeight.make(P, lam2)
    cyc = bm_cycle(both)
    assert len(cyc.support()) == 4
    assert all(n == 1 for _, n in cyc.items())
    mixed = SerreWeight.make(P, (lam2[0], pres.mu[1]))
    assert len(bm_cycle(mixed).support()) == 2


def test_bm_cycle_rejects_shallow():
    shallow = sw(Weight(1, 0, 0))
    assert shallow.depth() < 3
    with pytest.raises(GenericityError):
        bm_cycle(shallow)


def test_lowest_companion_against_four_alcove_search():
    # every p-restricted weight in the second restricted alcove
    count = 0
    for p in (11, 13, 37):
        for b in range(p):
            for a in range(b, b + p):
                lam = Weight(a, b, 0)
                try:
                    if weight_alcove_index(lam, p) != 2:
                        continue
                except ValueError:
                    continue
                assert _lowest_companion(lam, p) == oracles.lowest_companion(lam, p)
                count += 1
    assert count == 356


def test_restricted_chain_and_weyl_class():
    lam0 = deep_weight_in_alcove(0, seed=1)
    assert restricted_chain(lam0, P) == (lam0,)
    assert weyl_class(lam0, P) == GrothendieckClass({sw(lam0): 1})

    lam2 = deep_weight_in_alcove(2, seed=2)
    chain = restricted_chain(lam2, P)
    assert len(chain) == 3
    cls = weyl_class(lam2, P)
    assert cls == GrothendieckClass({sw(chain[2]): 1, sw(chain[1]): 1})

    lam3 = deep_weight_in_alcove(3, seed=3)
    cls3 = weyl_class(lam3, P)
    chain3 = restricted_chain(lam3, P)
    assert cls3.coeff(sw(chain3[3])) == 1 and cls3.coeff(sw(chain3[2])) == 1


def test_weyl_class_input_validation():
    with pytest.raises(ValueError, match="restricted"):
        weyl_class(Weight(P + 3, 1, 0), P)


def test_predecessor_uniqueness_sampled():
    # among the restricted orbit points strictly below a second-alcove
    # weight, exactly one has no other orbit point strictly between
    for seed in range(100):
        lam = deep_weight_in_alcove(2, seed=seed)
        chain = restricted_chain(lam, P)
        below = [k for k in chain[:-1] if weight_arrow_leq(k, lam, P)]
        immediate = [
            k
            for k in below
            if not any(
                weight_arrow_leq(k, m, P) and weight_arrow_leq(m, lam, P)
                for m in below
                if m != k
            )
        ]
        assert immediate == [chain[-2]]


def test_support_upper_bound_bottom_alcove():
    lam = deep_weight_in_alcove(0, seed=6)
    assert support_upper_bound(sw(lam)) == frozenset({sw(lam)})


def test_support_upper_bound_monotone():
    lam3 = deep_weight_in_alcove(3, seed=7)
    chain = restricted_chain(lam3, P)
    bounds = [support_upper_bound(sw(k)) for k in chain]
    for small, big in zip(bounds, bounds[1:]):
        assert small <= big
    assert [len(b) for b in bounds] == [1, 2, 3, 4]


def test_support_upper_bound_outer_weight():
    # an outer weight lies in the bound of no other JH weight: sigma in
    # bound(kappa) with kappa in the JH set forces kappa = sigma
    rng = random.Random(31)
    tau = random_deep_presentation(P, 1, 6, rng, kind="type")
    jh = jh_set(tau)
    bounds = {kappa: support_upper_bound(kappa) for kappa in jh}
    table = jh_factors(tau)
    for w in W_ALL:
        sigma = table[outer_pair((w,))]
        assert [kappa for kappa in jh if sigma in bounds[kappa]] == [sigma]


def test_classifier_cases():
    d = diamond(W_S1)
    g1 = compose_all(invert(d), invert(HIGHEST_RESTRICTED), W0, d)
    assert classify_embedding_shape(g1) == 1
    g2 = compose_all(invert(d), invert(HIGHEST_RESTRICTED), W0, finite(W_S1), d)
    assert classify_embedding_shape(g2) == 2
    # regular colength-one elements outside the listed family are refused
    # as such
    reg, _ = colength_one_split()
    rejected = []
    for x in reg:
        try:
            assert classify_embedding_shape(x) == 3
        except ValueError as exc:
            assert str(exc) == (
                "regular colength-one element outside the classified family: " + x.display())
            rejected.append(x.display())
    assert len(rejected) == 4
    assert sorted(rejected) == ["t(-1,0,2)*s2s1s2", "t(-1,2,1)*s2", "t(1,2,0)*s2", "t(2,-1,1)*s1"]
    with pytest.raises(ValueError, match="not a colength-one"):
        classify_embedding_shape(translation(Weight(1, 1, -1)))


def test_regular_colength_one_intersections_have_two_weights():
    # measured, not proven: for every regular colength-one g of Adm(eta),
    # the four outside the classified family as well as its two, the
    # predicted set of rhobar meets the JH set of the type with w = g in
    # exactly 2 weights, on rb1, rb41 and 32 seeded 9-deep parameters
    reg, _ = colength_one_split()
    rng = random.Random(2)
    rhos = [load_presentation(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", name))
            for name in ("rb1.json", "rb41.json")]
    rhos += [random_deep_presentation(p, 1, 9, rng, "param")
             for p in (61, 67, 101, 131) for _ in range(8)]
    sizes = [len(intersect_w_jh(rho, type_from_target(rho, (g,)))) for rho in rhos for g in reg]
    assert len(reg) == 6 and sizes == [2] * (6 * 34)


def test_colength_one_counts_f1():
    rho = random_deep_presentation(41, 1, 9, random.Random(7), kind="param")
    # case 1: singleton
    d = diamond(W_E)
    g1 = (compose_all(invert(d), invert(HIGHEST_RESTRICTED), W0, d),)
    rep1 = colength_one_components(rho, type_from_target(rho, g1))
    assert rep1.cases == (1,) and rep1.count == 1
    # case 2: two components
    d = diamond(W_S1)
    g2 = (compose_all(invert(d), invert(HIGHEST_RESTRICTED), W0, finite(W_S1), d),)
    rep2 = colength_one_components(rho, type_from_target(rho, g2))
    assert rep2.cases == (2,) and rep2.count == 2
    assert tuple(j for j, c in enumerate(rep2.cases) if c in (2, 3)) == (0,)
    assert rep2.weights <= w_question_set(rho)


def test_colength_one_counts_f2_mixed():
    rho = random_deep_presentation(41, 2, 9, random.Random(13), kind="param")
    d0 = diamond(W_E)
    case1 = compose_all(invert(d0), invert(HIGHEST_RESTRICTED), W0, d0)
    case3 = sorted(_case_tables()[2], key=lambda x: (tuple(x.nu), x.w.word))[0]
    tau = type_from_target(rho, (case1, case3))
    rep = colength_one_components(rho, tau)
    assert rep.cases == (1, 3) and rep.count == 2
    assert tuple(j for j, c in enumerate(rep.cases) if c in (2, 3)) == (1,)


def test_colength_one_rejects_other_shapes():
    rho = random_deep_presentation(41, 1, 9, random.Random(7), kind="param")
    deep = [x for x in adm_set(Weight(2, 1, 0)).of_colength(2)][0]
    tau = type_from_target(rho, (deep,))
    with pytest.raises(ValueError, match="not a colength-one"):
        colength_one_components(rho, tau)


def test_colength_one_warns_below_the_type_depth(caplog):
    # a seeded search over colength-one and extremal targets: each count
    # warns exactly when its type is shallower than TAU_DEPTH
    targets = sorted({x for table in _case_tables() for x in table}, key=elem_sort_key)
    rng = random.Random(0)
    caplog.set_level("WARNING", logger="gsp4weights.cycles")
    warned = quiet = 0
    for _ in range(40):
        rho = random_deep_presentation(41, 1, 6, rng, kind="param")
        tau = type_from_target(rho, (rng.choice(targets),))
        caplog.clear()
        colength_one_components(rho, tau)
        below = tau.depth() < TAU_DEPTH
        assert [r.getMessage() for r in caplog.records] == [
            "type depth %d below %d; count relies on deeper input"
            % (tau.depth(), TAU_DEPTH)] * below
        warned, quiet = warned + below, quiet + (not below)
    assert warned and quiet


def test_bm_sum_defaults_and_validation():
    seeded = random_deep_presentation(P, 1, 6, random.Random(41), kind="type")
    tau1 = load_presentation(
        os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "tau1.json"))
    for tau in (seeded, tau1):
        res = bm_sum(tau)
        assert isinstance(res, BMSumResult)
        assert res.assumptions and "assumed" in res.assumptions[0]
        want: dict = {}
        for sigma in jh_set(tau):
            for kappa, n in bm_cycle(sigma).items():
                want[kappa] = want.get(kappa, 0) + n
        assert res.cycle == Cycle(want)
    with pytest.raises(ValueError, match="type presentation"):
        bm_sum(random_deep_presentation(P, 1, 6, random.Random(41), kind="param"))


def test_obvious_bm_reports():
    rho = random_deep_presentation(41, 1, 9, random.Random(7), kind="param")
    obv = obvious_weights(rho)
    clean = surplus = 0
    for w in W_ALL:
        rep = obvious_bm_report(rho, (w,))
        assert rep.expected == {obv[(w,)]}
        assert rep.expected <= rep.restricted_support
        assert rep.discrepancy == rep.restricted_support - rep.expected
        if rep.discrepancy:
            surplus += 1
        else:
            clean += 1
    # weights whose part avoids the second alcove reconcile exactly
    for w in W_ALL:
        if weight_alcove_index(obv[(w,)].parts[0], 41) != 2:
            assert not obvious_bm_report(rho, (w,)).discrepancy


def test_bm_matches_colength_one_when_low():
    # cross-module identity: for a colength-one type whose two components
    # avoid the second alcove, the predicted part of the default sum is
    # exactly the component pair
    rho = random_deep_presentation(41, 1, 9, random.Random(7), kind="param")
    found = 0
    for wf in W_ALL:
        d = diamond(wf)
        for s in (W_S1,):
            g = (
                compose_all(
                    invert(d), invert(HIGHEST_RESTRICTED), W0, finite(s), d
                ),
            )
            tau = type_from_target(rho, g)
            rep = colength_one_components(rho, tau)
            if any(
                weight_alcove_index(sig.parts[0], 41) == 2 for sig in rep.weights
            ):
                continue
            res = bm_sum(tau)
            restricted = frozenset(res.cycle.support()) & w_question_set(rho)
            extra = restricted - rep.weights
            # surplus can only come from second-alcove companions elsewhere
            assert rep.weights <= restricted
            for kappa in extra:
                assert any(
                    weight_class_arrow_leq(kappa, sig)
                    for sig in jh_set(tau)
                )
            found += 1
    assert found
