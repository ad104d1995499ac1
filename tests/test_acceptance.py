"""Acceptance gate: one timed test per shipped guarantee.

Each test prints a single line "criterion N: PASS - detail (elapsed, budget)"
and fails if the checks fail or the time budget is exceeded.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
"""

import random
import time
from fractions import Fraction

from gsp4weights.base import (
    ETA,
    POSITIVE_COROOTS,
    POSITIVE_ROOTS,
    REFLECTIONS,
    W_ALL,
    W_E,
    W_S1,
    Weight,
    pairing,
    std_character,
    weyl_inv,
    weyl_mul,
)
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    IDENTITY,
    RESTRICTED_ALCOVES,
    W0,
    alcove_of,
    bruhat_leq,
    bruhat_leq_oracle,
    bruhat_lower_interval,
    compose,
    compose_all,
    coset_ball,
    diamond,
    dominant_down_set,
    elem_of_alcove,
    finite,
    in_omega,
    invert,
    length,
    omega_part,
    orbit_weight,
    restricted_alcove_index,
    star,
    translation,
    upper_arrow_leq,
    upper_arrow_leq_alcove,
    weight_alcove_index,
)
from gsp4weights.admissible import (
    LEVI_G,
    LEVI_LABELS,
    adm_dual_set,
    adm_set,
    adm_set_oracle,
    colength_one_split,
    elem_sort_key,
    is_regular_element,
    levi_adm_set,
    levi_finite_weyl,
    levi_minimal_rep,
    adm_levi_conjugate,
)
from gsp4weights.weights import (
    SerreWeight,
    enumerate_ap,
    enumerate_ap_prime,
    intersect_w_jh,
    jh_factors,
    jh_set,
    obvious_weights,
    type_from_target,
    w_question,
    w_question_set,
)
from gsp4weights.adjacency import build_graph, build_instance, find_chain, valid_simples
from gsp4weights.cycles import (
    GrothendieckClass,
    bm_cycle,
    bm_sum,
    colength_one_components,
    restricted_chain,
    weyl_class,
)
from gsp4weights.exactalg import QQ, PrimeField
from gsp4weights.localmodel import (
    RegColOneParams,
    build_regcolone_matrix,
    dominance_leq,
    e_divisor_pattern,
    fixed_point_set_T,
    fixed_point_set_colone,
    monodromy_defect,
    monodromy_params_of,
    monomial_matrix,
    regcolone_relation_holds,
    shape_of,
    symplectic_similitude,
)

from crosschecks import (
    is_generic,
    max_presentation_depth,
    random_deep_presentation,
    random_iwahori,
)
from oracles import box_down_set, levi_affine_simples, locate_point, up_step_targets


def _report(n, detail, t0, budget):
    elapsed = time.monotonic() - t0
    print("criterion %d: PASS - %s (%.1fs, budget %ds)" % (n, detail, elapsed, budget))
    assert elapsed < budget, "criterion %d ran %.1fs, over its %ds budget" % (n, elapsed, budget)


def test_criterion_01_root_datum():
    t0 = time.monotonic()
    assert tuple(pairing(ETA, cov) for cov in POSITIVE_COROOTS) == (1, 1, 3, 2)
    grid = [Weight(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in (-1, 0, 1)]
    # pairing is bilinear and matches the standard-torus exponents
    for lam in grid:
        sc = std_character(lam)
        assert sc[0] + sc[3] == sc[1] + sc[2]  # similitude balance
        for mu in grid[:15]:
            for cov in POSITIVE_COROOTS:
                assert pairing(lam + mu, cov) == pairing(lam, cov) + pairing(mu, cov)
    # action laws: composition on all 64 pairs, inverses, pairing invariance
    for w in W_ALL:
        assert weyl_mul(w, weyl_inv(w)) == W_E
        for u in W_ALL:
            wu = weyl_mul(w, u)
            for lam in grid[:15]:
                assert wu.act(lam) == w.act(u.act(lam))
        for lam in grid:
            for cov in POSITIVE_COROOTS:
                assert pairing(w.act(lam), w.act_coweight(cov)) == pairing(lam, cov)
    # reflection identities, one per positive root
    for i in range(4):
        s = REFLECTIONS[i]
        assert weyl_mul(s, s) == W_E
        root, cov = POSITIVE_ROOTS[i], POSITIVE_COROOTS[i]
        for lam in grid:
            assert s.act(lam) == lam - root.scale(pairing(lam, cov))
    _report(1, "pairing table (1,1,3,2), 64 composition pairs, 4 reflection identities", t0, 1)


def test_criterion_02_length_and_bruhat_oracles():
    t0 = time.monotonic()
    assert length(translation(ETA)) == 7
    assert sum(pairing(ETA, cov) for cov in POSITIVE_COROOTS) == 7
    # subword vs recursive comparison on every pair of length <= 7, in both
    # length-zero classes that Adm(eta) meets
    balls = (
        coset_ball(IDENTITY, 7),
        coset_ball(omega_part(translation(ETA)), 7),
    )
    pairs = 0
    for ball in balls:
        elems = sorted(ball, key=elem_sort_key)
        for x in elems:
            for y in elems:
                assert bruhat_leq(x, y) == bruhat_leq_oracle(x, y)
                pairs += 1
    # comparisons never cross the length-zero class
    for x in sorted(balls[0], key=elem_sort_key)[:10]:
        for y in sorted(balls[1], key=elem_sort_key)[:10]:
            assert not bruhat_leq(x, y) and not bruhat_leq(y, x)
    _report(2, "len(t_eta)=7, oracles agree on %d pairs" % pairs, t0, 30)


def test_criterion_03_alcove_order():
    t0 = time.monotonic()
    # the restricted chain A0 up A1 up A2 up A3, on alcoves and on elements
    for i in range(4):
        for j in range(4):
            assert upper_arrow_leq_alcove(RESTRICTED_ALCOVES[i], RESTRICTED_ALCOVES[j]) == (i <= j)
            assert upper_arrow_leq(
                elem_of_alcove(RESTRICTED_ALCOVES[i]), elem_of_alcove(RESTRICTED_ALCOVES[j])
            ) == (i <= j)
    # partial order on the radius-12 box below a deep dominant alcove
    top = alcove_of(locate_point((Fraction(21, 2), Fraction(1, 4))))
    box = sorted(box_down_set(top, 12))
    assert len(box) > 1000
    for a in box:
        assert upper_arrow_leq_alcove(a, a)
        # every arrow step weakly raises x and x+y and strictly raises
        # 2x+y, so no distinct cycle can close up: antisymmetry
        for qx, qy in up_step_targets(a, 6 * 12, 6 * 24):
            assert qx >= a.x and qx + qy >= a.x + a.y
            assert 2 * qx + qy > 2 * a.x + a.y
    # exhaustive antisymmetry and transitivity on a seeded subset; kept to
    # small coordinates so each comparison search stays shallow
    rng = random.Random(3)
    band = [a for a in box if a.x <= 6 * 5]
    sub = rng.sample(band, 32) + list(RESTRICTED_ALCOVES)
    rel = {(a, b) for a in sub for b in sub if upper_arrow_leq_alcove(a, b)}
    for a, b in rel:
        if a != b:
            assert (b, a) not in rel
        for c in sub:
            if (b, c) in rel:
                assert (a, c) in rel
    _report(3, "restricted chain exact, order laws on %d box alcoves" % len(box), t0, 10)


def test_criterion_04_admissible_sets():
    t0 = time.monotonic()
    adm = adm_set(ETA)
    oracle = adm_set_oracle(ETA)
    assert adm.elements == oracle.elements
    assert len(adm.elements) == 63
    assert sorted({length(x) for x in adm.elements}) == list(range(8))
    # downward closure
    for x in adm.elements:
        assert bruhat_lower_interval(x) <= adm.elements
    # colength-one classification partitions
    reg, irr = colength_one_split()
    ones = adm.of_colength(1)
    assert sorted(reg + irr, key=elem_sort_key) == ones
    assert not (set(reg) & set(irr))
    # every irregular element matches a family member modulo central shift
    family = set()
    for w in W_ALL:
        d = diamond(w)
        for s in (finite(W_ALL[1]), finite(W_ALL[2])):
            family.add(compose_all(invert(d), invert(HIGHEST_RESTRICTED), W0, s, d))
    for x in irr:
        assert any(x.w == y.w and x.nu[:2] == y.nu[:2] for y in family)
    _report(4, "double oracle |Adm|=63, closure, %d reg + %d irr partition" % (len(reg), len(irr)), t0, 60)


def test_criterion_05_levi_lemmas():
    t0 = time.monotonic()
    adm = adm_set(ETA).elements
    # containment for every proper Levi and every minimal coset representative
    checked = 0
    for label in ("T", "M1", "M2"):
        levi = LEVI_LABELS[label]
        reps = [w for w in W_ALL if levi_minimal_rep(w, levi)[1] == w]
        for w in reps:
            assert adm_levi_conjugate(ETA, levi, w) <= adm
            checked += 1
    assert levi_adm_set(ETA, LEVI_G) == adm
    # ambient lengths respect Levi reflection order: 10^3 random instances
    rng = random.Random(11)
    done = 0
    while done < 1000:
        levi = LEVI_LABELS[rng.choice(("M1", "M2"))]
        wm = levi_finite_weyl(levi)
        nu = Weight(rng.randrange(-4, 5), rng.randrange(-4, 5), rng.randrange(-4, 5))
        z = compose(translation(nu), finite(rng.choice(wm)))
        mu = Weight(rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
        q = compose(translation(mu), finite(rng.choice(wm)))
        r = compose_all(q, rng.choice(levi_affine_simples(levi)), invert(q))
        rz = compose(r, z)
        if length(z) >= length(rz):
            continue
        for w in W_ALL:
            if levi_minimal_rep(w, levi)[1] != w:
                continue
            wi, we = finite(weyl_inv(w)), finite(w)
            assert length(compose_all(wi, z, we)) < length(compose_all(wi, rz, we))
        done += 1
    _report(5, "%d conjugated containments, 1000 reflection-length instances" % checked, t0, 30)


def test_criterion_06_bijections():
    t0 = time.monotonic()
    adm = adm_set(ETA)
    regs = [x for x in adm.elements if is_regular_element(x)]
    pairs = enumerate_ap(1)
    assert len(pairs) == len(regs) == 20
    # factor maps are injective for random deep presentations
    assert max_presentation_depth(37) == 8  # 9-deep inputs need p=41
    rng = random.Random(17)
    for k in range(5):
        tau = random_deep_presentation(37, 1, 6, rng, kind="type")
        jh = jh_factors(tau)
        assert len(set(jh.values())) == len(jh) == 20
        rho = random_deep_presentation(37, 1, 6, rng, kind="param")
        wq = w_question(rho)
        assert len(set(wq.values())) == len(wq) == 20
    for k in range(2):
        tau = random_deep_presentation(41, 1, 9, rng, kind="type")
        assert len(set(jh_factors(tau).values())) == 20
        rho = random_deep_presentation(41, 1, 9, rng, kind="param")
        assert len(set(w_question(rho).values())) == 20
    # obvious weights: free orbit of the finite Weyl group, 8^f values
    rho1 = random_deep_presentation(37, 1, 8, random.Random(3), kind="param")
    obv1 = obvious_weights(rho1)
    assert len(obv1) == len(set(obv1.values())) == 8
    rho2 = random_deep_presentation(37, 2, 8, random.Random(12), kind="param")
    obv2 = obvious_weights(rho2)
    assert len(obv2) == len(set(obv2.values())) == 64
    wq2 = w_question(rho2)
    assert len(set(wq2.values())) == len(wq2) == 400
    _report(6, "|AP|=20=#regular, 14 injective factor maps, obvious images 8 and 64", t0, 120)


def test_criterion_07_colength_one_counts():
    t0 = time.monotonic()
    from gsp4weights.cycles import _case_tables

    rho1 = random_deep_presentation(41, 1, 9, random.Random(7), kind="param")
    d0 = diamond(W_E)
    case1 = compose_all(invert(d0), invert(HIGHEST_RESTRICTED), W0, d0)
    d1 = diamond(W_S1)
    case2 = compose_all(invert(d1), invert(HIGHEST_RESTRICTED), W0, finite(W_S1), d1)
    case3 = sorted(_case_tables()[2], key=lambda x: (tuple(x.nu), x.w.word))[0]
    for g, want_cases in (((case1,), (1,)), ((case2,), (2,)), ((case3,), (3,))):
        rep = colength_one_components(rho1, type_from_target(rho1, g))
        assert rep.cases == want_cases
        assert rep.count == len(rep.weights) == 2 ** sum(c in (2, 3) for c in rep.cases)
    rho2 = random_deep_presentation(41, 2, 9, random.Random(13), kind="param")
    for g, want in (
        ((case1, case3), (1, 3)),
        ((case2, case2), (2, 2)),
        ((case2, case3), (2, 3)),
    ):
        rep = colength_one_components(rho2, type_from_target(rho2, g))
        assert rep.cases == want
        assert rep.count == 2 ** sum(c in (2, 3) for c in rep.cases)
    # the colength-one intersection for the neighbour parameter sits inside
    # the one for the ambient parameter, on every instance at both primes
    n = 0
    for rho in (rho1, random_deep_presentation(37, 1, 8, random.Random(3), kind="param")):
        wq = w_question_set(rho)
        for pair in enumerate_ap_prime(1):
            for s in valid_simples(pair):
                inst = build_instance(rho, pair, s)
                small = intersect_w_jh(inst.rhobar0, inst.tau)
                assert small <= (wq & jh_set(inst.tau))
                n += 1
    assert n == 68
    _report(7, "counts 2^#J2 over 6 case mixes, inclusion on %d instances" % n, t0, 120)


def test_criterion_08_connectivity_and_chains():
    t0 = time.monotonic()
    # f=1 graphs with the full per-instance intersection assertion
    for p, depth, seed in ((37, 8, 3), (41, 9, 7)):
        rho = random_deep_presentation(p, 1, depth, random.Random(seed), kind="param")
        g = build_graph(rho)
        assert len(g.vertices) == 20
        assert len(g.components()) == 1
        obv = set(obvious_weights(rho).values())
        for sigma in sorted(w_question_set(rho), key=lambda s: s.sort_key()):
            res = find_chain(rho, sigma)
            assert len(res.steered) <= 3
            cur = sigma
            for inst in res.steered:
                assert inst.sigma1 == cur
                cur = inst.sigma2
            assert cur in obv or (sigma in obv and cur == sigma)
    # f=2: construction checks sampled, connectivity exact
    rho2 = random_deep_presentation(37, 2, 8, random.Random(12), kind="param")
    g2 = build_graph(rho2, check=False)
    assert len(g2.vertices) == 400
    assert len(g2.components()) == 1
    rng = random.Random(5)
    verts = sorted(w_question_set(rho2), key=lambda s: s.sort_key())
    for sigma in rng.sample(verts, 4):
        res = find_chain(rho2, sigma)
        assert len(res.steered) <= 6
        cur = sigma
        for inst in res.steered:
            assert inst.sigma1 == cur
            cur = inst.sigma2
        obv2 = set(obvious_weights(rho2).values())
        assert cur in obv2 or (sigma in obv2 and cur == sigma)
    _report(8, "connected at (1,37),(1,41),(2,37); 44 steered chains end obvious", t0, 300)


def _deep_weight_in_alcove(idx, p=37, seed=0):
    rng = random.Random(seed)
    pres = random_deep_presentation(p, 1, 4, rng)
    lam = pres.mu[0]
    return orbit_weight(lam, p, elem_of_alcove(RESTRICTED_ALCOVES[idx]))


def test_criterion_09_bm_cycles():
    t0 = time.monotonic()
    p = 37
    lams = {idx: _deep_weight_in_alcove(idx, p, seed=idx + 1) for idx in range(4)}
    # support size doubles once per second-alcove embedding
    for combo in ((0,), (1,), (2,), (3,), (2, 2), (2, 0), (1, 3), (2, 3)):
        sigma = SerreWeight.make(p, tuple(lams[i] for i in combo))
        doubled = sum(1 for i in combo if i == 2)
        cyc = bm_cycle(sigma)
        assert len(cyc.support()) == 2**doubled
        assert all(c == 1 for c in (cyc.coeff(s) for s in cyc.support()))
    # reduced Weyl module classes: irreducible at the bottom, two factors
    # above, the companion being the chain predecessor
    lam0 = lams[0]
    assert weyl_class(lam0, p) == GrothendieckClass({SerreWeight.make(p, (lam0,)): 1})
    for idx in (1, 2, 3):
        lam = lams[idx]
        chain = restricted_chain(lam, p)
        assert len(chain) == idx + 1
        cls = weyl_class(lam, p)
        assert cls == GrothendieckClass(
            {SerreWeight.make(p, (chain[-1],)): 1, SerreWeight.make(p, (chain[-2],)): 1}
        )
    # cross-check: away from the second alcove the default sum restricts to
    # exactly the colength-one component pair
    rho = random_deep_presentation(41, 1, 9, random.Random(7), kind="param")
    wq41 = w_question_set(rho)
    found = 0
    for wf in W_ALL:
        d = diamond(wf)
        g = (compose_all(invert(d), invert(HIGHEST_RESTRICTED), W0, finite(W_S1), d),)
        tau = type_from_target(rho, g)
        rep = colength_one_components(rho, tau)
        if any(weight_alcove_index(sig.parts[0], 41) == 2 for sig in rep.weights):
            continue
        restricted = frozenset(bm_sum(tau).cycle.support()) & wq41
        assert rep.weights <= restricted
        found += 1
    assert found
    _report(9, "8 support sizes 2^#C2, 4 module classes, %d sum cross-checks" % found, t0, 30)


def test_criterion_10_local_model():
    t0 = time.monotonic()
    p = 37
    rng = random.Random(101)
    # similitude and elementary divisors on the symplectic family
    for field, name in ((QQ, "QQ"), (PrimeField(p), "F_37")):
        ok = 0
        while ok < 100:
            vals = [rng.randrange(1, p) for _ in range(7)]
            try:
                params = RegColOneParams.admissible(field, p, *vals)
            except ValueError:
                continue
            mat = build_regcolone_matrix(params, p)
            assert symplectic_similitude(mat, p).ok
            pat = e_divisor_pattern(mat, p)
            assert sum(pat) == 6 and dominance_leq(pat, (3, 2, 1, 0))
            ok += 1
    # monodromy passes exactly on the solved locus and fails off it
    a = (110, 66, 42)
    for field in (QQ, PrimeField(p)):
        sp = RegColOneParams.solved(field, p, 3, 5, 2, 7, a)
        assert regcolone_relation_holds(sp, p)
        mp = monodromy_params_of(sp, p)
        assert is_generic(mp, 6)
        assert monodromy_defect(build_regcolone_matrix(sp, p), mp) is None
        base = {
            k: getattr(sp, k)
            for k in ("c00", "c21", "c13", "c31", "c31p", "c33", "c33p", "c33pp",
                      "a0", "a1", "a2", "a3", "e")
        }
        for key in ("c33", "c33p", "c33pp", "c31p"):
            vals = dict(base)
            vals[key] = vals[key] + 1
            bumped = RegColOneParams.make(field, **vals)
            assert monodromy_defect(build_regcolone_matrix(bumped, p), mp) is not None
            # only c33 enters the displayed relation
            assert regcolone_relation_holds(bumped, p) == (key != "c33")
    # shape oracle: Iwahori sandwiches of every admissible monomial matrix
    dual = sorted(adm_dual_set(ETA), key=elem_sort_key)
    sandwiches = 0
    for q in (5, 37):
        field = PrimeField(q)
        for i in range(500):
            z = dual[i % 63]
            mat = random_iwahori(field, rng) * monomial_matrix(z, field) * random_iwahori(field, rng)
            assert shape_of(mat) == z
            sandwiches += 1
    _report(10, "200 family draws, monodromy iff solved, %d sandwiches exact" % sandwiches, t0, 600)


def test_criterion_11_fixed_point_sets():
    t0 = time.monotonic()
    dual = adm_dual_set(ETA)
    pairs = enumerate_ap_prime(1)
    sizes = {4: 8, 5: 16, 6: 24, 7: 32}
    for pr in pairs:
        a, b = pr.w1[0], pr.w2[0]
        fp = fixed_point_set_T(a, b)
        want = bruhat_lower_interval(compose(W0, a))
        assert len(fp) == len(want) == sizes[length(compose(W0, a))]
        assert fp <= dual
    # the s2 variant drops exactly the images of length-zero positions
    w1s = sorted({pr.w1[0] for pr in pairs}, key=elem_sort_key)
    for a in w1s:
        floor = restricted_alcove_index(alcove_of(a))
        omega = omega_part(a)
        full = set()
        excluded = set()
        for alc in dominant_down_set(alcove_of(a)):
            wt = compose(elem_of_alcove(alc), omega)
            img = star(compose_all(invert(a), invert(HIGHEST_RESTRICTED), finite(W_ALL[2]), W0, wt))
            (excluded if in_omega(wt) else full).add(img)
        got1 = fixed_point_set_colone(a, 1)
        got2 = fixed_point_set_colone(a, 2)
        assert len(got1) == floor + 1 and len(got2) == floor
        assert got2 == frozenset(full)
        assert not (got2 & excluded)
        assert got2 | excluded == full | excluded
    _report(11, "20 torus sets match interval sizes, s2 drop exact on %d floors" % len(w1s), t0, 60)
