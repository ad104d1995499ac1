import gc
import os
import random
import sys
from collections import Counter
from functools import cache
from typing import NamedTuple

import pytest

from gsp4weights.base import SIMPLES, W_ALL, W_E, W_S1, W_S2, Weight, lowest_alcove_depth, weyl_mul
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    IDENTITY,
    W0,
    ExtAffine,
    alcove_of,
    compose,
    compose_all,
    diamond,
    finite,
    in_omega,
    invert,
    restricted_alcove_index,
)
from gsp4weights.weights import (
    APPair,
    GenericityError,
    SerreWeight,
    TamePresentation,
    compat_element,
    enumerate_ap,
    enumerate_ap_prime,
    intersect_w_jh,
    jh_set,
    obvious_weights,
    presentation_from_w_tilde,
    t_compose,
    t_invert,
    type_from_target,
    w_question,
    w_question_set,
)
from gsp4weights import adjacency, weights
from gsp4weights.admissible import AdmissibleSet, adm_set, adm_set_oracle, colength_one_split
from gsp4weights.cli import RunConfig, load_matrix, load_presentation
from gsp4weights.cycles import (
    BMSumResult,
    ColengthOneReport,
    bm_cycle,
    bm_sum,
    classify_embedding_shape,
    colength_one_components,
)
from gsp4weights.exactalg import QQ, LaurentPoly, PrimeField, RatFunc
from gsp4weights.localmodel import (
    MonodromyDefect,
    MonodromyParams,
    PolyMat,
    RegColOneParams,
    SimilitudeResult,
    build_regcolone_matrix,
    monodromy_defect,
    monodromy_params_of,
    monomial_matrix,
    symplectic_similitude,
)
from gsp4weights.adjacency import (
    AdjacencyInstance,
    ChainResult,
    WeightGraph,
    _edge,
    _graph_of,
    build_graph,
    build_instance,
    find_chain,
    valid_simples,
)

import oracles
from crosschecks import conjugated_target, outer_pair, random_deep_presentation, slot_product_map


def rho41(seed=7):
    return random_deep_presentation(41, 1, 9, random.Random(seed), kind="param")


def rho37(seed=3):
    return random_deep_presentation(37, 1, 8, random.Random(seed), kind="param")


def diagonal_pairs(f=1):
    return [p for p in enumerate_ap_prime(f) if p.w1 == p.w2]


def test_valid_simples_counts():
    # diagonal pairs allow all of s_{1,0}, s_{2,0}; pairs with w1 in Omega
    # and w1 != w2 forbid s_{2,0}
    for pair in enumerate_ap_prime(1):
        labels = valid_simples(pair)
        if in_omega(pair.w1[0]) and pair.w1[0] != pair.w2[0]:
            assert labels == ((1, 0),)
        else:
            assert labels == ((1, 0), (2, 0))


def test_forbidden_reflection_rejected():
    rho = rho41()
    bad = [
        p
        for p in enumerate_ap_prime(1)
        if in_omega(p.w1[0]) and p.w1[0] != p.w2[0]
    ]
    assert bad
    with pytest.raises(ValueError, match="forbidden"):
        build_instance(rho, bad[0], (2, 0))


def test_instance_basic_shape():
    rho = rho41()
    pair = diagonal_pairs()[0]
    inst = build_instance(rho, pair, (1, 0))
    assert isinstance(inst, AdjacencyInstance)
    assert inst.sigma1 != inst.sigma2
    assert inst.tau.kind == "type" and inst.rhobar0.kind == "param"
    # the derived compatibility elements match the construction
    g_tau = compose_all(
        invert(pair.w2[0]), invert(HIGHEST_RESTRICTED), W0, finite(W_S1), pair.w1[0]
    )
    got = compose_all(invert(inst.tau.w_tilde()[0]), rho.w_tilde()[0])
    assert got == g_tau


def test_value_types_are_named_tuples_hashing_as_their_fields():
    # a seeded sample of rb_f2's instances and of the pairs, weights,
    # elements and presentations they hold, and of every other record of
    # the package: each is a NamedTuple, hashes as the plain tuple of its
    # fields (a presentation's include its mu_depth), and refuses
    # assignment to a field.  Every matrix has four tuple rows of four
    # Laurent polynomials over its own field, whichever way it was made
    rho = fixture("rb_f2.json")
    instances = random.Random(17).sample(list(_graph_of(rho).instances.values()), 30)
    solved = RegColOneParams.solved(QQ, 37, c00=3, c21=5, c13=2, c31=7, a=(110, 66, 42))
    drawn = RegColOneParams.admissible(PrimeField(37), 37, 5, 4, 9, 11, 2, 3, 6)
    off = build_regcolone_matrix(RegColOneParams.admissible(QQ, 37, 5, 4, 9, 11, 2, 3, 6), 37)
    mat1 = load_matrix(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "mat1.json"),
                       PrimeField(37))
    family = build_regcolone_matrix(drawn, 37)
    v = oracles.v_power(QQ, 1)
    samples = {
        AdjacencyInstance: instances,
        APPair: [inst.pair for inst in instances],
        SerreWeight: [inst.sigma2 for inst in instances],
        ExtAffine: [x for inst in instances for x in inst.pair.w1 + inst.pair.w2],
        TamePresentation: [rho] + [inst.tau for inst in instances[:5]],
        ChainResult: [find_chain(rho, inst.sigma1) for inst in instances[:5]],
        ColengthOneReport: [colength_one_components(inst.rhobar0, inst.tau)
                            for inst in instances[:3]],
        BMSumResult: [bm_sum(inst.tau) for inst in instances[:2]],
        RunConfig: [RunConfig(), RunConfig(p=41, f=2, seed=3, fmt="json")],
        RegColOneParams: [solved, drawn],
        SimilitudeResult: [symplectic_similitude(build_regcolone_matrix(solved, 37), 37),
                           symplectic_similitude(oracles.identity(QQ), 37)],
        MonodromyParams: [monodromy_params_of(solved, 37), MonodromyParams.make(QQ, 1, 2, 3, 37)],
        MonodromyDefect: [monodromy_defect(off, monodromy_params_of(solved, 37))],
        PolyMat: [mat1, oracles.identity(QQ), mat1 * family, off.adjugate(), family,
                  oracles.mat_add(oracles.transpose(off), off), oracles.mat_scale(off, v),
                  oracles.j_matrix(PrimeField(37)), monomial_matrix(instances[0].pair.w1[0], QQ),
                  oracles.diagonal(QQ, MonodromyParams.make(QQ, 1, 2, 3, 37).diag_values()),
                  PolyMat.make(QQ, [[1, 0, 0, v]] * 4)],
        RatFunc: [RatFunc.make(v * v - 1, v - 1), RatFunc.make(v, 2 * v * (v + 1)),
                  RatFunc.make(off.det(), off.rows[0][0])],
    }
    for mat in samples[PolyMat]:
        assert type(mat.rows) is tuple and len(mat.rows) == 4
        for row in mat.rows:
            assert type(row) is tuple and len(row) == 4
            assert all(type(e) is LaurentPoly and e.field == mat.field for e in row)
    assert all(len(values) > 0 for values in samples.values())
    for pres in samples[TamePresentation]:
        assert pres.mu_depth == min(lowest_alcove_depth(mu, pres.p) for mu in pres.mu)
    for cls, values in samples.items():
        assert NamedTuple in cls.__orig_bases__
        for value in values:
            assert type(value) is cls and hash(value) == hash(tuple(value))
            with pytest.raises(AttributeError):
                setattr(value, cls._fields[0], value[0])


def test_records_are_named_tuples_made_whole_by_their_maker():
    # an admissible set is (lam, order), equal and hashing alike from
    # either maker; a weight graph carries its adjacency from _graph_of,
    # read-only, and stays unhashable as its mappings are
    assert NamedTuple in AdmissibleSet.__orig_bases__
    assert AdmissibleSet._fields == ("lam", "order")
    for lam in (Weight(2, 1, 0), Weight(3, 1, 0), Weight(5, 3, 0)):
        adm, oracle = adm_set(lam), adm_set_oracle(lam)
        assert type(adm) is AdmissibleSet and hash(adm) == hash(tuple(adm))
        assert adm == oracle and hash(adm) == hash(oracle)
        assert adm.elements == frozenset(adm.order) and len(adm.order) == len(adm.elements)
    assert NamedTuple in WeightGraph.__orig_bases__
    for name in ("rb41.json", "rb_f2.json"):
        graph = build_graph(fixture(name), check=False)
        assert type(graph) is WeightGraph and graph.adjacent.keys() <= set(graph.vertices)
        assert all(graph.neighbors(v) is vs for v, vs in graph.adjacent.items())
        _assert_adjacency_matches_edge_scan(graph)
        with pytest.raises(TypeError):
            graph.adjacent[graph.vertices[0]] = ()
        with pytest.raises(TypeError):
            hash(graph)


def test_diagonal_pair_edges_are_obvious_weights():
    # pair (w^, w^) with any valid s joins F(w) and F(sw)
    rho = rho41()
    obv = obvious_weights(rho)
    for pair in diagonal_pairs():
        w = pair.w2[0].w
        for (i, j) in valid_simples(pair):
            sw = weyl_mul({1: W_S1, 2: W_S2}[i], w)
            inst = build_instance(rho, pair, (i, j))
            assert inst.sigma1 == obv[(w,)]
            assert inst.sigma2 == obv[(sw,)]


def test_all_instances_sigma1_ne_sigma2_and_intersection():
    # exhaustive over f=1 instances at both primes; build_instance asserts
    # the two-element intersection internally, so success is the statement
    for rho in (rho41(), rho37()):
        n = 0
        for pair in enumerate_ap_prime(1):
            for s in valid_simples(pair):
                inst = build_instance(rho, pair, s)
                assert inst.sigma1 != inst.sigma2
                n += 1
        assert n == 34  # 20 pairs x 2 reflections - 6 forbidden


def test_inclusion_of_intersections():
    # the two weights of every instance are predicted for the ambient
    # parameter as well
    rho = rho41()
    wq = w_question_set(rho)
    for pair in enumerate_ap_prime(1):
        for s in valid_simples(pair):
            inst = build_instance(rho, pair, s)
            small = intersect_w_jh(inst.rhobar0, inst.tau)
            big = wq & jh_set(inst.tau)
            assert small <= big
            assert {inst.sigma1, inst.sigma2} <= big


def _sampled_instances():
    """(rhobar, its instances): all of rb1 and rb41, and seeded samples at
    f = 2 and f = 3."""
    for rho in (fixture("rb1.json"), fixture("rb41.json")):
        yield rho, [build_instance(rho, pair, s, check=False)
                    for pair in enumerate_ap_prime(1) for s in valid_simples(pair)]
    rng = random.Random(2024)
    for f, seeds, count in ((2, (3, 4), 6), (3, (1,), 2)):
        for seed in seeds:
            rho = random_deep_presentation(37, f, 8, random.Random(seed), kind="param")
            pairs = enumerate_ap_prime(f)
            draws = [rng.choice(pairs) for _ in range(count)]
            yield rho, [build_instance(rho, pair, rng.choice(valid_simples(pair)), check=False)
                        for pair in draws]


def test_edge_endpoints_are_outer_weights():
    # sigma1 and sigma2 are F_tau at the outer tuples of w and sw, and
    # sigma1 is F_rhobar at the pair, read from the oracle's tables
    count = 0
    for rho, instances in _sampled_instances():
        wq = oracles.w_question(rho)
        for inst in instances:
            i, j = inst.s
            ws = tuple(x.w for x in inst.pair.w2)
            sws = ws[:j] + (weyl_mul(SIMPLES[i], ws[j]),) + ws[j + 1:]
            jh = oracles.jh_factors(inst.tau)
            assert inst.sigma1 == jh[outer_pair(ws)]
            assert inst.sigma2 == jh[outer_pair(sws)]
            assert inst.sigma1 == wq[inst.pair]
            count += 1
    assert count == 2 * 34 + 2 * 6 + 2


def fixture(name):
    return load_presentation(
        os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", name))


def test_build_instance_refuses_pairs_not_made_of_ap_prime_pairs():
    rho = fixture("rb1.json")
    ap = enumerate_ap(1)[0]
    app = next(pr for pr in enumerate_ap_prime(1) if pr.w1 != pr.w2)
    for forged in (APPair(ap.w1, ap.w2),  # an AP pair
                   APPair(app.w2, app.w1),  # an AP' pair, swapped
                   APPair(app.w1, app.w2 * 2)):  # w2 longer than w1
        with pytest.raises(ValueError, match="^pair is not made of AP' pairs$"):
            build_instance(rho, forged, (1, 0))


@pytest.mark.parametrize("mu", [(60, 30, 0), (2, 1, 0), (4, 2, 0)])
def test_build_instance_refuses_a_parameter_as_build_graph_does(mu):
    # outside the lowest alcove, and 1- and 2-deep: each instance reads
    # F_rhobar at its pair first, so it is refused by the weight maps'
    # guard, which names the parameter, before anything is derived
    rho = TamePresentation.make("param", (W_S1,), (Weight(*mu),), 37)
    _graph_of.cache_clear()
    with pytest.raises(GenericityError) as refused:
        build_graph(rho)
    assert "param[s=s1 mu=%d,%d,%d]" % mu in str(refused.value)
    for pair in enumerate_ap_prime(1):
        for s in valid_simples(pair):
            with pytest.raises(GenericityError) as alone:
                build_instance(rho, pair, s, check=False)
            assert str(alone.value) == str(refused.value)


def test_unchecked_build_compares_sigma1_with_the_weight_of_the_pair(monkeypatch):
    # with one row's outer index k_w moved to another AP index, F_tau(w)
    # is not the pair's predicted weight, and even an unchecked build fails
    forged = dict(adjacency._slot_targets())
    key = next(key for key in forged if key[2] == 1)
    g_inv, w1_inv_w2, k_w, k_sw = forged[key]
    forged[key] = (g_inv, w1_inv_w2, (k_w + 1) % 20, k_sw)
    monkeypatch.setattr(adjacency, "_slot_targets", lambda: forged)
    _graph_of.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^sigma1 does not match the weight of the pair$"):
            build_graph(rho41(), check=False)
    finally:
        _graph_of.cache_clear()


def test_weights_read_alone_are_read_only_where_instances_are_made(monkeypatch):
    # counted by kind: a cold build of rb41, checked or not, reads tau's
    # weights off its full slots and takes sigma1 from W?, and its steered
    # steps read nothing alone; an instance alone reads sigma1 alone and its
    # two tau weights off a table of its own, checked or not
    rho = fixture("rb41.json")
    reads = []
    real = weights._SlotTable.weight
    monkeypatch.setattr(weights._SlotTable, "weight", staticmethod(
        lambda pres, kind, combo: reads.append(kind) or real(pres, kind, combo)))
    for check in (False, True):
        _graph_of.cache_clear()
        graph = build_graph(rho, check=check)
    for sigma in graph.vertices:
        find_chain(rho, sigma)
    assert len(graph.vertices) == 20 and reads == []
    pair = next(pr for pr in enumerate_ap_prime(1) if pr.w1 != pr.w2)
    for check in (True, False):
        reads.clear()
        build_instance(rho, pair, (1, 0), check=check)
        assert reads == ["param"]


@pytest.mark.parametrize("name, count", (("rb1.json", 8), ("rb41.json", 8), ("rb_f2.json", 64)))
def test_graph_reads_the_obvious_weights_off_its_w_question_table(name, count):
    # the graph's obvious weights are W?'s values at its diagonal pairs,
    # the set obvious_weights makes on a table of its own
    rho = fixture(name)
    obvious = _graph_of(rho).graph.obvious
    assert len(obvious) == count
    assert obvious == frozenset(obvious_weights(rho).values())


def test_edge_symmetry_of_construction():
    # the conjugated target built from diamond(w) equals the one built from
    # diamond(sw); hence both pairs witness the same type and edge
    for w in W_ALL:
        for ws in (W_S1, W_S2):
            dw = diamond(w)
            dsw = diamond(weyl_mul(ws, w))
            a = compose_all(
                invert(dw), invert(HIGHEST_RESTRICTED), W0, finite(ws), dw
            )
            b = compose_all(
                invert(dsw), invert(HIGHEST_RESTRICTED), W0, finite(ws), dsw
            )
            assert a == b


def test_edge_symmetry_of_instances():
    rho = rho41()
    diag = {p.w2[0].w: p for p in diagonal_pairs()}
    for w in W_ALL:
        for i in (1, 2):
            sw = weyl_mul({1: W_S1, 2: W_S2}[i], w)
            inst_a = build_instance(rho, diag[w], (i, 0))
            inst_b = build_instance(rho, diag[sw], (i, 0))
            assert inst_a.tau == inst_b.tau
            assert inst_a.rhobar0 == inst_b.rhobar0
            assert {inst_a.sigma1, inst_a.sigma2} == {inst_b.sigma1, inst_b.sigma2}


def graph41():
    if not hasattr(graph41, "cache"):
        graph41.cache = build_graph(rho41())
    return graph41.cache


def test_graph_connected_f1():
    for rho in (rho41(), rho37()):
        g = build_graph(rho)
        assert len(g.vertices) == 20
        assert len(g.components()) == 1


def test_obvious_subgraph_connected():
    rho = rho41()
    g = graph41()
    obv = frozenset(obvious_weights(rho).values())
    assert obv == g.obvious
    # restrict to edges inside the obvious set and BFS by hand
    adj = {v: set() for v in obv}
    for (a, b) in g.edges:
        if a in obv and b in obv:
            adj[a].add(b)
            adj[b].add(a)
    start = next(iter(obv))
    seen = {start}
    stack = [start]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    assert seen == set(obv)


def test_graph_edges_lie_in_vertex_set():
    g = graph41()
    vs = set(g.vertices)
    for (a, b), witnesses in g.edges.items():
        assert a in vs and b in vs and a != b
        assert witnesses


def test_graph_deterministic_dot():
    rho = rho41()
    d1 = build_graph(rho).to_dot()
    d2 = build_graph(rho).to_dot()
    assert d1 == d2
    assert d1.startswith("graph weights {")


def test_find_chain_obvious_is_empty():
    rho = rho41()
    sigma = next(iter(obvious_weights(rho).values()))
    res = find_chain(rho, sigma)
    assert res.bfs == () and res.steered == ()


def test_find_chain_rejects_unknown_weight():
    rho = rho41()
    other = random_deep_presentation(41, 1, 9, random.Random(99), kind="param")
    stray = next(iter(w_question_set(other) - w_question_set(rho)))
    with pytest.raises(ValueError, match="not predicted"):
        find_chain(rho, stray)


def test_find_chain_builds_the_weight_table_once(monkeypatch):
    rho = rho41()
    graph = build_graph(rho, check=False)
    sigma = next(s for s in graph.vertices if s not in graph.obvious)
    builds, instances = [], []
    made = weights._SlotTable.weights
    monkeypatch.setattr(weights._SlotTable, "weights",
                        lambda self, pres, kind: builds.append(kind) or made(self, pres, kind))
    monkeypatch.setattr(adjacency, "build_instance",
                        lambda *args, **kw: instances.append(args))
    assert find_chain(rho, sigma).steered
    assert builds == [] and instances == []
    # the patch sees a table that is built
    assert weights.w_question(rho)
    assert builds == ["param"]


def test_find_chain_reads_the_inverse_from_the_graph_state(monkeypatch):
    # W? is read once per parameter, by the build: the chains that follow
    # read the inverse the build kept
    rho = rho41()
    _graph_of.cache_clear()
    calls = []
    made = weights._SlotTable.weights
    monkeypatch.setattr(weights._SlotTable, "weights",
                        lambda self, pres, kind: calls.append((pres, kind)) or made(self, pres, kind))
    graph = build_graph(rho)
    assert calls == [(rho, "param")]
    starts = [s for s in graph.vertices if s not in graph.obvious][:4]
    assert len(starts) == 4
    for sigma in starts:
        assert find_chain(rho, sigma).steered
    assert calls == [(rho, "param")]


def test_slot_targets_are_conjugated_targets():
    # every single has rows for no letter and s_1, and one for s_2 unless
    # its w1 has length zero and differs from its w2 (6 of the 20)
    table = adjacency._slot_targets()
    assert len(table) == 3 * len(enumerate_ap_prime(1)) - 6
    for pair in enumerate_ap_prime(1):
        (w1,), (w2,) = pair.w1, pair.w2
        for letter in (None, 1, 2):
            if letter == 2 and in_omega(w1) and w1 != w2:
                assert (w1, w2, letter) not in table
                continue
            mid = () if letter is None else (finite(SIMPLES[letter]),)
            g = compose_all(invert(w2), invert(HIGHEST_RESTRICTED), W0, *mid, w1)
            if letter is not None:
                assert (g,) == conjugated_target((w2,), (w1,), (letter, 0))
            g_inv, w1_inv_w2, k_w, k_sw = table[w1, w2, letter]
            assert compose(g, g_inv) == IDENTITY
            assert w1_inv_w2 == compose(invert(w1), w2)
            assert enumerate_ap_prime(1)[weights._singles("param").index[w1, w2]] == pair
            # the outer AP singles of w and s_i w, for w the finite part of w2
            w = w2.w
            sw = w if letter is None else weyl_mul(SIMPLES[letter], w)
            assert enumerate_ap(1)[k_w] == outer_pair((w,))
            assert enumerate_ap(1)[k_sw] == outer_pair((sw,))


def test_build_instance_depth_guards_in_order(monkeypatch, caplog):
    # for AP' targets a derived presentation loses at most 3 of rhobar's
    # depth, so the guards only fire under a raised bound; the type is
    # refused before the parameter, and no warning comes before either
    rho = rho41()
    inst = next(inst for pair in enumerate_ap_prime(1) for s in valid_simples(pair)
                for inst in [build_instance(rho, pair, s, check=False)]
                if inst.rhobar0.depth() < inst.tau.depth())
    td, rd = inst.tau.depth(), inst.rhobar0.depth()
    caplog.set_level("WARNING")
    for bound, message in (
        (td + 1, "derived type has depth %d < %d" % (td, td + 1)),
        (rd + 1, "derived parameter has depth %d < %d" % (rd, rd + 1)),
    ):
        caplog.clear()
        for module in (adjacency, weights):
            monkeypatch.setattr(module, "derived_depth_bound", lambda d, bound=bound: bound)
        with pytest.raises(GenericityError, match="^%s$" % message):
            build_instance(rho, inst.pair, inst.s)
        # a graph build is refused with the first refusal of its instances
        # built one by one, in enumeration order
        first = _first_refusal(rho)
        _graph_of.cache_clear()
        with pytest.raises(GenericityError) as refused:
            build_graph(rho)
        assert str(refused.value) == first
        assert caplog.records == []


def _first_refusal(rho):
    """The message of the first GenericityError of build_instance over
    enumerate_ap_prime(f) x valid_simples, in enumeration order."""
    for pair in enumerate_ap_prime(rho.f):
        for s in valid_simples(pair):
            try:
                build_instance(rho, pair, s, check=False)
            except GenericityError as exc:
                return str(exc)
    raise AssertionError("no instance is refused")


def test_shallow_parameter_warned_once_per_build(caplog):
    rho = fixture("rb1.json")  # depth 8
    _graph_of.cache_clear()
    caplog.set_level("WARNING", logger="gsp4weights.adjacency")
    graph = build_graph(rho)
    starts = [v for v in graph.vertices if v not in graph.obvious]
    for sigma in starts[:4]:
        assert find_chain(rho, sigma).bfs
    shallow = [r for r in caplog.records if "below 9" in r.getMessage()]
    assert len(shallow) == 1


def test_memo_hit_reruns_every_check(monkeypatch):
    # a checked call on the memo chains each of the 23 distinct (rhobar0,
    # tau) of rb41's 34 instances once, in order, over the state's table,
    # by the numbers of their full slots there, and every call chains them
    # all again
    rho = rho41()
    build_graph(rho, check=False)
    state = _graph_of(rho)
    hits = _graph_of.cache_info().hits
    calls = []
    real = weights._SlotTable.meet
    monkeypatch.setattr(weights._SlotTable, "meet",
                        lambda *args: calls.append(args) or real(*args))
    distinct = list(dict.fromkeys((inst.rhobar0, inst.tau) for inst in state.instances.values()))
    for _ in range(2):
        calls.clear()
        build_graph(rho, check=True)
        numbered = [tuple(state.table.numbered(pres.kind, tuple(zip(pres.s, pres.mu)), rho.p)
                          for pres in pair) + (rho.p,) for pair in distinct]
        assert [args[1:] for args in calls] == numbered and len(distinct) == 23
        assert all(args[0] is state.table for args in calls)
    assert _graph_of.cache_info().hits == hits + 2
    # every instance is still compared: a later instance whose intersection
    # was chained for an earlier one fails on its own weights
    seen = set()
    for key, inst in state.instances.items():
        if (inst.rhobar0, inst.tau) in seen:
            break
        seen.add((inst.rhobar0, inst.tau))
    monkeypatch.setitem(state.instances, key, inst._replace(sigma2=inst.sigma1))
    with pytest.raises(AssertionError, match="expected two outer weights"):
        build_graph(rho, check=True)


@pytest.mark.parametrize("name, joins", [("rb41.json", 23), ("rb_f2.json", 86)])
def test_checked_build_joins_each_slot_pair_once(monkeypatch, name, joins):
    # one join per distinct (W? slot, JH slot) pair of the parameter: 23 for
    # the 34 instances at f = 1, 86 for the 2720 slot checks of rb_f2's
    # 1360; the state's table keeps them, so a second checked call and the
    # steered chains make none
    rho = fixture(name)
    made = []
    real = weights._slot_join
    monkeypatch.setattr(weights, "_slot_join", lambda *args: made.append(1) or real(*args))
    _graph_of.cache_clear()
    graph = build_graph(rho, check=True)
    assert len(made) == joins
    made.clear()
    build_graph(rho, check=True)
    for sigma in graph.vertices[:20]:
        find_chain(rho, sigma)
    assert made == []


def test_rb41_makes_each_weight_part_once_per_parameter(monkeypatch):
    # a cold checked build of rb41 makes its 10 rhobar0 slots (one of them
    # W?'s own), its 23 tau slots, 10 indexes and 23 joins, reads no single
    # part, and chains its 23 distinct intersections; 20 chains after it and
    # a second checked build make nothing and chain 18 and 23 again
    rho = fixture("rb41.json")
    made = Counter()
    real_parts, real_index = weights._slot_parts, weights._slot_index
    real_join, real_meet = weights._slot_join, weights._SlotTable.meet

    def parts(kind, s, mu, p, ks, cells):
        made["single" if len(ks) == 1 else "slot", kind] += 1
        return real_parts(kind, s, mu, p, ks, cells)

    monkeypatch.setattr(weights, "_slot_parts", parts)
    monkeypatch.setattr(weights, "_slot_index", lambda *a: made.update(["index"]) or real_index(*a))
    monkeypatch.setattr(weights, "_slot_join", lambda *a: made.update(["join"]) or real_join(*a))
    monkeypatch.setattr(weights._SlotTable, "meet",
                        lambda *a: made.update(["chain"]) or real_meet(*a))
    _graph_of.cache_clear()
    graph = build_graph(rho, check=True)
    assert made == {("slot", "param"): 10, ("slot", "type"): 23, "index": 10, "join": 23,
                    "chain": 23}
    made.clear()
    for sigma in graph.vertices:
        find_chain(rho, sigma)
    assert made == {"chain": 18}
    made.clear()
    build_graph(rho, check=True)
    assert made == {"chain": 23}


# full slots, parts, index entries and join entries of a cold checked build
COLD_CHECKED_SIZES = {"rb41.json": (33, 660, 200, 76), "rb_f2.json": (106, 10176, 1920, 4888)}

# full slots made by kind: W?'s own and the distinct tau slots in a cold
# unchecked build, then the distinct rhobar0 slots that are not W?'s in the
# first checked call
SLOTS_MADE = {"rb41.json": ({"param": 1, "type": 23}, {"param": 9}),
              "rb_f2.json": ({"param": 2, "type": 86}, {"param": 18})}


@pytest.mark.parametrize("name, types, params, indexes, reads", [
    ("rb41.json", 23, 10, 10, 23), ("rb_f2.json", 920, 100, 20, 1840)])
def test_each_presentation_and_w_question_index_is_made_once_per_call(
        monkeypatch, name, types, params, indexes, reads):
    # a cold unchecked build makes no presentation: of its `types` distinct
    # taus and `params` distinct rhobar0, it makes each distinct tau slot
    # once, and the first checked call each distinct rhobar0 slot once
    # (W?'s own are made for W?); the first checked call indexes each
    # distinct W? slot once, for the parameter, and every checked call
    # reads the joins of each distinct (rhobar0, tau) once (34 and 2720
    # slot reads, one per check and slot)
    rho = fixture(name)
    presented, made, index, joins = [], Counter(), [], []
    real_make, real_parts = weights.TamePresentation.make, weights._slot_parts

    def parts(kind, s, mu, p, ts, cells):
        made[kind] += 1
        return real_parts(kind, s, mu, p, ts, cells)

    monkeypatch.setattr(weights.TamePresentation, "make", staticmethod(
        lambda *args: presented.append(args) or real_make(*args)))
    monkeypatch.setattr(weights, "_slot_parts", parts)
    _graph_of.cache_clear()
    build_graph(rho, check=False)
    state = _graph_of(rho)
    assert dict(made) == SLOTS_MADE[name][0]
    assert made["type"] == len({sl for inst in state.instances.values() for sl in inst.tau_slots})
    assert len({inst.tau_slots for inst in state.instances.values()}) == types
    assert len({inst.rhobar0_slots for inst in state.instances.values()}) == params
    real_index, real_join = weights._slot_index, weights._SlotTable.join
    monkeypatch.setattr(weights, "_slot_index", lambda *args: index.append(1) or real_index(*args))
    monkeypatch.setattr(weights._SlotTable, "join",
                        lambda *args: joins.append(1) or real_join(*args))
    for slots, count in ((SLOTS_MADE[name][1], indexes), ({}, 0)):
        made.clear()
        index.clear()
        joins.clear()
        build_graph(rho, check=True)
        assert (dict(made), len(index), len(joins)) == (slots, count, reads)
    assert presented == []
    # a cold checked build keys its parts by theta: a full slot holds one
    # part per (y, theta), 8 x 12, at f = 2, and at f = 1, where each row's
    # thetas are distinct, one per single
    count = Counter()

    def entries(key, real):
        def counted(*args):
            out = real(*args)
            count["slots"] += key == "parts"
            count[key] += sum(map(len, out.values() if isinstance(out, dict) else out))
            return out
        return counted

    monkeypatch.setattr(weights, "_slot_parts", entries("parts", real_parts))
    monkeypatch.setattr(weights, "_slot_index", entries("index", real_index))
    monkeypatch.setattr(weights, "_slot_join", entries("join", weights._slot_join))
    _graph_of.cache_clear()
    build_graph(rho, check=True)
    assert (count["slots"], count["parts"], count["index"], count["join"]) == \
        COLD_CHECKED_SIZES[name]


def test_weight_checks_leave_no_cyclic_garbage():
    # with the collector off, a graph's checks, chains and cycle formula
    # and a checked f = 2 instance free all they make by reference
    # counting: no recursive closure, which would be a cycle on every call
    rho, rho2 = fixture("rb41.json"), fixture("rb_f2.json")
    pair = enumerate_ap_prime(2)[5]
    _graph_of.cache_clear()
    gc.collect()
    gc.disable()
    try:
        graph = build_graph(rho, check=True)
        for sigma in graph.vertices:
            find_chain(rho, sigma)
        tau = next(iter(graph.edges.values()))[0].tau
        for sigma in jh_set(tau):
            if sigma.depth() >= 3:
                bm_cycle(sigma)
        build_instance(rho2, pair, valid_simples(pair)[0], check=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_failing_check_raises_after_unchecked_build(monkeypatch):
    rho = rho41()
    build_graph(rho, check=True)
    build_graph(rho, check=False)
    monkeypatch.setattr(weights._SlotTable, "meet", lambda *args: frozenset())
    with pytest.raises(AssertionError, match="expected two outer weights"):
        build_graph(rho, check=True)
    assert len(build_graph(rho, check=False).components()) == 1


def test_steered_steps_are_checked_on_the_shared_graph(monkeypatch):
    rho = rho41()
    graph = build_graph(rho, check=True)
    sigma = next(s for s in graph.vertices if s not in graph.obvious)
    monkeypatch.setattr(weights._SlotTable, "meet", lambda *args: frozenset())
    with pytest.raises(AssertionError, match="expected two outer weights"):
        find_chain(rho, sigma)


def test_find_chain_refuses_every_weight_of_a_refused_parameter():
    # W? exists at depth 4, but the derived types are too shallow for the
    # graph; find_chain reads the graph, so even an obvious weight is refused
    rho = TamePresentation.make("param", (W_E,), (Weight(12, 8, 0),), 37)
    message = r"^presentation type\[s=s2 mu=10,9,-1\] is only 1-deep; need at least 3$"
    with pytest.raises(GenericityError, match=message):
        build_graph(rho, check=False)
    obvious = frozenset(obvious_weights(rho).values())
    for sigma in (min(obvious, key=lambda s: s.sort_key()),
                  min(w_question_set(rho) - obvious, key=lambda s: s.sort_key())):
        with pytest.raises(GenericityError, match=message):
            find_chain(rho, sigma)


@pytest.mark.parametrize("name", ["rb1.json", "rb41.json"])
def test_memoised_graph_equals_a_fresh_build(name):
    rho = fixture(name)

    def fresh_chain(sigma):
        _graph_of.cache_clear()
        return find_chain(rho, sigma)

    build_graph(rho)
    shared = build_graph(rho)
    chains = [find_chain(rho, sigma) for sigma in shared.vertices]
    _graph_of.cache_clear()
    fresh = build_graph(rho)
    assert fresh is not shared
    assert (shared.vertices, dict(shared.edges), shared.obvious, shared.to_dot()) == (
        fresh.vertices, dict(fresh.edges), fresh.obvious, fresh.to_dot())
    assert chains == [fresh_chain(sigma) for sigma in fresh.vertices]


def test_graph_edges_are_read_only():
    g = build_graph(rho41(), check=False)
    edge = next(iter(g.edges))
    with pytest.raises(TypeError):
        g.edges[edge] = ()
    with pytest.raises(TypeError):
        del g.edges[edge]


def test_steering_single_step_from_second_alcove():
    # w2 in the second restricted alcove: one s_1 step lands in Omega
    rho = rho41()
    back = _graph_of(rho).back
    for pair, sigma in w_question(rho).items():
        if restricted_alcove_index(alcove_of(pair.w2[0])) != 2:
            continue
        inst = build_instance(rho, pair, (1, 0))
        nxt = back[inst.sigma2]
        assert in_omega(nxt.w2[0])


def _distances_to_obvious(graph):
    """Edge distance from every vertex to the nearest obvious weight: one
    breadth-first walk from all obvious weights at once over the edge list."""
    adj = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = dict.fromkeys(graph.obvious, 0)
    frontier = list(graph.obvious)
    while frontier:
        nxt = []
        for v in frontier:
            for nb in adj[v]:
                if nb not in dist:
                    dist[nb] = dist[v] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


@pytest.mark.parametrize("name, sample", (("rb1.json", None), ("rb41.json", None),
                                          ("rb_f2.json", 40)))
def test_bfs_chains_are_shortest_paths(name, sample):
    rho = fixture(name)
    graph = build_graph(rho, check=False)
    dist = _distances_to_obvious(graph)
    starts = graph.vertices if sample is None else random.Random(3).sample(graph.vertices, sample)
    assert [s for s in starts if len(find_chain(rho, s).bfs) != dist[s]] == []


def test_steered_chains_short_and_correct():
    # exhaustive over all predicted weights at f=1: chains end at an obvious
    # weight in at most 3 steps, and consecutive weights share an edge
    for rho in (rho41(), rho37()):
        obv = set(obvious_weights(rho).values())
        for sigma in sorted(w_question_set(rho), key=lambda s: s.sort_key()):
            res = find_chain(rho, sigma)
            assert len(res.steered) <= 3
            assert len(res.bfs) <= len(res.steered) or not res.bfs
            cur = sigma
            for inst in res.steered:
                assert inst.sigma1 == cur
                cur = inst.sigma2
            if sigma in obv:
                assert cur == sigma
            else:
                assert cur in obv
            if res.bfs:
                assert res.bfs[0].sigma1 == sigma or res.bfs[0].sigma2 == sigma


def _single_instances(rho, pairs):
    """(pair, s) -> build_instance(rho, pair, s, check=False) for each pair
    of `pairs` and each s allowed at it, in order: s_2 is allowed at a slot
    unless its w1 has length zero and differs from its w2."""
    return {(pair, (i, j)): build_instance(rho, pair, (i, j), check=False)
            for pair in pairs for i in (1, 2) for j in range(pair.f)
            if not (i == 2 and in_omega(pair.w1[j]) and pair.w1[j] != pair.w2[j])}


@pytest.mark.parametrize("name", ["rb1.json", "rb41.json", "rb_f2.json"])
def test_per_slot_build_equals_the_single_instance_path(name):
    # _graph_of derives every instance of a build through one memo; alone,
    # each instance gives the same, in the same order, and so the same graph
    rho = fixture(name)
    _graph_of.cache_clear()
    state = _graph_of(rho)
    alone = _single_instances(rho, enumerate_ap_prime(rho.f))
    assert list(state.instances) == list(alone)
    assert list(state.instances.values()) == list(alone.values())
    edges = {}
    for inst in alone.values():
        edges.setdefault(frozenset((inst.sigma1, inst.sigma2)), []).append(inst)
    graph = state.graph
    assert {frozenset(e): list(w) for e, w in graph.edges.items()} == edges
    assert graph.vertices == tuple(sorted(w_question_set(rho), key=lambda s: s.sort_key()))
    assert graph.obvious == frozenset(obvious_weights(rho).values())


def rho_f3():
    return random_deep_presentation(37, 3, 8, random.Random(1), kind="param")


def test_per_slot_build_equals_the_single_instance_path_on_an_f3_sample():
    rho = rho_f3()
    state = _graph_of(rho)
    order = {pair: n for n, pair in enumerate(enumerate_ap_prime(3))}
    pairs = sorted(random.Random(5).sample(enumerate_ap_prime(3), 40), key=order.get)
    alone = _single_instances(rho, pairs)
    chosen = set(pairs)
    assert [key for key in state.instances if key[0] in chosen] == list(alone)
    assert [state.instances[key] for key in alone] == list(alone.values())


def _composed(rho, pair, s):
    """tau and rhobar0 of (pair, s) as presentation_from_w_tilde makes them
    from w(rhobar) g^(-1) and w(rhobar) w1^(-1) w2, slot by slot from the
    `_slot_targets` rows of the pair and s, tau first."""
    targets = adjacency._slot_targets()
    i, j = s
    rows = [targets[w1, w2, i if k == j else None]
            for k, (w1, w2) in enumerate(zip(pair.w1, pair.w2))]
    x = rho.w_tilde()
    return tuple(
        presentation_from_w_tilde(kind, tuple(compose(xk, row[n]) for xk, row in zip(x, rows)), rho.p)
        for kind, n in (("type", 0), ("param", 1)))


@pytest.mark.parametrize("name", ["rb1.json", "rb41.json", "rb_f2.json", "f3"])
def test_derived_presentations_equal_the_composed_ones(name):
    # an instance keeps tau and rhobar0 slot by slot as (s, mu) and makes
    # their presentations when they are read: on every instance of the
    # fixtures' graphs, and alone on the 40 f = 3 pairs of the sample
    # above, they are the presentations the composed elements give
    if name == "f3":
        rho = rho_f3()
        order = {pair: n for n, pair in enumerate(enumerate_ap_prime(3))}
        pairs = sorted(random.Random(5).sample(enumerate_ap_prime(3), 40), key=order.get)
        instances = list(_single_instances(rho, pairs).values())
    else:
        rho = fixture(name)
        instances = list(_graph_of(rho).instances.values())
    assert len(instances) == {"rb_f2.json": 1360, "f3": 196}.get(name, 34)
    for inst in instances:
        assert (inst.tau, inst.rhobar0) == _composed(rho, inst.pair, inst.s)
        assert (inst.tau_slots, inst.rhobar0_slots) == tuple(
            tuple(zip(pres.s, pres.mu)) for pres in (inst.tau, inst.rhobar0))


def test_derived_mu_outside_the_lowest_alcove_is_refused_as_presented(monkeypatch):
    # below the shipped weight depth a derived tau or rhobar0 can leave the
    # lowest alcove; an instance whose sigma1 is read is then refused with
    # the ValueError that presentation_from_w_tilde raises on the composed
    # element, tau first
    monkeypatch.setattr(weights, "WEIGHT_DEPTH", 0)
    rho = TamePresentation.make("param", (W_E,), (Weight(0, 0, 0),), 37)
    index = weights._singles("param").index
    refused = []
    for pair in enumerate_ap_prime(1):
        try:
            weights._SlotTable.weight(rho, "param", (index[pair.w1[0], pair.w2[0]],))
        except GenericityError:
            continue
        for s in valid_simples(pair):
            try:
                _composed(rho, pair, s)
            except ValueError as exc:
                with pytest.raises(ValueError) as alone:
                    build_instance(rho, pair, s, check=False)
                refused.append(str(alone.value) == str(exc))
    assert len(refused) == 12 and all(refused)


def test_f3_graph_unchecked_then_checked():
    # the f = 3 graph of one 8-deep parameter: one component, every one of
    # its instances obeys the per-slot product rule, and a checked build on
    # the same memo runs the intersection check of all 40800
    rho = rho_f3()
    graph = build_graph(rho, check=False)
    instances = _graph_of(rho).instances
    assert (len(graph.vertices), len(instances), len(graph.edges)) == (8000, 40800, 27600)
    assert len(graph.components()) == 1
    assert len(slot_product_map([rho])) == 34
    assert build_graph(rho, check=True) is graph
    _graph_of.cache_clear()


def test_graph_connected_f2():
    rho = random_deep_presentation(41, 2, 9, random.Random(11), kind="param")
    g = build_graph(rho, check=False)
    assert len(g.vertices) == 400
    assert len(g.components()) == 1
    # spot-check a sample of instances with the full intersection assertion
    pairs = enumerate_ap_prime(2)
    rng = random.Random(5)
    for pair in rng.sample(pairs, 12):
        s = rng.choice(valid_simples(pair))
        build_instance(rho, pair, s)


def test_graph_connected_f2_p37():
    rho = random_deep_presentation(37, 2, 8, random.Random(12), kind="param")
    g = build_graph(rho, check=False)
    assert len(g.vertices) == 400
    assert len(g.components()) == 1


def _assert_adjacency_matches_edge_scan(g):
    # `neighbors` lists partners in edge order, so the edges must be in
    # (a, b) sort_key order with a before b
    assert list(g.edges) == sorted(g.edges, key=lambda e: (e[0].sort_key(), e[1].sort_key()))
    assert all(a.sort_key() < b.sort_key() for a, b in g.edges)
    for v in g.vertices:
        scan = {b for a, b in g.edges if a == v} | {a for a, b in g.edges if b == v}
        assert g.neighbors(v) == tuple(sorted(scan, key=lambda s: s.sort_key()))
    # components by union-find over the edge list
    root = {v: v for v in g.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in g.edges:
        root[find(a)] = find(b)
    classes = {}
    for v in g.vertices:
        classes.setdefault(find(v), set()).add(v)

    def keys(comps):
        return sorted(sorted(v.sort_key() for v in comp) for comp in comps)

    assert keys(g.components()) == keys(classes.values())


def test_neighbors_and_components_f1():
    for rho in (rho41(), rho37(), fixture("rb1.json"), fixture("rb41.json")):
        _assert_adjacency_matches_edge_scan(build_graph(rho, check=False))


def test_full_f2_graph_with_checks():
    # every one of the 920 edges' instances runs the full intersection check
    g = build_graph(fixture("rb_f2.json"), check=True)
    assert len(g.vertices) == 400
    assert len(g.edges) == 920
    assert len(g.obvious) == 64
    assert len(g.components()) == 1
    _assert_adjacency_matches_edge_scan(g)


def _check_witness_map(rho, table):
    """The per-slot map of rho's instances (`slot_product_map` on rho
    alone), on AP' indices, is `table`."""
    index = weights._singles("param").index
    measured = {(index[key[:2]], key[2]): index[new]
                for key, new in slot_product_map([rho]).items()}
    assert measured == table, rho.display()


def test_per_slot_product_rule():
    # every instance of rb1, rb41 and rb_f2 (34 + 34 + 1360) and of 40
    # seeded 9-deep parameters (8 per p) moves one slot of its pair, by
    # the 34-entry map T on (AP' index, letter of s); the obvious weights
    # sit at the diagonal indices OBVIOUS
    rng = random.Random(5)
    rhos = [fixture(name) for name in ("rb1.json", "rb41.json", "rb_f2.json")]
    rhos += [random_deep_presentation(p, 1, 9, rng, "param")
             for p in (53, 61, 67, 101, 131) for _ in range(8)]
    for rho in rhos:
        _check_witness_map(rho, oracles.T)
    diagonal = {k for (w1, w2), k in weights._singles("param").index.items() if w1 == w2}
    assert diagonal == oracles.OBVIOUS


def test_witness_map_check_fails_on_T_with_two_entries_swapped():
    swapped = dict(oracles.T)
    swapped[0, 1], swapped[0, 2] = swapped[0, 2], swapped[0, 1]
    with pytest.raises(AssertionError):
        _check_witness_map(fixture("rb1.json"), swapped)


def test_gamma_is_read_off_T():
    # the f = 1 graph on AP' indices, from T alone: 20 vertices, 23 edges
    edges = {frozenset((k, new)) for (k, _), new in oracles.T.items()}
    assert len(edges) == 23 and all(len(e) == 2 for e in edges)
    degrees = Counter(k for e in edges for k in e)
    assert sorted(Counter(degrees.values()).items()) == [(1, 4), (2, 12), (3, 2), (6, 2)]


@pytest.mark.parametrize("f", [3, 4, 5, 6])
def test_witness_map_on_checked_instances_at_f(f):
    # 40 seeded pairs of random AP' singles, each with an allowed s, on one
    # 9-deep parameter: each checked instance's sigma1 is F_rhobar at the
    # pair's index tuple k, and its sigma2 is F_rhobar at k with slot j
    # moved to T[k_j, i]
    rho = random_deep_presentation(131, f, 9, random.Random(f), "param")
    singles = weights._singles("param").pairs
    rng = random.Random(100 + f)
    for _ in range(40):
        k = tuple(rng.randrange(len(singles)) for _ in range(f))
        pair = APPair(tuple(singles[n][0] for n in k), tuple(singles[n][1] for n in k))
        i, j = s = rng.choice(valid_simples(pair))
        inst = build_instance(rho, pair, s, check=True)
        moved = k[:j] + (oracles.T[k[j], i],) + k[j + 1:]
        assert inst.sigma1 == weights._SlotTable.weight(rho, "param", k)
        assert inst.sigma2 == weights._SlotTable.weight(rho, "param", moved)


def _shape(inst):
    """The classifier's case at each slot of w(rhobar0, tau)."""
    return tuple(classify_embedding_shape(g) for g in compat_element(inst.rhobar0, inst.tau))


def _step(f, j):
    """Case 2 (the irregular colength-one family) at slot j, case 1 (a
    translation of an extreme weight) at every other slot."""
    return tuple(2 if k == j else 1 for k in range(f))


@pytest.mark.parametrize("name, count", [("rb1.json", 34), ("rb41.json", 34),
                                         ("rb_f2.json", 1360)])
def test_every_edge_is_an_irregular_colength_one_step(name, count):
    # measured: every instance of the graph is case 2 at the slot of s and
    # case 1 elsewhere.  w(rhobar0, tau) depends on (pair, s) alone, so at
    # f = 1 every parameter's 34 instances meet all eight case-2 elements,
    # with the multiplicities below
    rho = fixture(name)
    instances = list(_graph_of(rho).instances.values())
    assert len(instances) == count
    assert [inst for inst in instances if _shape(inst) != _step(rho.f, inst.s[1])] == []
    if rho.f == 1:
        counts = Counter(compat_element(inst.rhobar0, inst.tau) for inst in instances)
        assert {g for (g,) in counts} == set(colength_one_split()[1])
        assert sorted(counts.values(), reverse=True) == [6, 6, 4, 4, 4, 4, 4, 2]


@pytest.mark.parametrize("f", [3, 4])
def test_checked_instances_at_f_are_irregular_colength_one_steps(f):
    # 100 seeded checked instances on one 9-deep parameter, with pairs of
    # random AP' singles and an allowed s each
    rho = random_deep_presentation(131, f, 9, random.Random(10 + f), "param")
    singles = weights._singles("param").pairs
    rng = random.Random(100 + f)
    for _ in range(100):
        k = tuple(rng.randrange(len(singles)) for _ in range(f))
        pair = APPair(tuple(singles[n][0] for n in k), tuple(singles[n][1] for n in k))
        s = rng.choice(valid_simples(pair))
        assert _shape(build_instance(rho, pair, s, check=True)) == _step(f, s[1])


@pytest.mark.parametrize("name", ["rb1.json", "rb41.json", "rb_f2.json"])
def test_sigma1_is_the_obvious_weight_of_rhobar0_at_w2(name):
    # measured: slot by slot w(rhobar0) = w(rhobar) w1^(-1) w2, so the
    # pair (w1, w2) for rhobar reads the weight that (w2, w2) reads for
    # rhobar0, and F_rhobar(w1, w2) = F_rhobar0(w2, w2).  No library path
    # reads sigma1 this way: W?(rhobar) is its one source
    rho = fixture(name)
    obvious = {}
    for inst in _graph_of(rho).instances.values():
        if inst.rhobar0 not in obvious:
            obvious[inst.rhobar0] = obvious_weights(inst.rhobar0)
        assert obvious[inst.rhobar0][tuple(x.w for x in inst.pair.w2)] == inst.sigma1


@pytest.mark.parametrize("f", [3, 4])
def test_sigma1_is_the_obvious_weight_of_rhobar0_at_w2_at_f(f):
    # the same on 60 unchecked instances of the parameter and pairs of
    # test_checked_instances_at_f_are_irregular_colength_one_steps, read
    # at the diagonal index tuple of w2 alone
    rho = random_deep_presentation(131, f, 9, random.Random(10 + f), "param")
    singles = weights._singles("param")
    rng = random.Random(100 + f)
    for _ in range(60):
        k = tuple(rng.randrange(len(singles.pairs)) for _ in range(f))
        pair = APPair(tuple(singles.pairs[n][0] for n in k), tuple(singles.pairs[n][1] for n in k))
        inst = build_instance(rho, pair, rng.choice(valid_simples(pair)), check=False)
        diagonal = tuple(singles.index[w2, w2] for w2 in pair.w2)
        assert weights._SlotTable.weight(inst.rhobar0, "param", diagonal) == inst.sigma1


# Per f = 1 fixture, for each of the six AP' singles whose w1 has length
# zero and differs from w2, in enumeration order: whether the weight that
# meets sigma1 in W?(rhobar0) & JH(tau) for s_2 lies in W?(rhobar).
FORBIDDEN_SECOND_IS_PREDICTED = (True, True, False, True, True, False)


@pytest.mark.parametrize("name", ["rb1.json", "rb41.json"])
def test_forbidden_letters_meet_in_two_weights_on_no_edge(name):
    # valid_simples forbids s_2 at these singles.  Built anyway, tau is
    # case 2 against rhobar0, and W?(rhobar0) & JH(tau) is sigma1 and one
    # more weight, never joined to sigma1 by an edge: so the intersection
    # condition alone does not explain the rule, and a change to
    # valid_simples shows here.  No check reads the classifier.
    rho = fixture(name)
    state, wq = _graph_of(rho), w_question(rho)
    seconds = []
    for pair in enumerate_ap_prime(1):
        (w1,), (w2,) = pair
        if not (in_omega(w1) and w1 != w2):
            continue
        assert (2, 0) not in valid_simples(pair)
        tau = type_from_target(rho, conjugated_target(pair.w2, pair.w1, (2, 0)))
        rhobar0 = presentation_from_w_tilde(
            "param", t_compose(rho.w_tilde(), t_compose(t_invert(pair.w1), pair.w2)), rho.p)
        assert classify_embedding_shape(compat_element(rhobar0, tau)[0]) == 2
        sigma1 = wq[pair]
        meet = intersect_w_jh(rhobar0, tau)
        assert len(meet) == 2 and sigma1 in meet
        (second,) = meet - {sigma1}
        assert _edge(sigma1, second) not in state.graph.edges
        seconds.append(second in state.back)
    assert tuple(seconds) == FORBIDDEN_SECOND_IS_PREDICTED
    assert [mod.__name__ for mod in (adjacency, weights)
            if "classify_embedding_shape" in vars(mod)] == []


def _distances(neighbors, sources):
    """The breadth-first distance from `sources` of each vertex reached."""
    dist = dict.fromkeys(sources, 0)
    queue = list(dist)
    for v in queue:  # the queue grows while it is read
        for nb in neighbors(v):
            if nb not in dist:
                dist[nb] = dist[v] + 1
                queue.append(nb)
    return dist


def _gamma_neighbors(k):
    """k's neighbours in Gamma, the f = 1 graph on AP' indices read off T."""
    return sorted({new for (old, _), new in oracles.T.items() if old == k}
                  | {old for (old, _), new in oracles.T.items() if new == k})


def test_gamma_distances_are_read_off_T():
    # distances to OBVIOUS are 0, 1, 2, 3 for 8, 8, 2, 2 indices, and the
    # farthest two indices are 9 apart
    dist = _distances(_gamma_neighbors, oracles.OBVIOUS)
    assert sorted(Counter(dist.values()).items()) == [(0, 8), (1, 8), (2, 2), (3, 2)]
    assert {k for k, d in dist.items() if d == 3} == {3, 7}
    assert max(max(_distances(_gamma_neighbors, [k]).values()) for k in range(20)) == 9


@pytest.mark.parametrize("name", ["rb1.json", "rb41.json", "rb_f2.json"])
def test_distance_to_an_obvious_weight_is_the_sum_over_slots(name):
    # a weight's distance to the obvious weights is the sum over its slots
    # of their AP' indices' distances to OBVIOUS in Gamma, so at most 3f
    rho = fixture(name)
    state = _graph_of(rho)
    index = weights._singles("param").index
    slot = _distances(_gamma_neighbors, oracles.OBVIOUS)
    dist = _distances(state.graph.neighbors, state.graph.obvious)
    assert len(dist) == len(state.graph.vertices)
    for sigma, pair in state.back.items():
        assert dist[sigma] == sum(slot[index[single]] for single in zip(pair.w1, pair.w2))
    assert max(dist.values()) == 3 * rho.f


def test_slot_tables_are_made_only_where_full_slots_are_read(monkeypatch):
    # a cold build makes the one table of the parameter's state, in
    # _graph_of, and its checks and steered chains read it; an instance,
    # checked or not, makes one in build_instance for its tau and its check
    rho = rho41()
    made = []
    real = weights._SlotTable.__init__

    def counted(self):
        made.append(sys._getframe(1).f_code.co_name)
        real(self)

    monkeypatch.setattr(weights._SlotTable, "__init__", counted)
    _graph_of.cache_clear()
    graph = build_graph(rho, check=False)
    build_graph(rho, check=True)
    for sigma in graph.vertices:
        find_chain(rho, sigma)
    assert made == ["_graph_of"]
    pair = next(pr for pr in enumerate_ap_prime(1) if pr.w1 != pr.w2)
    for check in (False, True):
        made.clear()
        build_instance(rho, pair, (1, 0), check=check)
        assert made == ["build_instance"]


def _through_one_table(instances, expected):
    """Each instance's intersection, read through one slot table shared by
    all of them, equals `expected` of it, computed without a table; and
    F_rhobar at its pair, read alone, is its sigma1."""
    table = weights._SlotTable()
    index = weights._singles("param").index
    for inst in instances:
        got = intersect_w_jh(inst.rhobar0, inst.tau, table)
        assert got == expected(inst) == {inst.sigma1, inst.sigma2}
        combo = tuple(index[pr] for pr in zip(inst.pair.w1, inst.pair.w2))
        assert weights._SlotTable.weight(inst.rhobar, "param", combo) == inst.sigma1


@pytest.mark.parametrize("name", ["rb1.json", "rb41.json"])
def test_shared_slot_table_matches_the_oracle_at_f1(name):
    rho = fixture(name)
    instances = [build_instance(rho, pair, s, check=False)
                 for pair in enumerate_ap_prime(1) for s in valid_simples(pair)]
    assert len(instances) == 34
    _through_one_table(instances, lambda inst: oracles.intersect_w_jh(inst.rhobar0, inst.tau))


def test_shared_slot_table_matches_fresh_sets_on_every_f2_instance():
    instances = list(_graph_of(fixture("rb_f2.json")).instances.values())
    assert len(instances) == 1360
    wq, jh = cache(w_question_set), cache(jh_set)
    _through_one_table(instances, lambda inst: wq(inst.rhobar0) & jh(inst.tau))


def test_shared_slot_table_matches_fresh_sets_on_an_f3_sample():
    # three pairs with every reflection each: the instances of one pair
    # share rhobar0, and their taus share all slots but s's own
    rho = random_deep_presentation(37, 3, 8, random.Random(1), kind="param")
    rng = random.Random(31)
    instances = [build_instance(rho, pair, s, check=False)
                 for pair in rng.sample(enumerate_ap_prime(3), 3) for s in valid_simples(pair)]
    assert len(instances) >= 9
    wq = cache(w_question_set)
    _through_one_table(instances, lambda inst: wq(inst.rhobar0) & jh_set(inst.tau))


def test_checked_build_fails_where_its_first_failing_instance_does(monkeypatch):
    # with the depth policy lowered to 0, a later instance of a 3-deep
    # parameter fails the lowest-alcove test of its tau's full slots where
    # it is made; the unchecked build, the checked build and build_instance
    # run one instance at a time all raise the same error at that instance
    monkeypatch.setattr(weights, "WEIGHT_DEPTH", 0)
    monkeypatch.setattr(adjacency, "derived_depth_bound", lambda d: 0)
    rho = TamePresentation.make("param", (W_S1,), (Weight(6, 3, 0),), 37)
    keys = [(pair, s) for pair in enumerate_ap_prime(1) for s in valid_simples(pair)]
    for n, (pair, s) in enumerate(keys):
        try:
            build_instance(rho, pair, s, check=False)
        except GenericityError as exc:
            first, message = n, str(exc)
            break
    assert first > 0 and message == "omega - eta must lie inside the lowest alcove"
    with pytest.raises(GenericityError, match="^%s$" % message):
        build_instance(*(rho,) + keys[first])
    made = []
    real = adjacency._deriver

    def deriver(*args):
        derive = real(*args)
        return lambda pair, s, sigma1: made.append((pair, s)) or derive(pair, s, sigma1)

    monkeypatch.setattr(adjacency, "_deriver", deriver)
    for check in (False, True):
        made.clear()
        _graph_of.cache_clear()
        with pytest.raises(GenericityError, match="^%s$" % message):
            build_graph(rho, check=check)
        assert made == keys[:first + 1]
    _graph_of.cache_clear()


def test_p37_sweep_builds_or_refuses_alike_checked_or_not():
    # every f = 1 parameter at p = 37 with 0 <= a, b < 2p, c = 0, each s and
    # mu in the lowest alcove: checked or not, its build gives the same
    # refusal or builds; all of depth <= 4 and 112 of depth 5 are refused,
    # and every graph built has one component and a steered chain of at
    # most 3 steps from each of its vertices
    built, refused, starts = Counter(), Counter(), 0
    for s in W_ALL:
        for a in range(74):
            for b in range(74):
                rho = TamePresentation.make("param", (s,), (Weight(a, b, 0),), 37)
                if rho.depth() < 0:
                    continue
                outcomes = []
                for check in (False, True):
                    _graph_of.cache_clear()
                    try:
                        graph = build_graph(rho, check=check)
                    except (GenericityError, AssertionError) as exc:
                        outcomes.append((type(exc), str(exc)))
                    else:
                        outcomes.append(None)
                assert outcomes[0] == outcomes[1], rho.display()
                if outcomes[0] is not None:
                    refused[rho.depth()] += 1
                    continue
                built[rho.depth()] += 1
                assert len(graph.components()) == 1, rho.display()
                for sigma in graph.vertices:
                    assert len(find_chain(rho, sigma).steered) <= 3, rho.display()
                    starts += 1
    _graph_of.cache_clear()
    assert refused == {0: 528, 1: 464, 2: 400, 3: 336, 4: 272, 5: 112}
    assert built == {5: 96, 6: 144, 7: 80, 8: 16}
    assert starts == 20 * 336


def test_p37_shipped_guard_sweep_refuses_by_genericity_and_chains_to_obvious_weights():
    # the same grid with the shipped guards: each parameter is refused
    # with a GenericityError or builds a checked graph of one component,
    # and both walks from every vertex end at an obvious weight; no
    # AssertionError is caught
    grid = [TamePresentation.make("param", (s,), (Weight(a, b, 0),), 37)
            for s in W_ALL for a in range(74) for b in range(74)
            if lowest_alcove_depth(Weight(a, b, 0), 37) >= 0]
    assert len(grid) == 2448
    refused, built = Counter(), Counter()
    for rho in grid:
        _graph_of.cache_clear()
        try:
            graph = build_graph(rho, check=True)
        except GenericityError:
            refused[rho.depth()] += 1
            continue
        built[rho.depth()] += 1
        assert len(graph.components()) == 1, rho.display()
        for sigma in graph.vertices:
            for walk in find_chain(rho, sigma):
                assert (walk[-1].sigma2 if walk else sigma) in graph.obvious, rho.display()
    _graph_of.cache_clear()
    assert refused == {0: 528, 1: 464, 2: 400, 3: 336, 4: 272, 5: 112}
    assert built == {5: 96, 6: 144, 7: 80, 8: 16}
