import os
import random

import pytest

from gsp4weights.base import W_ALL, W_S1, W_S2, weyl_mul
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    W0,
    alcove_of,
    compose_all,
    diamond,
    finite,
    in_omega,
    invert,
    restricted_alcove_index,
)
from gsp4weights.weights import (
    enumerate_ap_prime,
    intersect_w_jh,
    jh_set,
    obvious_weights,
    outer_weight_at,
    predicted_pair_of_weight,
    w_question,
    w_question_set,
)
from gsp4weights import adjacency, weights
from gsp4weights.cli import load_presentation
from gsp4weights.adjacency import (
    AdjacencyInstance,
    _graph_of,
    build_graph,
    build_instance,
    find_chain,
    valid_simples,
)

from crosschecks import random_deep_presentation


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


def test_edge_endpoints_are_outer_weights():
    rho = rho41()
    for pair in enumerate_ap_prime(1)[::3]:
        for s in valid_simples(pair):
            inst = build_instance(rho, pair, s)
            outs = {outer_weight_at(inst.tau, (w,)) for w in W_ALL}
            assert inst.sigma1 in outs and inst.sigma2 in outs


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
        assert g.is_connected()


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
    builds = []
    table = weights._SlotKernel.table
    monkeypatch.setattr(weights._SlotKernel, "table",
                        lambda self: builds.append(self.flavor) or table(self))
    find_chain(rho, sigma)
    assert builds == ["AP'"]


def fixture(name):
    return load_presentation(
        os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", name))


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
    rho = rho41()
    build_graph(rho, check=False)
    _, instances = _graph_of(rho)
    hits = _graph_of.cache_info().hits
    calls = []
    real = adjacency.intersect_w_jh
    monkeypatch.setattr(adjacency, "intersect_w_jh",
                        lambda *args: calls.append(args) or real(*args))
    build_graph(rho, check=True)
    assert _graph_of.cache_info().hits == hits + 1
    assert calls == [(inst.rhobar0, inst.tau) for inst in instances]
    assert len(calls) == 34


def test_failing_check_raises_after_unchecked_build(monkeypatch):
    rho = rho41()
    build_graph(rho, check=True)
    build_graph(rho, check=False)
    monkeypatch.setattr(adjacency, "intersect_w_jh", lambda *args: frozenset())
    with pytest.raises(AssertionError, match="expected two outer weights"):
        build_graph(rho, check=True)
    assert build_graph(rho, check=False).is_connected()


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
    back = predicted_pair_of_weight(rho)
    wq = w_question(rho)
    for pair, sigma in wq.items():
        if restricted_alcove_index(alcove_of(pair.w2[0])) != 2:
            continue
        inst = build_instance(rho, pair, (1, 0))
        nxt = back[inst.sigma2]
        assert in_omega(nxt.w2[0])


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


def test_graph_connected_f2():
    rho = random_deep_presentation(41, 2, 9, random.Random(11), kind="param")
    g = build_graph(rho, check=False)
    assert len(g.vertices) == 400
    assert g.is_connected()
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
    assert g.is_connected()


def _assert_adjacency_matches_edge_scan(g):
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
    for rho in (rho41(), rho37()):
        _assert_adjacency_matches_edge_scan(build_graph(rho, check=False))


def test_full_f2_graph_with_checks():
    # every one of the 920 edges' instances runs the full intersection check
    g = build_graph(fixture("rb_f2.json"), check=True)
    assert len(g.vertices) == 400
    assert len(g.edges) == 920
    assert len(g.obvious) == 64
    assert g.is_connected()
    _assert_adjacency_matches_edge_scan(g)
