"""Adjacency between predicted weights, and connectivity of the weight graph.

Two predicted weights are adjacent when they arise as the full intersection
of a predicted-weight set with a Jordan-Hoelder set for a common tame type
built from an AP' pair and a simple reflection.  The graph on all predicted
weights with these edges is connected, and a deterministic steering strategy
walks any weight to an obvious one in at most three steps per embedding.
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterable, Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .base import SIMPLES, W_ALL, FiniteWeyl, Weight, lowest_alcove_depth, weyl_mul
from .config import RHOBAR_DEPTH, derived_depth_bound
from .affine import (
    HIGHEST_RESTRICTED,
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
from .weights import (
    APPair,
    GenericityError,
    SerreWeight,
    _singles,
    _SlotTable,
    TamePresentation,
    presentation_from_w_tilde,
    w_question,
)

log = logging.getLogger(__name__)

# Always empty (the one per-parameter memo is `_graph_of`); perfbench's traced
# runs report its size as adjacency.wq_cache.entries, and it goes with that metric.
_WQ_CACHE: dict = {}


@lru_cache(maxsize=8)
def _labels(f: int) -> tuple[tuple[int, int], ...]:
    """Every label (i, j) at f embeddings, made once for instances to share."""
    return tuple((i, j) for i in (1, 2) for j in range(f))


def valid_simples(pair: APPair) -> tuple[tuple[int, int], ...]:
    """All simple-reflection labels (i, j) allowed for this AP' pair: those
    whose letter i has a `_slot_targets` row at the j-th single."""
    targets = _slot_targets()
    singles = tuple(zip(pair.w1, pair.w2))
    return tuple(s for s in _labels(pair.f) if singles[s[1]] + (s[0],) in targets)


class AdjacencyInstance(NamedTuple):
    """One witness of adjacency: the pair, the reflection, the derived
    type and parameter, each given slot by slot as (s, mu), and the weight
    pair.  `tau` and `rhobar0` are their presentations, made when read."""

    rhobar: TamePresentation
    pair: APPair
    s: tuple[int, int]
    tau_slots: tuple[tuple[FiniteWeyl, Weight], ...]
    rhobar0_slots: tuple[tuple[FiniteWeyl, Weight], ...]
    sigma1: SerreWeight
    sigma2: SerreWeight
    tau = property(lambda self: _presented("type", self.tau_slots, self.rhobar.p))
    rhobar0 = property(lambda self: _presented("param", self.rhobar0_slots, self.rhobar.p))


def _presented(kind: str, slots: tuple, p: int) -> TamePresentation:
    """The presentation of (s, mu) `slots`, refused as `presentation_from_w_tilde` refuses."""
    pres = TamePresentation.make(kind, *zip(*slots), p)
    return presentation_from_w_tilde(kind, pres.w_tilde(), p) if pres.depth() < 0 else pres


def _edge(a: SerreWeight, b: SerreWeight) -> tuple[SerreWeight, SerreWeight]:
    """The key of the edge between a and b: its endpoints in sort_key order."""
    return (a, b) if a.sort_key() <= b.sort_key() else (b, a)


@lru_cache(maxsize=None)
def _slot_targets() -> dict[tuple[ExtAffine, ExtAffine, int | None], tuple]:
    """Per AP' single (w1, w2) and letter i of s at the slot (None where s
    acts at another embedding): g^(-1) for g = w2^(-1) wh^(-1) w0 s_i w1
    (no s_i where there is no letter); w1^(-1) w2; and the indices among
    the AP singles of the outer singles (wh diamond(v), diamond(v)) for
    v = w and v = s_i w, where w is the finite part of w2 (v = w twice
    where there is no letter).  Slot by slot, w(tau) is w(rhobar) g^(-1),
    w(rhobar0) is w(rhobar) w1^(-1) w2, and sigma1, sigma2 are F_tau at
    the two outer index tuples.  A single has a row for letter 2 only
    where s_2 is allowed at it: not where w1 has length zero and differs
    from w2.  The index of (w1, w2) is `_singles("param").index`'s."""
    outer = _singles("type").index
    k_outer = {w: outer[compose(HIGHEST_RESTRICTED, diamond(w)), diamond(w)] for w in W_ALL}
    hw_inv = invert(HIGHEST_RESTRICTED)
    table = {}
    for w1, w2 in _singles("param").pairs:
        w1_inv_w2 = compose(invert(w1), w2)
        w = w2.w
        for i in (1, 2, None):
            if i == 2 and in_omega(w1) and w1 != w2:
                continue
            mid = () if i is None else (finite(SIMPLES[i]),)
            v = w if i is None else weyl_mul(SIMPLES[i], w)
            g = compose_all(invert(w2), hw_inv, W0, *mid, w1)
            table[w1, w2, i] = (invert(g), w1_inv_w2, k_outer[w], k_outer[v])
    return table


def _deriver(rhobar: TamePresentation, table: _SlotTable, vertices: Mapping = MappingProxyType({})
             ) -> Callable[..., AdjacencyInstance]:
    """The maker of rhobar's instances: derive(pair, s, sigma1), for a
    pair of AP' singles, an allowed s and the pair's predicted weight,
    which the instance keeps.  Its memo lives as long as the maker: each
    slot of rhobar meets each `_slot_targets` row once, giving tau's and
    rhobar0's slots there as (s, mu), their depths and the outer indices.
    An instance fails as it fails alone: a mu outside the lowest alcove
    and then the depth guards refuse tau before rhobar0, then F_tau(w),
    which must be sigma1, and F_tau(sw) are read off tau's full slots in
    `table`, the caller's; sigma2 is its value in `vertices` if a key."""
    targets = _slot_targets()
    need = derived_depth_bound(rhobar.depth())  # margins scale with rhobar's depth
    p = rhobar.p
    rows: dict = {}
    last: list = [None, None]  # the last pair and its rhobar0, which its instances share

    def derive(pair: APPair, s: tuple[int, int], sigma1: SerreWeight) -> AdjacencyInstance:
        # w(tau) = w(rhobar) w1^(-1) s^(-1) w0^(-1) wh w2, so
        # w(rhobar0) = w(tau) w2^(-1) wh^(-1) w0 s w2 = w(rhobar) w1^(-1) w2
        # slot by slot: s cancels, and rhobar0 depends on the pair alone.
        i, j = s
        got = []
        for k, (w1, w2, sk, mk) in enumerate(zip(pair.w1, pair.w2, rhobar.s, rhobar.mu)):
            key = (k, w1, w2, i if k == j else None)
            row = rows.get(key)
            if row is None:
                g_inv, w1_inv_w2, k_w, k_sw = targets[key[1:]]
                # t_(mk+eta) sk t_nu w = t_(mu+eta) s for s = sk w and mu = mk + sk(nu)
                tau_k, rho0_k = ((weyl_mul(sk, y.w), mk + sk.act(y.nu)) for y in (g_inv, w1_inv_w2))
                row = rows[key] = (tau_k, lowest_alcove_depth(tau_k[1], p),
                                   rho0_k, lowest_alcove_depth(rho0_k[1], p), k_w, k_sw)
            got.append(row)
        tau, tau_depth, rhobar0, rhobar0_depth, w_combo, sw_combo = zip(*got)
        if pair is not last[0]:
            last[:] = pair, rhobar0
        td, rd, rhobar0 = min(tau_depth), min(rhobar0_depth), last[1]
        if min(td, rd) < 0:  # each refused, tau first, as presentation_from_w_tilde refuses it
            _presented("type", tau, p), _presented("param", rhobar0, p)
        if td < need:
            raise GenericityError("derived type has depth %d < %d" % (td, need))
        if rd < need:
            raise GenericityError("derived parameter has depth %d < %d" % (rd, need))
        at_w, sigma2 = table.read(table.numbered("type", tau, p), "type", p, w_combo, sw_combo)
        if at_w != sigma1:
            raise AssertionError("sigma1 does not match the weight of the pair")
        return AdjacencyInstance(rhobar, pair, s, tau, rhobar0, sigma1, vertices.get(sigma2, sigma2))

    return derive


def build_instance(
    rhobar: TamePresentation,
    pair: APPair,
    s: tuple[int, int],
    check: bool = True,
) -> AdjacencyInstance:
    """Construct the adjacency witness for (rhobar, pair, s).

    Reads sigma1 = F_rhobar at the pair alone first, refusing a parameter
    as `build_graph` does, then derives by `_graph_of`'s derivation
    (`_deriver`, made for the call) the type tau with element
    w2^(-1) wh^(-1) w0 s w1, the companion parameter rhobar0 with element
    w2^(-1) wh^(-1) w0 s w2, and sigma2 = F_tau(sw).  With check=True it
    verifies that sigma1 and sigma2 exhaust the intersection of the
    predicted set of rhobar0 with the JH set of tau.  The derivation and
    the check read one slot table, made for the call.
    """
    if rhobar.kind != "param":
        raise ValueError("rhobar must be a mod-p parameter presentation")
    if pair.f != rhobar.f:
        raise ValueError("pair and rhobar have different numbers of embeddings")
    index = _singles("param").index
    combo = tuple(index.get(single) for single in zip(pair.w1, pair.w2))
    if len(pair.w2) != rhobar.f or None in combo:
        raise ValueError("pair is not made of AP' pairs")
    i, j = s
    if i not in (1, 2) or not 0 <= j < pair.f:
        raise ValueError("s must be (i, j) with i in {1,2} and j an embedding")
    if (i, j) not in valid_simples(pair):
        raise ValueError(
            "s_{2,%d} is forbidden: the w1 component at embedding %d has "
            "length zero and differs from the w2 component" % (j, j)
        )
    sigma1 = _SlotTable.weight(rhobar, "param", combo)
    table = _SlotTable()
    inst = _deriver(rhobar, table)(pair, s, sigma1)
    if check:
        _check((inst,), table)
    return inst


def _check(instances: Iterable[AdjacencyInstance], table: _SlotTable) -> None:
    """Raise AssertionError at the first of `instances` whose sigma1 and
    sigma2 are not distinct or do not exhaust W?(rhobar0) & JH(tau), met
    by slot number in the caller's `table` once per distinct (rhobar0,
    tau) in the call: sigma1 was checked where the instance was made."""
    met: dict = {}
    for inst in instances:
        key = (inst.rhobar0_slots, inst.tau_slots)
        got = met.get(key)
        if got is None:
            p = inst.rhobar.p
            got = met[key] = table.meet(table.numbered("param", inst.rhobar0_slots, p),
                                        table.numbered("type", inst.tau_slots, p), p)
        if got != frozenset((inst.sigma1, inst.sigma2)) or inst.sigma1 == inst.sigma2:
            raise AssertionError(
                "intersection is not the expected two outer weights: %s"
                % sorted(s.display() for s in got)
            )


class WeightGraph(NamedTuple):
    """Simple graph on the predicted weights of a parameter, made whole by
    `_graph_of`.  Callers asking for one parameter's graph share it, so
    `edges` (keyed in (a, b) sort_key order) and `adjacent` (each endpoint's
    partners, in sort_key order) are read-only views."""

    vertices: tuple[SerreWeight, ...]
    edges: Mapping[tuple[SerreWeight, SerreWeight], tuple[AdjacencyInstance, ...]]
    obvious: frozenset[SerreWeight]
    adjacent: Mapping[SerreWeight, tuple[SerreWeight, ...]]

    def neighbors(self, sigma: SerreWeight) -> tuple[SerreWeight, ...]:
        return self.adjacent.get(sigma, ())

    def _walk(self, start: SerreWeight):
        """Breadth-first from start: yields each weight reached, in order,
        with the weight it came from (None for start).  A weight's
        neighbours are asked for only when the walk is resumed after it."""
        came_from = {start: None}
        queue = [start]
        for cur in queue:  # the queue grows while it is read
            yield cur, came_from[cur]
            for nb in self.neighbors(cur):
                if nb not in came_from:
                    came_from[nb] = cur
                    queue.append(nb)

    def components(self) -> tuple[frozenset[SerreWeight], ...]:
        seen: set[SerreWeight] = set()
        comps = []
        for v in self.vertices:
            if v not in seen:
                comps.append(frozenset(w for w, _ in self._walk(v)))
                seen |= comps[-1]
        return tuple(comps)

    def to_dot(self) -> str:
        ids = {v: "n%d" % k for k, v in enumerate(self.vertices)}
        lines = ["graph weights {"]
        for v in self.vertices:
            style = ' style="filled" fillcolor="lightgray"' if v in self.obvious else ""
            lines.append('  %s [label="%s"%s];' % (ids[v], v.display(), style))
        for (a, b), wit in self.edges.items():
            lines.append('  %s -- %s [label="%d"];' % (ids[a], ids[b], len(wit)))
        lines.append("}")
        return "\n".join(lines) + "\n"


class _GraphState(NamedTuple):
    """One parameter's graph, the inverse of the W? table it is built from
    (keyed by the predicted weights), its instances keyed by (pair, s) in
    enumeration order, and the slot table they and their checks read."""

    graph: WeightGraph
    back: dict[SerreWeight, APPair]
    instances: dict[tuple[APPair, tuple[int, int]], AdjacencyInstance]
    table: _SlotTable


@lru_cache(maxsize=1)
def _graph_of(rhobar: TamePresentation) -> _GraphState:
    """rhobar's weight graph (no intersection checked), the inverse of its
    W? table, its instances, made from W? by one `_deriver`, and the slot
    table that W?, the instances and all their checks read.  Only the last
    parameter's state is kept: callers ask for one parameter's graph
    several times in a row (`build_graph`, then `find_chain` per weight).
    No check result is kept; a shallow parameter is warned about once."""
    table = _SlotTable()
    wq = w_question(rhobar, table)
    back = {sigma: pair for pair, sigma in wq.items()}
    if len(back) != len(wq):
        raise AssertionError("F_rhobar failed to be injective")
    vertices = tuple(sorted(back, key=SerreWeight.sort_key))
    derive = _deriver(rhobar, table, {sigma: sigma for sigma in back})
    instances = {(pair, s): derive(pair, s, sigma)
                 for pair, sigma in wq.items() for s in valid_simples(pair)}
    edges: dict[tuple[SerreWeight, SerreWeight], list[AdjacencyInstance]] = {}
    for inst in instances.values():
        edges.setdefault(_edge(inst.sigma1, inst.sigma2), []).append(inst)
    # the obvious weights are W?'s values at the diagonal pairs (w1 == w2)
    obvious = frozenset(sigma for sigma, pair in back.items() if pair.w1 == pair.w2)
    edge_view, nbs = {}, {}
    for a, b in sorted(edges, key=lambda e: (e[0].sort_key(), e[1].sort_key())):
        edge_view[a, b] = tuple(edges[a, b])
        nbs.setdefault(a, []).append(b)  # in edge order, so partners come in sort_key order
        nbs.setdefault(b, []).append(a)
    graph = WeightGraph(vertices, MappingProxyType(edge_view), obvious,
                        MappingProxyType({v: tuple(vs) for v, vs in nbs.items()}))
    state = _GraphState(graph, back, instances, table)
    if rhobar.depth() < RHOBAR_DEPTH:
        log.warning(
            "parameter %s at p=%d has depth %d below %d; proceeding with scaled margins",
            rhobar.display(), rhobar.p, rhobar.depth(), RHOBAR_DEPTH,
        )
    return state


def build_graph(rhobar: TamePresentation, check: bool = True) -> WeightGraph:
    """The weight graph of rhobar: one edge per adjacency witness, edges
    deduplicated by endpoint pair with all witnesses retained.

    Iteration over pairs and reflections is in fixed sorted order, so the
    result is reproducible byte for byte.  The graph is built once per
    parameter and shared (see `_graph_of`); check=True runs the checks of
    every instance, in enumeration order, on every call, over the state's
    slot table.
    """
    state = _graph_of(rhobar)
    if check:
        _check(state.instances.values(), state.table)
    return state.graph


class ChainResult(NamedTuple):
    """Two walks from a weight to an obvious weight: shortest-path and the
    deterministic steered strategy."""

    bfs: tuple[AdjacencyInstance, ...]
    steered: tuple[AdjacencyInstance, ...]


def _steered_chain(state: _GraphState, sigma: SerreWeight) -> tuple[AdjacencyInstance, ...]:
    """Steering: at the smallest embedding whose w2 component has positive
    length, pick s by the component's alcove (second alcove -> s_1, top
    alcove -> s_2 when allowed, else s_1; first alcove -> s_1).  Each step
    keeps the other embeddings' alcoves fixed; `state.back` inverts F_rhobar.
    Each step's instance is read from `state`, then checked over the
    state's slot table."""
    chain: list[AdjacencyInstance] = []
    cur = sigma
    limit = 3 * sigma.f
    while True:
        pair = state.back[cur]
        target_j = next((j for j in range(pair.f) if not in_omega(pair.w2[j])), None)
        if target_j is None:
            break
        top = restricted_alcove_index(alcove_of(pair.w2[target_j])) == 3
        s = (2, target_j) if top and (2, target_j) in valid_simples(pair) else (1, target_j)
        inst = state.instances[pair, s]
        _check((inst,), state.table)
        chain.append(inst)
        cur = inst.sigma2
        if len(chain) > limit:
            raise AssertionError("steering exceeded 3 steps per embedding")
    return tuple(chain)


def find_chain(rhobar: TamePresentation, sigma: SerreWeight) -> ChainResult:
    """Walks from sigma to the obvious weights, by BFS on rhobar's weight
    graph (shared with `build_graph`) and by the steering strategy.  sigma
    must be a predicted weight."""
    state = _graph_of(rhobar)
    graph, obvious = state.graph, state.graph.obvious
    if sigma not in state.back:
        raise ValueError("weight is not predicted for this parameter")
    if sigma in obvious:
        return ChainResult((), ())

    parent: dict[SerreWeight, SerreWeight | None] = {}
    for node, prev in graph._walk(sigma):
        parent[node] = prev
        if node in obvious:
            break
    else:
        raise AssertionError("no path to an obvious weight")
    bfs: list[AdjacencyInstance] = []
    while node != sigma:
        bfs.append(graph.edges[_edge(parent[node], node)][0])
        node = parent[node]
    bfs.reverse()

    return ChainResult(tuple(bfs), _steered_chain(state, sigma))
