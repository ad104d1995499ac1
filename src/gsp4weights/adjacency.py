"""Adjacency between predicted weights, and connectivity of the weight graph.

Two predicted weights are adjacent when they arise as the full intersection
of a predicted-weight set with a Jordan-Hoelder set for a common tame type
built from an AP' pair and a simple reflection.  The graph on all predicted
weights with these edges is connected, and a deterministic steering strategy
walks any weight to an obvious one in at most three steps per embedding.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .base import W_S1, W_S2, weyl_mul
from .config import RHOBAR_DEPTH, derived_depth_bound
from .affine import (
    HIGHEST_RESTRICTED,
    W0,
    alcove_of,
    compose_all,
    finite,
    in_omega,
    invert,
    restricted_alcove_index,
)
from .weights import (
    APPair,
    GenericityError,
    SerreWeight,
    TamePresentation,
    TupleElt,
    enumerate_ap_prime,
    intersect_w_jh,
    obvious_weights,
    outer_weight_at,
    predicted_pair_of_weight,
    predicted_weight_at,
    presentation_from_w_tilde,
    t_compose,
    type_from_target,
    w_question,
)

log = logging.getLogger(__name__)

SIMPLES = {1: W_S1, 2: W_S2}

# Always empty: the one per-parameter memo is `_graph_of`, which keeps the
# last parameter's graph.  perfbench's traced runs still report this dict's
# size (adjacency.wq_cache.entries, always 0); it goes when that metric does.
_WQ_CACHE: dict = {}


def valid_simples(pair: APPair) -> tuple[tuple[int, int], ...]:
    """All simple-reflection labels (i, j) allowed for this AP' pair.

    s_{2,j} is excluded when the j-th w1 component has length zero but
    differs from the j-th w2 component.
    """
    out = []
    for i in (1, 2):
        for j in range(pair.f):
            if i == 2 and in_omega(pair.w1[j]) and pair.w1[j] != pair.w2[j]:
                continue
            out.append((i, j))
    return tuple(out)


@dataclass(frozen=True)
class AdjacencyInstance:
    """One witness of adjacency: the pair, the reflection, and the derived
    type, parameter and weight pair."""

    rhobar: TamePresentation
    pair: APPair
    s: tuple[int, int]
    tau: TamePresentation
    rhobar0: TamePresentation
    sigma1: SerreWeight
    sigma2: SerreWeight

    @property
    def edge(self) -> tuple[SerreWeight, SerreWeight]:
        a, b = sorted((self.sigma1, self.sigma2), key=lambda s: s.sort_key())
        return (a, b)

    def display(self) -> str:
        return "s=(%d,%d) pair=%s : %s -- %s" % (
            self.s[0],
            self.s[1],
            self.pair.display(),
            self.sigma1.display(),
            self.sigma2.display(),
        )


def _conjugated_target(w2: TupleElt, w1: TupleElt, s: tuple[int, int]) -> TupleElt:
    """Componentwise w2_j^(-1) wh^(-1) w0 s_j w1_j, with s inserted only at
    its own embedding."""
    i, j = s
    out = []
    for k in range(len(w2)):
        mid = (finite(SIMPLES[i]),) if k == j else ()
        out.append(
            compose_all(invert(w2[k]), invert(HIGHEST_RESTRICTED), W0, *mid, w1[k])
        )
    return tuple(out)


def build_instance(
    rhobar: TamePresentation,
    pair: APPair,
    s: tuple[int, int],
    check: bool = True,
) -> AdjacencyInstance:
    """Construct the adjacency witness for (rhobar, pair, s).

    Derives the type tau with compatibility element w2^(-1) wh^(-1) w0 s w1,
    the companion parameter rhobar0 with element w2^(-1) wh^(-1) w0 s w2, and
    the two outer weights sigma1 = F_tau(w), sigma2 = F_tau(sw).  With
    check=True it verifies that these two weights exhaust the intersection
    of the predicted set of rhobar0 with the JH set of tau.
    """
    if rhobar.kind != "param":
        raise ValueError("rhobar must be a mod-p parameter presentation")
    if pair.flavor != "AP'":
        raise ValueError("pair must come from AP'")
    if pair.f != rhobar.f:
        raise ValueError("pair and rhobar have different numbers of embeddings")
    i, j = s
    if i not in (1, 2) or not 0 <= j < pair.f:
        raise ValueError("s must be (i, j) with i in {1,2} and j an embedding")
    if (i, j) not in valid_simples(pair):
        raise ValueError(
            "s_{2,%d} is forbidden: the w1 component at embedding %d has "
            "length zero and differs from the w2 component" % (j, j)
        )

    tau = type_from_target(rhobar, _conjugated_target(pair.w2, pair.w1, s))
    g0 = _conjugated_target(pair.w2, pair.w2, s)
    rhobar0 = presentation_from_w_tilde(
        "param", t_compose(tau.w_tilde(), g0), rhobar.p
    )

    # genericity margins scale with the input parameter's actual depth
    need = derived_depth_bound(rhobar.depth())
    if tau.depth() < need:
        raise GenericityError(
            "derived type has depth %d < %d" % (tau.depth(), need)
        )
    if rhobar0.depth() < need:
        raise GenericityError(
            "derived parameter has depth %d < %d" % (rhobar0.depth(), need)
        )

    w_tuple = tuple(x.w for x in pair.w2)
    sw_tuple = tuple(
        weyl_mul(SIMPLES[i], w) if k == j else w for k, w in enumerate(w_tuple)
    )
    sigma1 = outer_weight_at(tau, w_tuple)
    sigma2 = outer_weight_at(tau, sw_tuple)
    inst = AdjacencyInstance(rhobar, pair, s, tau, rhobar0, sigma1, sigma2)
    if check:
        _check_instance(inst)
    return inst


def _check_instance(inst: AdjacencyInstance) -> None:
    """Raise AssertionError unless sigma1 and sigma2 are distinct and exhaust
    the intersection of the predicted set of rhobar0 with the JH set of tau,
    and sigma1 is F_rhobar at the pair."""
    got = intersect_w_jh(inst.rhobar0, inst.tau)
    if got != frozenset((inst.sigma1, inst.sigma2)) or inst.sigma1 == inst.sigma2:
        raise AssertionError(
            "intersection is not the expected two outer weights: %s"
            % sorted(s.display() for s in got)
        )
    if predicted_weight_at(inst.rhobar, inst.pair) != inst.sigma1:
        raise AssertionError("sigma1 does not match the weight of the pair")


@dataclass(frozen=True)
class WeightGraph:
    """Simple graph on the predicted weights of a parameter.  Every caller
    asking for the same parameter's graph gets the same object, so `edges`
    is a read-only view."""

    vertices: tuple[SerreWeight, ...]
    edges: Mapping[tuple[SerreWeight, SerreWeight], tuple[AdjacencyInstance, ...]]
    obvious: frozenset[SerreWeight]

    @cached_property
    def _adjacent(self) -> dict[SerreWeight, tuple[SerreWeight, ...]]:
        """Each endpoint's neighbours in sort_key order, built once."""
        nbs: dict[SerreWeight, set[SerreWeight]] = {}
        for a, b in self.edges:
            nbs.setdefault(a, set()).add(b)
            nbs.setdefault(b, set()).add(a)
        return {v: tuple(sorted(vs, key=lambda s: s.sort_key())) for v, vs in nbs.items()}

    def neighbors(self, sigma: SerreWeight) -> tuple[SerreWeight, ...]:
        return self._adjacent.get(sigma, ())

    def components(self) -> tuple[frozenset[SerreWeight], ...]:
        seen: set[SerreWeight] = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = {v}
            queue = deque([v])
            while queue:
                cur = queue.popleft()
                for nb in self.neighbors(cur):
                    if nb not in comp:
                        comp.add(nb)
                        queue.append(nb)
            seen |= comp
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def to_dot(self) -> str:
        ids = {v: "n%d" % k for k, v in enumerate(self.vertices)}
        lines = ["graph weights {"]
        for v in self.vertices:
            style = ' style="filled" fillcolor="lightgray"' if v in self.obvious else ""
            lines.append('  %s [label="%s"%s];' % (ids[v], v.display(), style))
        for (a, b), wit in sorted(
            self.edges.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())
        ):
            lines.append('  %s -- %s [label="%d"];' % (ids[a], ids[b], len(wit)))
        lines.append("}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=1)
def _graph_of(
    rhobar: TamePresentation,
) -> tuple[WeightGraph, tuple[AdjacencyInstance, ...]]:
    """rhobar's weight graph, built without checks, and its instances in
    enumeration order.  Only the last parameter's graph is kept: callers
    ask for one parameter's graph several times in a row (`build_graph`,
    then `find_chain` per weight).  No check result is kept."""
    if rhobar.depth() < RHOBAR_DEPTH:
        log.warning(
            "parameter %s at p=%d has depth %d below %d; proceeding with scaled margins",
            rhobar.display(), rhobar.p, rhobar.depth(), RHOBAR_DEPTH,
        )
    table = w_question(rhobar)
    vertices = tuple(sorted(set(table.values()), key=lambda s: s.sort_key()))
    instances = tuple(
        build_instance(rhobar, pair, s, check=False)
        for pair in enumerate_ap_prime(rhobar.f)
        for s in valid_simples(pair)
    )
    edges: dict[tuple[SerreWeight, SerreWeight], list[AdjacencyInstance]] = {}
    for inst in instances:
        edges.setdefault(inst.edge, []).append(inst)
    obvious = frozenset(obvious_weights(rhobar, table).values())
    edge_view = MappingProxyType({e: tuple(v) for e, v in edges.items()})
    return WeightGraph(vertices, edge_view, obvious), instances


def build_graph(rhobar: TamePresentation, check: bool = True) -> WeightGraph:
    """The weight graph of rhobar: one edge per adjacency witness, edges
    deduplicated by endpoint pair with all witnesses retained.

    Iteration over pairs and reflections is in fixed sorted order, so the
    result is reproducible byte for byte.  The graph is built once per
    parameter and shared (see `_graph_of`); check=True runs the checks of
    every instance, in enumeration order, on every call.
    """
    graph, instances = _graph_of(rhobar)
    if check:
        for inst in instances:
            _check_instance(inst)
    return graph


@dataclass(frozen=True)
class ChainResult:
    """Two walks from a weight to an obvious weight: shortest-path and the
    deterministic steered strategy."""

    bfs: tuple[AdjacencyInstance, ...]
    steered: tuple[AdjacencyInstance, ...]


def _steered_chain(
    rhobar: TamePresentation, sigma: SerreWeight, back: dict[SerreWeight, APPair]
) -> tuple[AdjacencyInstance, ...]:
    """Steering: at the smallest embedding whose w2 component has positive
    length, pick s by the component's alcove (second alcove -> s_1, top
    alcove -> s_2 when allowed, else s_1; first alcove -> s_1).  Each step
    keeps the other embeddings' alcoves fixed; `back` inverts F_rhobar."""
    chain: list[AdjacencyInstance] = []
    cur = sigma
    limit = 3 * rhobar.f
    while True:
        pair = back[cur]
        target_j = None
        for j in range(pair.f):
            if not in_omega(pair.w2[j]):
                target_j = j
                break
        if target_j is None:
            break
        idx = restricted_alcove_index(alcove_of(pair.w2[target_j]))
        if idx == 2:
            s = (1, target_j)
        elif idx == 3:
            s = (2, target_j) if (2, target_j) in valid_simples(pair) else (1, target_j)
        else:
            s = (1, target_j)
        inst = build_instance(rhobar, pair, s)
        chain.append(inst)
        cur = inst.sigma2
        if len(chain) > limit:
            raise AssertionError("steering exceeded 3 steps per embedding")
    return tuple(chain)


def find_chain(rhobar: TamePresentation, sigma: SerreWeight) -> ChainResult:
    """Walks from sigma to the obvious weights, by BFS on rhobar's weight
    graph (shared with `build_graph`) and by the steering strategy.  sigma
    must be a predicted weight."""
    table = w_question(rhobar)
    if sigma not in frozenset(table.values()):
        raise ValueError("weight is not predicted for this parameter")
    obvious = frozenset(obvious_weights(rhobar, table).values())
    if sigma in obvious:
        return ChainResult((), ())

    graph, _ = _graph_of(rhobar)
    parent: dict[SerreWeight, tuple[SerreWeight, AdjacencyInstance]] = {}
    queue = deque([sigma])
    seen = {sigma}
    goal = None
    while queue:
        cur = queue.popleft()
        if cur in obvious:
            goal = cur
            break
        for nb in graph.neighbors(cur):
            if nb in seen:
                continue
            seen.add(nb)
            edge = tuple(sorted((cur, nb), key=lambda s: s.sort_key()))
            parent[nb] = (cur, graph.edges[edge][0])
            queue.append(nb)
    if goal is None:
        raise AssertionError("no path to an obvious weight")
    bfs: list[AdjacencyInstance] = []
    node = goal
    while node != sigma:
        prev, inst = parent[node]
        bfs.append(inst)
        node = prev
    bfs.reverse()

    back = predicted_pair_of_weight(rhobar, table)
    return ChainResult(tuple(bfs), _steered_chain(rhobar, sigma, back))
