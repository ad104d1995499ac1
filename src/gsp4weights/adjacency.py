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
from dataclasses import dataclass
from functools import cached_property

from .base import W_S1, W_S2, weyl_mul
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
    w_question_set,
)

log = logging.getLogger(__name__)

SIMPLES = {1: W_S1, 2: W_S2}

# No weight table is cached per parameter any more, so this stays empty.
# perfbench's traced runs still report its size (adjacency.wq_cache.entries,
# now 0); it goes when that metric does.
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
    need = min(6, rhobar.depth() - 3)
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

    if check:
        got = intersect_w_jh(rhobar0, tau)
        if got != frozenset((sigma1, sigma2)) or sigma1 == sigma2:
            raise AssertionError(
                "intersection is not the expected two outer weights: %s"
                % sorted(s.display() for s in got)
            )
        if predicted_weight_at(rhobar, pair) != sigma1:
            raise AssertionError("sigma1 does not match the weight of the pair")
    return AdjacencyInstance(rhobar, pair, s, tau, rhobar0, sigma1, sigma2)


@dataclass(frozen=True)
class WeightGraph:
    """Simple graph on the predicted weights of a parameter."""

    vertices: tuple[SerreWeight, ...]
    edges: dict[tuple[SerreWeight, SerreWeight], tuple[AdjacencyInstance, ...]]
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


def build_graph(rhobar: TamePresentation, check: bool = True) -> WeightGraph:
    """The weight graph of rhobar: one edge per adjacency witness, edges
    deduplicated by endpoint pair with all witnesses retained.

    Iteration over pairs and reflections is in fixed sorted order, so the
    result is reproducible byte for byte.
    """
    if rhobar.depth() < 9:
        log.warning(
            "parameter %s at p=%d has depth %d below 9; proceeding with scaled margins",
            rhobar.display(), rhobar.p, rhobar.depth(),
        )
    vertices = tuple(sorted(w_question_set(rhobar), key=lambda s: s.sort_key()))
    edges: dict[tuple[SerreWeight, SerreWeight], list[AdjacencyInstance]] = {}
    for pair in enumerate_ap_prime(rhobar.f):
        for s in valid_simples(pair):
            inst = build_instance(rhobar, pair, s, check=check)
            edges.setdefault(inst.edge, []).append(inst)
    obvious = frozenset(obvious_weights(rhobar).values())
    return WeightGraph(vertices, {e: tuple(v) for e, v in edges.items()}, obvious)


@dataclass(frozen=True)
class ChainResult:
    """Two walks from a weight to an obvious weight: shortest-path and the
    deterministic steered strategy."""

    bfs: tuple[AdjacencyInstance, ...]
    steered: tuple[AdjacencyInstance, ...]


def _steered_chain(
    rhobar: TamePresentation, sigma: SerreWeight
) -> tuple[AdjacencyInstance, ...]:
    """Steering: at the smallest embedding whose w2 component has positive
    length, pick s by the component's alcove (second alcove -> s_1, top
    alcove -> s_2 when allowed, else s_1; first alcove -> s_1).  Each step
    keeps the other embeddings' alcoves fixed."""
    back = predicted_pair_of_weight(rhobar)
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


def find_chain(
    rhobar: TamePresentation, sigma: SerreWeight, graph: WeightGraph | None = None
) -> ChainResult:
    """Walks from sigma to the obvious weights, by BFS on the full graph and
    by the steering strategy.  sigma must be a predicted weight.  `graph`
    is rhobar's weight graph when the caller has built it already."""
    wq_vals = w_question_set(rhobar)
    if sigma not in wq_vals:
        raise ValueError("weight is not predicted for this parameter")
    obvious = frozenset(obvious_weights(rhobar).values())
    if sigma in obvious:
        return ChainResult((), ())

    if graph is None:
        graph = build_graph(rhobar, check=False)
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

    return ChainResult(tuple(bfs), _steered_chain(rhobar, sigma))
