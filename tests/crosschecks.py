"""Cross-checks and samplers built from the library's own maps.

Unlike `oracles.py`, these call the library: they relate its weight maps,
cycle sums, arrow order and weight graphs to each other rather than to an
independent definition.  The samplers draw deep presentations and
symplectic Iwahori elements; `oracles.random_iwahori` builds the same
matrices from the same draws by full products.  The genericity test and
the Weyl action on monodromy parameters read the library's parameter
triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from gsp4weights.base import SIMPLES, W_ALL, Weight, lowest_alcove_depth
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    W0,
    alcove_of,
    compose,
    compose_all,
    diamond,
    finite,
    invert,
    locate_weight,
    p_dot,
    upper_arrow_leq_alcove,
)
from gsp4weights.adjacency import _graph_of
from gsp4weights.cycles import bm_sum, restricted_chain
from gsp4weights.exactalg import LaurentPoly, PrimeField
from gsp4weights.localmodel import MonodromyParams, PolyMat
from gsp4weights.weights import (
    APPair,
    GenericityError,
    SerreWeight,
    TamePresentation,
    TupleElt,
    intersect_w_jh,
    is_p_restricted,
    type_from_target,
    w_question_set,
)

from oracles import normalize_central


def outer_pair(ws) -> APPair:
    """The outer AP pair tuple of a finite Weyl tuple: (diamond(w), wh diamond(w))
    at each slot."""
    ds = tuple(diamond(w) for w in ws)
    return APPair(ds, tuple(compose(HIGHEST_RESTRICTED, d) for d in ds))


def conjugated_target(w2: TupleElt, w1: TupleElt, s: tuple[int, int]) -> TupleElt:
    """Componentwise w2_j^(-1) wh^(-1) w0 s_j w1_j, with s inserted only at
    its own embedding: the compatibility element that an adjacency instance
    (pair, s) targets, built slot by slot from the definition."""
    i, j = s
    return tuple(
        compose_all(invert(w2[k]), invert(HIGHEST_RESTRICTED), W0,
                    *((finite(SIMPLES[i]),) if k == j else ()), w1[k])
        for k in range(len(w2))
    )


def max_presentation_depth(p: int) -> int:
    """Largest m so that some m-deep p-restricted weight exists.

    The four pairing values v satisfy v3 = v1 + 2*v2, which forces
    3*(m+1) <= v3 <= p - m - 1, i.e. m <= (p - 4) / 4.
    """
    return (p - 4) // 4


def random_deep_presentation(p, f, min_depth, rng, kind="type") -> TamePresentation:
    """Seeded sampler for presentations of at least the given depth.

    Draws mu + eta = (x, y; *) directly from the region where the four
    functionals x - y, y, x + y, x all lie in (min_depth, p - min_depth),
    so it works even when that region is a handful of points.
    """
    m = min_depth
    if m > max_presentation_depth(p):
        raise GenericityError(
            "no %d-deep presentation exists for p=%d" % (min_depth, p)
        )
    s = tuple(rng.choice(W_ALL) for _ in range(f))
    mu = []
    while len(mu) < f:
        y = rng.randrange(m + 1, p - m)
        if y + m + 1 > p - m - 1 - y:
            continue
        x = rng.randrange(y + m + 1, p - m - y)
        cand = Weight(x - 2, y - 1, rng.randrange(-2, 3))
        assert lowest_alcove_depth(cand, p) >= m
        mu.append(cand)
    return TamePresentation.make(kind, s, tuple(mu), p)


# --- random Iwahori elements (symplectic) ----------------------------------

# positive root groups: positions and signs making t(x) J x = J
_ROOT_POSITIONS = (
    (((0, 1), 1), ((2, 3), -1)),   # alpha1
    (((1, 2), 1),),                # alpha2
    (((0, 2), 1), ((1, 3), 1)),    # alpha1+alpha2
    (((0, 3), 1),),                # 2*alpha1+alpha2
)


def _random_poly(field, rng, min_exp: int, max_exp: int) -> LaurentPoly:
    q = field.char
    return LaurentPoly(field, {e: rng.randrange(q) for e in range(min_exp, max_exp + 1)})


def random_iwahori(field: PrimeField, rng, max_deg: int = 2) -> PolyMat:
    """Random element of the symplectic Iwahori over F_q: integral
    entries, upper triangular mod v."""
    if not isinstance(field, PrimeField):
        raise ValueError("Iwahori sampling runs over a prime field")
    q = field.char
    t1 = rng.randrange(1, q)
    t2 = rng.randrange(1, q)
    t3 = rng.randrange(1, q)
    zero = LaurentPoly.zero(field)
    diag = [field.coerce(x) for x in (t1, t2, t3, Fraction(t2 * t3, t1))]
    cols = [[LaurentPoly.const(field, diag[i]) if i == j else zero for i in range(4)]
            for j in range(4)]
    for lower in (False, True, False):
        for spots in _ROOT_POSITIONS:
            coeff = _random_poly(field, rng, 1 if lower else 0, max_deg)
            if coeff.is_zero:
                continue
            # times the root-group factor 1 + sum of sign * coeff * E_ij (E_ji
            # when lower): column j gains sign * coeff times column i.  No
            # spot's j is another spot's i, so the spots apply one by one.
            for (i, j), sign in spots:
                if lower:
                    i, j = j, i
                c = coeff if sign == 1 else coeff.scale(-1)
                cols[j] = [a if b.is_zero else a + b * c for a, b in zip(cols[j], cols[i])]
    return PolyMat.make(field, list(zip(*cols)))


def weight_class_arrow_leq(sigma: SerreWeight, sigma0: SerreWeight) -> bool:
    """Arrow order on weight classes: some representatives are linked
    componentwise with arrow-related alcoves, allowing one central-lattice
    adjustment across all embeddings."""
    if sigma.p != sigma0.p or sigma.f != sigma0.f:
        return False
    p = sigma.p
    shifts = []
    for lam, mu in zip(sigma.parts, sigma0.parts):
        u = locate_weight(lam, p)
        v = locate_weight(mu, p)
        moved = p_dot(compose(v, invert(u)), lam, p)
        if (moved.a, moved.b) != (mu.a, mu.b):
            return False
        if not upper_arrow_leq_alcove(alcove_of(u), alcove_of(v)):
            return False
        shifts.append(moved.c - mu.c)
    return normalize_central(tuple(shifts), p) == (0,) * sigma.f


def support_upper_bound(sigma: SerreWeight) -> frozenset[SerreWeight]:
    """All p-restricted weights arrow-below sigma: per embedding, the orbit
    points in the restricted alcoves below its own."""
    p = sigma.p
    per_part = [
        tuple(kappa for kappa in restricted_chain(lam, p) if is_p_restricted(kappa, p))
        for lam in sigma.parts
    ]
    out = set()
    for combo in product(*per_part):
        kappa = SerreWeight.make(p, combo)
        assert weight_class_arrow_leq(kappa, sigma)
        out.add(kappa)
    return frozenset(out)


@dataclass(frozen=True)
class ObviousConsistencyReport:
    expected: frozenset[SerreWeight]
    restricted_support: frozenset[SerreWeight]

    @property
    def discrepancy(self) -> frozenset[SerreWeight]:
        return self.restricted_support - self.expected


def obvious_bm_report(rhobar: TamePresentation, ws) -> ObviousConsistencyReport:
    """Consistency of the default-multiplicity sum with the single-component
    count for the obvious type of a finite Weyl tuple: the predicted part of
    the sum's support must contain the singleton intersection.  Any surplus
    is reported, never asserted away."""
    g = tuple(
        compose_all(invert(diamond(w)), invert(HIGHEST_RESTRICTED), W0, diamond(w))
        for w in ws
    )
    tau = type_from_target(rhobar, g)
    expected = intersect_w_jh(rhobar, tau)
    if len(expected) != 1:
        raise AssertionError("obvious type must meet the predicted set once")
    res = bm_sum(tau)
    restricted = frozenset(res.cycle.support()) & w_question_set(rhobar)
    if not expected <= restricted:
        raise AssertionError("the obvious weight is missing from the cycle sum")
    return ObviousConsistencyReport(expected, restricted)


def slot_product_map(rhobars) -> dict:
    """The per-slot product rule of the weight graph, measured on these
    parameters and not proven: for each adjacency instance (pair, (i, j)),
    the AP' pair tuple whose F_rhobar is sigma2 differs from pair only at
    slot j, and that slot's AP' single (w1, w2) changes by one map
    (w1, w2, i) -> (w1', w2') shared by every slot, instance and parameter.
    Returns the map; raises AssertionError on an instance breaking the rule."""
    rule: dict = {}
    for rho in rhobars:
        state = _graph_of(rho)
        for (pair, (i, j)), inst in state.instances.items():
            new = state.back[inst.sigma2]
            old_slots = tuple(zip(pair.w1, pair.w2))
            new_slots = tuple(zip(new.w1, new.w2))
            if new_slots[:j] + new_slots[j + 1:] != old_slots[:j] + old_slots[j + 1:]:
                raise AssertionError("s=(%d,%d) pair=%s changes a slot other than %d"
                                     % (i, j, pair.display(), j))
            if rule.setdefault(old_slots[j] + (i,), new_slots[j]) != new_slots[j]:
                raise AssertionError("s=(%d,%d) pair=%s leaves the per-slot map"
                                     % (i, j, pair.display()))
    return rule


# --- monodromy parameters --------------------------------------------------


def _int_values(mp: MonodromyParams) -> tuple[int, int, int]:
    out = []
    for x in mp.a:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError("genericity needs integer parameter values")
            out.append(x.numerator)
        else:
            out.append(int(x))
    return tuple(out)


def is_generic(mp: MonodromyParams, m: int) -> bool:
    """m-genericity: every root pairing stays m away from pZ."""
    a1, a2, a3 = _int_values(mp)
    for val in (a1 - a2, 2 * a2 - a3, a1 + a2 - a3, 2 * a1 - a3):
        r = val % mp.p
        if not (m < r < mp.p - m):
            return False
    return True


def monodromy_act(mp: MonodromyParams, w) -> MonodromyParams:
    """Weyl action on the parameter triple matching conjugation by the
    matrix of w (the character-exponent realization crosses the two
    generators relative to the coweight coordinates)."""
    d, e, f = mp.a
    for ch in reversed(w.word):
        if ch == "1":
            e = mp.field.coerce(f - e)
        else:
            d, e = e, d
    return MonodromyParams(mp.field, (d, e, f), mp.p)
