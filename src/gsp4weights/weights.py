"""Serre weights, presentations, tame types and the predicted weight sets.

A Serre weight is an f-tuple of p-restricted weights up to the lattice
(p - rotation) applied to the central characters.  Tame inertial types
and parameters enter purely through presentations t_(mu+eta) * s.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .base import (
    ETA,
    POSITIVE_COROOTS,
    SIMPLE_INDICES,
    W_ALL,
    FiniteWeyl,
    Weight,
    depth as weight_depth,
    lowest_alcove_depth,
    max_presentation_depth,
    pairing,
)
from .affine import (
    HIGHEST_RESTRICTED,
    IDENTITY,
    ExtAffine,
    W0,
    alcove_of,
    compose,
    compose_all,
    diamond,
    dominant_down_set,
    elem_of_alcove,
    finite,
    invert,
    is_dominant_element,
    is_restricted_element,
    length,
    locate_weight,
    normalize_c,
    omega_part,
    p_dot,
    star,
    translation,
    upper_arrow_leq,
    upper_arrow_leq_alcove,
)
from .admissible import adm_set, elem_sort_key, is_regular_element

log = logging.getLogger(__name__)

TupleElt = tuple[ExtAffine, ...]


class GenericityError(ValueError):
    pass


def t_compose(x: TupleElt, y: TupleElt) -> TupleElt:
    return tuple(compose(a, b) for a, b in zip(x, y, strict=True))


def t_invert(x: TupleElt) -> TupleElt:
    return tuple(invert(a) for a in x)


def t_star(x: TupleElt) -> TupleElt:
    return tuple(star(a) for a in x)


def rotate_left(x: tuple) -> tuple:
    """The index shift (pi x)_j = x_(j+1)."""
    return x[1:] + x[:1]


def rotate_right(x: tuple) -> tuple:
    return x[-1:] + x[:-1]


# --- Serre weight normal form --------------------------------------------


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of a full-rank square integer matrix:
    upper triangular, positive pivots, entries above a pivot reduced."""
    n = len(rows)
    m = [row[:] for row in rows]
    for col in range(n):
        # Euclid on the rows at or below the pivot row
        while True:
            nz = [i for i in range(col, n) if m[i][col] != 0]
            assert nz, "matrix not full rank"
            if len(nz) == 1:
                piv = nz[0]
                break
            nz.sort(key=lambda i: abs(m[i][col]))
            i0 = nz[0]
            for i in nz[1:]:
                q = m[i][col] // m[i0][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[i0])]
        m[col], m[piv] = m[piv], m[col]
        if m[col][col] < 0:
            m[col] = [-a for a in m[col]]
        for i in range(col):
            q = m[i][col] // m[col][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[col])]
    return m


@lru_cache(maxsize=None)
def _central_lattice_basis(p: int, f: int) -> tuple[tuple[int, ...], ...]:
    """HNF basis of the lattice of central shifts identified to zero:
    spanned by p*e_k - e_(k-1 mod f) acting on the c-coordinates."""
    rows = []
    for k in range(f):
        v = [0] * f
        v[k] += p
        v[(k - 1) % f] -= 1
        rows.append(v)
    return tuple(tuple(r) for r in _hnf_rows(rows))


def normalize_central(cs: tuple[int, ...], p: int) -> tuple[int, ...]:
    f = len(cs)
    basis = _central_lattice_basis(p, f)
    out = list(cs)
    for i in range(f):
        q = out[i] // basis[i][i]
        if q:
            out = [a - q * b for a, b in zip(out, basis[i])]
    return tuple(out)


def is_p_restricted(lam: Weight, p: int) -> bool:
    return all(0 <= pairing(lam, POSITIVE_COROOTS[i]) <= p - 1 for i in SIMPLE_INDICES)


@dataclass(frozen=True)
class SerreWeight:
    p: int
    parts: tuple[Weight, ...]

    @property
    def f(self) -> int:
        return len(self.parts)

    @staticmethod
    def make(p: int, parts: tuple[Weight, ...]) -> "SerreWeight":
        for lam in parts:
            if not is_p_restricted(lam, p):
                raise ValueError("weight part %r is not p-restricted" % (lam,))
        cs = normalize_central(tuple(lam.c for lam in parts), p)
        fixed = tuple(Weight(lam.a, lam.b, c) for lam, c in zip(parts, cs))
        return SerreWeight(p, fixed)

    def is_regular(self) -> bool:
        return all(
            pairing(lam, POSITIVE_COROOTS[i]) < self.p - 1
            for lam in self.parts
            for i in SIMPLE_INDICES
        )

    def depth(self) -> int:
        return min(weight_depth(lam, self.p) for lam in self.parts)

    def sort_key(self):
        return tuple(tuple(lam) for lam in self.parts)

    def display(self) -> str:
        return "F(" + " | ".join("%d,%d,%d" % tuple(lam) for lam in self.parts) + ")"


def alcove_shift(sigma: SerreWeight) -> SerreWeight:
    """The bijection F(lam) -> F(highest_restricted . lam) on regular weights."""
    if not sigma.is_regular():
        raise ValueError("alcove shift is only defined for regular weights")
    parts = tuple(p_dot(HIGHEST_RESTRICTED, lam, sigma.p) for lam in sigma.parts)
    return SerreWeight.make(sigma.p, parts)


def alcove_shift_inv(sigma: SerreWeight) -> SerreWeight:
    parts = tuple(p_dot(invert(HIGHEST_RESTRICTED), lam, sigma.p) for lam in sigma.parts)
    out = SerreWeight.make(sigma.p, parts)
    if not out.is_regular():
        raise ValueError("inverse alcove shift left the regular range")
    return out


# --- presentations --------------------------------------------------------


@dataclass(frozen=True)
class LowestAlcovePresentation:
    w1: TupleElt
    omega: tuple[Weight, ...]

    @property
    def f(self) -> int:
        return len(self.w1)


def _check_theta(theta: Weight, p: int) -> Weight:
    if lowest_alcove_depth(theta, p) < 0:
        raise GenericityError("omega - eta must lie inside the lowest alcove")
    return theta


def _dot_part(y: ExtAffine, theta: Weight, p: int) -> Weight:
    """One weight part y . theta, for a restricted y."""
    if not is_restricted_element(y):
        raise ValueError("presentation element is not restricted")
    lam = p_dot(y, theta, p)
    if not is_p_restricted(lam, p):
        raise ValueError("presentation out of range")
    return lam


def serre_weight_of_presentation(pres: LowestAlcovePresentation, p: int) -> SerreWeight:
    """F of a presentation: rotate the element tuple one step, then apply
    the p-dot action to omega - eta componentwise."""
    f = pres.f
    parts = tuple(
        _dot_part(pres.w1[(j - 1) % f], _check_theta(pres.omega[j] - ETA, p), p)
        for j in range(f)
    )
    return SerreWeight.make(p, parts)


def presentation_of(sigma: SerreWeight) -> LowestAlcovePresentation:
    """The canonical lowest alcove presentation of a weight whose parts
    are deep enough to sit inside open restricted alcoves."""
    p = sigma.p
    u = [locate_weight(lam, p) for lam in sigma.parts]
    for x in u:
        if not is_restricted_element(x):
            raise ValueError("weight part outside the open restricted range")
    w1 = tuple(normalize_c(rotate_left(tuple(u))[j])[0] for j in range(sigma.f))
    omega = tuple(
        ETA + p_dot(invert(w1[(j - 1) % sigma.f]), sigma.parts[j], p)
        for j in range(sigma.f)
    )
    pres = LowestAlcovePresentation(w1, omega)
    assert serre_weight_of_presentation(pres, p) == sigma
    return pres


@dataclass(frozen=True)
class TamePresentation:
    """A tame inertial type (over the coefficient field) or tame inertial
    parameter (mod p), given by its presentation data."""

    kind: str  # "type" or "param"
    s: tuple[FiniteWeyl, ...]
    mu: tuple[Weight, ...]
    p: int

    def __post_init__(self):
        if self.kind not in ("type", "param"):
            raise ValueError("kind must be 'type' or 'param'")
        if len(self.s) != len(self.mu):
            raise ValueError("mismatched tuple lengths")

    @property
    def f(self) -> int:
        return len(self.s)

    def w_tilde(self) -> TupleElt:
        return tuple(
            compose(translation(self.mu[j] + ETA), finite(self.s[j]))
            for j in range(self.f)
        )

    def depth(self) -> int:
        return min(lowest_alcove_depth(mu, self.p) for mu in self.mu)

    def display(self) -> str:
        ss = ",".join(w.display() for w in self.s)
        ms = ";".join("%d,%d,%d" % tuple(m) for m in self.mu)
        return "%s[s=%s mu=%s]" % (self.kind, ss, ms)


def compat_element(rhobar: TamePresentation, tau: TamePresentation) -> TupleElt:
    """w(rhobar, tau) = w(tau)^(-1) * w(rhobar), componentwise."""
    if rhobar.p != tau.p or rhobar.f != tau.f:
        raise ValueError("presentations live over different fields")
    return t_compose(t_invert(tau.w_tilde()), rhobar.w_tilde())


def presentation_from_w_tilde(kind: str, wt: TupleElt, p: int) -> TamePresentation:
    """Recover (s, mu) from t_(mu+eta)*s; mu must sit inside the lowest alcove."""
    s = []
    mu = []
    for x in wt:
        m = x.nu - ETA
        if lowest_alcove_depth(m, p) < 0:
            raise ValueError("translation part is not in the lowest alcove: %r" % (x,))
        s.append(x.w)
        mu.append(m)
    return TamePresentation(kind, tuple(s), tuple(mu), p)


def type_from_target(rhobar: TamePresentation, g: TupleElt) -> TamePresentation:
    """The tame type tau with w(rhobar, tau) = g, i.e. w(tau) = w(rhobar) g^(-1)."""
    wt = t_compose(rhobar.w_tilde(), t_invert(g))
    tau = presentation_from_w_tilde("type", wt, rhobar.p)
    if tau.depth() < min(6, rhobar.depth() - 3):
        log.warning(
            "type depth %d below the expected bound for a %d-deep parameter",
            tau.depth(),
            rhobar.depth(),
        )
    return tau


def param_from_target(rhobar: TamePresentation, g: TupleElt) -> TamePresentation:
    wt = t_compose(rhobar.w_tilde(), t_invert(g))
    return presentation_from_w_tilde("param", wt, rhobar.p)


# --- AP pairs --------------------------------------------------------------


@dataclass(frozen=True)
class APPair:
    w1: TupleElt
    w2: TupleElt
    flavor: str  # "AP" or "AP'"

    @property
    def f(self) -> int:
        return len(self.w1)

    def sort_key(self):
        return tuple(elem_sort_key(a) + elem_sort_key(b) for a, b in zip(self.w1, self.w2))

    def display(self) -> str:
        return " | ".join(
            "(%s ; %s)" % (a.display(), b.display()) for a, b in zip(self.w1, self.w2)
        )


@lru_cache(maxsize=None)
def _ap_pairs_single() -> tuple[tuple[ExtAffine, ExtAffine], ...]:
    """Per-embedding AP pairs: w1 restricted (c = 0), w2 dominant,
    w1 arrow-below hw^(-1) w2, and w2^(-1) w0 w1 admissible for eta."""
    hw_inv = invert(HIGHEST_RESTRICTED)
    pairs = []
    for w in W_ALL:
        w1 = diamond(w)
        for z in adm_set(ETA).elements:
            w2 = compose_all(W0, w1, invert(z))
            if not is_dominant_element(w2):
                continue
            if upper_arrow_leq(w1, compose(hw_inv, w2)):
                pairs.append((w1, w2))
    return tuple(sorted(set(pairs), key=lambda pr: elem_sort_key(pr[0]) + elem_sort_key(pr[1])))


@lru_cache(maxsize=None)
def _ap_prime_pairs_single() -> tuple[tuple[ExtAffine, ExtAffine], ...]:
    """Per-embedding AP' pairs: w2 restricted (c = 0), w1 dominant with
    w1 arrow-below w2.  Finite with no truncation (dominant down-sets)."""
    pairs = []
    for w in W_ALL:
        w2 = diamond(w)
        delta = omega_part(w2)
        for alc in dominant_down_set(alcove_of(w2)):
            w1 = compose(elem_of_alcove(alc), delta)
            assert upper_arrow_leq(w1, w2)
            pairs.append((w1, w2))
    return tuple(sorted(pairs, key=lambda pr: elem_sort_key(pr[0]) + elem_sort_key(pr[1])))


def _enumerate_pairs(singles, flavor: str, f: int) -> tuple[APPair, ...]:
    """All f-tuples of per-embedding pairs, slot 0 varying slowest."""
    return tuple(
        APPair(tuple(pr[0] for pr in combo), tuple(pr[1] for pr in combo), flavor)
        for combo in product(singles, repeat=f)
    )


def enumerate_ap(f: int) -> tuple[APPair, ...]:
    return _enumerate_pairs(_ap_pairs_single(), "AP", f)


def enumerate_ap_prime(f: int) -> tuple[APPair, ...]:
    return _enumerate_pairs(_ap_prime_pairs_single(), "AP'", f)


def ap_target(pair: APPair) -> TupleElt:
    """The admissible element w2^(-1) w0 w1 attached to an AP pair."""
    return tuple(
        compose_all(invert(b), W0, a) for a, b in zip(pair.w1, pair.w2, strict=True)
    )


# --- the two weight bijections ---------------------------------------------
#
# F_tau (on AP pairs) and F_rhobar (on AP' pairs) are one map with the two
# pair components in swapped roles.  Part j of the weight of a pair tuple
# is y . theta_j: theta_j = (w~_j x^(-1)).nu - eta comes from the pair at
# slot j, the restricted element y from the pair at slot j - 1.  That
# one-step rotation is the only coupling between embeddings, so the parts
# are tabulated slot by slot and whole weights are made only when needed.


def _require_depth(pres: TamePresentation, m: int) -> None:
    d = pres.depth()
    if d < m:
        raise GenericityError(
            "presentation is only %d-deep; need at least %d" % (d, m)
        )


def _theta(wt_j: ExtAffine, x: ExtAffine, p: int) -> Weight:
    return _check_theta(compose(wt_j, invert(x)).nu - ETA, p)


def _weight_at(pres: TamePresentation, xs: TupleElt, ys: TupleElt) -> SerreWeight:
    """F_pres at one pair tuple: theta from xs, the p-dot by ys rotated."""
    wt = pres.w_tilde()
    p = pres.p
    parts = tuple(
        _dot_part(ys[j - 1], _theta(wt[j], xs[j], p), p) for j in range(pres.f)
    )
    return SerreWeight.make(p, parts)


# kind -> (wrong-kind error, per-embedding pairs, flavor, pair index of x)
_ROLES = {
    "type": ("jh_factors expects a type presentation", _ap_pairs_single, "AP", 1),
    "param": ("w_question expects a parameter presentation", _ap_prime_pairs_single, "AP'", 0),
}


class _SlotKernel:
    """The weight parts of F_pres on all tuples of per-embedding pairs.

    parts[j][i][k] is part j when slot j holds single k and slot j - 1 holds
    a single whose y is the i-th distinct one: (distinct y) x (singles)
    p-dot evaluations per slot instead of f * singles^f.  At f = 1 slot
    j - 1 is slot j, so only the entries whose i is k's own y are evaluated
    (the others are None).  Every check of serre_weight_of_presentation
    runs on every entry.  Of these checks only the lowest-alcove one on
    theta can fail (each y is restricted, and y . theta is then
    p-restricted), so the first failure raised here is the one that
    evaluating the tuples one by one raises.
    """

    def __init__(self, pres: TamePresentation, kind: str, min_depth: int):
        wrong_kind, singles_of, self.flavor, ix = _ROLES[kind]
        if pres.kind != kind:
            raise ValueError(wrong_kind)
        _require_depth(pres, min_depth)
        self.singles = singles_of()
        self.p, self.f = pres.p, pres.f
        p, f = pres.p, pres.f
        ys: list[ExtAffine] = []
        self.y_slot = []
        for pr in self.singles:
            y = pr[1 - ix]
            if y not in ys:
                ys.append(y)
            self.y_slot.append(ys.index(y))
        wt = pres.w_tilde()
        self.parts = []
        for j in range(f):
            thetas = [_theta(wt[j], pr[ix], p) for pr in self.singles]
            self.parts.append([
                [
                    _dot_part(y, theta, p) if f > 1 or self.y_slot[k] == i else None
                    for k, theta in enumerate(thetas)
                ]
                for i, y in enumerate(ys)
            ])

    def _part(self, j: int, combo: tuple[int, ...]) -> Weight:
        return self.parts[j][self.y_slot[combo[j - 1]]][combo[j]]

    def weight(self, combo: tuple[int, ...]) -> SerreWeight:
        return SerreWeight.make(self.p, tuple(self._part(j, combo) for j in range(self.f)))

    def table(self) -> dict[APPair, SerreWeight]:
        """F_pres on every pair tuple, in enumeration order."""
        combos = product(range(len(self.singles)), repeat=self.f)
        pairs = _enumerate_pairs(self.singles, self.flavor, self.f)
        return {pair: self.weight(combo) for pair, combo in zip(pairs, combos)}

    def labels(self, j: int) -> set[tuple[int, int]]:
        """The (a, b) of every part at slot j."""
        return {(lam.a, lam.b) for row in self.parts[j] for lam in row if lam is not None}

    def weights_within(self, keep: list[set[tuple[int, int]]]) -> frozenset[SerreWeight]:
        """The weights of the tuples whose single at each slot j has some
        part with its (a, b) in keep[j].  Part j of a tuple is one of the
        parts of its slot-j single, so these include every tuple whose
        parts all have their (a, b) in keep."""
        live = [
            [
                k for k in range(len(self.singles))
                if any(row[k] is not None and (row[k].a, row[k].b) in keep[j]
                       for row in self.parts[j])
            ]
            for j in range(self.f)
        ]
        return frozenset(self.weight(combo) for combo in product(*live))


def jh_factors(tau: TamePresentation, min_depth: int = 3) -> dict[APPair, SerreWeight]:
    """F_tau over AP pairs; the image is the predicted JH set of the
    reduction of the type."""
    return _SlotKernel(tau, "type", min_depth).table()


def w_question(rhobar: TamePresentation, min_depth: int = 3) -> dict[APPair, SerreWeight]:
    """F_rhobar over AP' pairs; the image is the predicted weight set."""
    return _SlotKernel(rhobar, "param", min_depth).table()


def jh_set(tau: TamePresentation, min_depth: int = 3) -> frozenset[SerreWeight]:
    return frozenset(jh_factors(tau, min_depth).values())


def w_question_set(rhobar: TamePresentation, min_depth: int = 3) -> frozenset[SerreWeight]:
    return frozenset(w_question(rhobar, min_depth).values())


def intersect_w_jh(
    rhobar: TamePresentation, tau: TamePresentation, min_depth: int = 3
) -> frozenset[SerreWeight]:
    """W?(rhobar) & JH(tau) slot by slot: a weight of both sets has the
    same (a, b) in each part on both sides, so only the tuples that can
    pass that test are made into weights and compared."""
    wq = _SlotKernel(rhobar, "param", min_depth)
    jh = _SlotKernel(tau, "type", min_depth)
    if (rhobar.p, rhobar.f) != (tau.p, tau.f):
        return frozenset()
    keep = [wq.labels(j) & jh.labels(j) for j in range(rhobar.f)]
    return wq.weights_within(keep) & jh.weights_within(keep)


def obvious_weights(rhobar: TamePresentation) -> dict[tuple[FiniteWeyl, ...], SerreWeight]:
    """F_rhobar on the diagonal pairs (w_diamond, w_diamond)."""
    table = w_question(rhobar)
    out = {}
    for ws in product(W_ALL, repeat=rhobar.f):
        d = tuple(diamond(w) for w in ws)
        out[ws] = table[APPair(d, d, "AP'")]
    return out


def outer_weights(tau: TamePresentation) -> dict[tuple[FiniteWeyl, ...], SerreWeight]:
    """F_tau on the pairs (w_diamond, highest * w_diamond)."""
    table = jh_factors(tau)
    out = {}
    for ws in product(W_ALL, repeat=tau.f):
        w1 = tuple(diamond(w) for w in ws)
        w2 = tuple(compose(HIGHEST_RESTRICTED, d) for d in w1)
        out[ws] = table[APPair(w1, w2, "AP")]
    return out


def outer_weight_at(
    tau: TamePresentation, ws: tuple[FiniteWeyl, ...], min_depth: int = 3
) -> SerreWeight:
    """F_tau at the single outer pair labeled by a finite Weyl tuple, without
    building the whole JH table."""
    if tau.kind != "type":
        raise ValueError("outer_weight_at expects a type presentation")
    _require_depth(tau, min_depth)
    w1 = tuple(diamond(w) for w in ws)
    w2 = tuple(compose(HIGHEST_RESTRICTED, d) for d in w1)
    return _weight_at(tau, w2, w1)


def predicted_weight_at(
    rhobar: TamePresentation, pair: APPair, min_depth: int = 3
) -> SerreWeight:
    """F_rhobar at one AP' pair tuple, without building the whole table."""
    if rhobar.kind != "param":
        raise ValueError("predicted_weight_at expects a parameter presentation")
    _require_depth(rhobar, min_depth)
    return _weight_at(rhobar, pair.w1, pair.w2)


def predicted_pair_of_weight(rhobar: TamePresentation) -> dict[SerreWeight, APPair]:
    """Inverse of F_rhobar; raises if the forward map is not injective."""
    table = w_question(rhobar)
    inv: dict[SerreWeight, APPair] = {}
    for pair, sigma in table.items():
        if sigma in inv:
            raise AssertionError("F_rhobar failed to be injective")
        inv[sigma] = pair
    return inv


def param_of_reduction(rhobar: TamePresentation) -> TamePresentation:
    """The type presentation with the same data, for reductions of
    parameter-level objects."""
    return TamePresentation("type", rhobar.s, rhobar.mu, rhobar.p)


def predicted_set_via_shift(rhobar: TamePresentation) -> frozenset[SerreWeight]:
    """Cross-check: the predicted set equals the alcove shift of the JH
    set of the reduction."""
    tau = param_of_reduction(rhobar)
    return frozenset(alcove_shift(sigma) for sigma in jh_set(tau))


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


# --- random sampling for tests and self-checks -----------------------------


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
    return TamePresentation(kind, s, tuple(mu), p)
