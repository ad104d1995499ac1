"""Serre weights, presentations, tame types and the predicted weight sets.

A Serre weight is an f-tuple of p-restricted weights up to the lattice
(p - rotation) applied to the central characters.  Tame inertial types
and parameters enter purely through presentations t_(mu+eta) * s.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

from .base import (
    ETA,
    POSITIVE_COROOTS,
    W_ALL,
    FiniteWeyl,
    Weight,
    depth as weight_depth,
    lowest_alcove_depth,
    pairing,
)
from .config import WEIGHT_DEPTH, derived_depth_bound
from .affine import (
    HIGHEST_RESTRICTED,
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
    omega_part,
    translation,
    upper_arrow_leq,
)
from .admissible import adm_set, elem_sort_key

log = logging.getLogger(__name__)

TupleElt = tuple[ExtAffine, ...]


class GenericityError(ValueError):
    pass


def t_compose(x: TupleElt, y: TupleElt) -> TupleElt:
    return tuple(compose(a, b) for a, b in zip(x, y, strict=True))


def t_invert(x: TupleElt) -> TupleElt:
    return tuple(invert(a) for a in x)


# --- Serre weight normal form --------------------------------------------


def is_p_restricted(lam: Weight, p: int) -> bool:
    """0 <= <lam, alpha^vee> < p for both simple coroots, which pair
    (a, b; c) to a - b and b."""
    return 0 <= lam.a - lam.b < p and 0 <= lam.b < p


class SerreWeight(NamedTuple):
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
        return SerreWeight._trusted(p, parts)

    @staticmethod
    def _trusted(p: int, parts: Sequence[tuple[int, int, int]]) -> "SerreWeight":
        """Trusted constructor: every part, a Weight or an (a, b, c) triple,
        is already known to be p-restricted.  Central characters count
        modulo the shifts p*e_k - e_(k-1 mod f), so their class n = sum
        c_k p^(f-1-k) mod p^f - 1 is folded as the parts are read and kept
        in the last slot."""
        f = len(parts)
        n, out = 0, []
        for j, (a, b, c) in enumerate(parts, 1):
            n = n * p + c
            out.append(Weight(a, b, 0 if j < f else n % (p ** f - 1)))
        return SerreWeight(p, tuple(out))

    def depth(self) -> int:
        return min(weight_depth(lam, self.p) for lam in self.parts)

    def sort_key(self) -> tuple[Weight, ...]:
        return self.parts

    def display(self) -> str:
        return "F(" + " | ".join("%d,%d,%d" % tuple(lam) for lam in self.parts) + ")"


# --- presentations --------------------------------------------------------


class TamePresentation(NamedTuple):
    """A tame inertial type (over the coefficient field) or tame inertial
    parameter (mod p), given by its presentation data, made whole by `make`."""

    kind: str  # "type" or "param"
    s: tuple[FiniteWeyl, ...]
    mu: tuple[Weight, ...]
    p: int
    mu_depth: int  # the least lowest_alcove_depth of the mu, a function of (mu, p)

    @staticmethod
    def make(kind: str, s: tuple[FiniteWeyl, ...], mu: tuple[Weight, ...],
             p: int) -> "TamePresentation":
        if kind not in ("type", "param"):
            raise ValueError("kind must be 'type' or 'param'")
        if len(s) != len(mu):
            raise ValueError("mismatched tuple lengths")
        if not s:
            raise ValueError("a presentation needs at least one embedding")
        return TamePresentation(kind, s, mu, p, min(lowest_alcove_depth(m, p) for m in mu))

    @property
    def f(self) -> int:
        return len(self.s)

    def w_tilde(self) -> TupleElt:
        return tuple(
            compose(translation(self.mu[j] + ETA), finite(self.s[j]))
            for j in range(self.f)
        )

    def depth(self) -> int:
        return self.mu_depth

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
    pres = TamePresentation.make(kind, tuple(x.w for x in wt), tuple(x.nu - ETA for x in wt), p)
    if pres.depth() < 0:  # some mu is outside the lowest alcove: name the first
        x = next(x for x, m in zip(wt, pres.mu) if lowest_alcove_depth(m, p) < 0)
        raise ValueError("translation part is not in the lowest alcove: %r" % (x,))
    return pres


def type_from_target(rhobar: TamePresentation, g: TupleElt) -> TamePresentation:
    """The tame type tau with w(rhobar, tau) = g, i.e. w(tau) = w(rhobar) g^(-1);
    warns when it is shallower than a type derived from rhobar is held to."""
    tau = presentation_from_w_tilde("type", t_compose(rhobar.w_tilde(), t_invert(g)), rhobar.p)
    if tau.depth() < derived_depth_bound(rhobar.depth()):
        log.warning("type depth %d below the expected bound for a %d-deep parameter",
                    tau.depth(), rhobar.depth())
    return tau


# --- AP pairs --------------------------------------------------------------


class APPair(NamedTuple):
    w1: TupleElt
    w2: TupleElt

    @property
    def f(self) -> int:
        return len(self.w1)

    def display(self) -> str:
        return " | ".join(
            "(%s ; %s)" % (a.display(), b.display()) for a, b in zip(self.w1, self.w2)
        )


def _ap_pairs_single() -> tuple[tuple[ExtAffine, ExtAffine], ...]:
    """Per-embedding AP pairs: w1 restricted (c = 0), w2 dominant,
    w1 arrow-below hw^(-1) w2, and w2^(-1) w0 w1 admissible for eta."""
    hw_inv = invert(HIGHEST_RESTRICTED)
    adm = adm_set(ETA).order
    pairs = []
    for w in W_ALL:
        w1 = diamond(w)
        for z in adm:
            w2 = compose_all(W0, w1, invert(z))
            if not is_dominant_element(w2):
                continue
            if upper_arrow_leq(w1, compose(hw_inv, w2)):
                pairs.append((w1, w2))
    return tuple(sorted(set(pairs), key=lambda pr: elem_sort_key(pr[0]) + elem_sort_key(pr[1])))


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


def _enumerate_pairs(singles, f: int) -> tuple[APPair, ...]:
    """All f-tuples of per-embedding pairs, slot 0 varying slowest: sorted
    by the slots' keys, since the singles are sorted."""
    return tuple(
        APPair(tuple(pr[0] for pr in combo), tuple(pr[1] for pr in combo))
        for combo in product(singles, repeat=f)
    )


def enumerate_ap(f: int) -> tuple[APPair, ...]:
    return _enumerate_pairs(_singles("type").pairs, f)


@lru_cache(maxsize=2)
def enumerate_ap_prime(f: int) -> tuple[APPair, ...]:
    return _enumerate_pairs(_singles("param").pairs, f)


# --- the two weight bijections ---------------------------------------------
#
# F_tau (on AP pairs) and F_rhobar (on AP' pairs) are one map with the two
# pair components in swapped roles.  Part j of the weight of a pair tuple
# is y . theta_j: theta_j = (w~_j x^(-1)).nu - eta comes from the pair at
# slot j, the restricted element y from the pair at slot j - 1.  That
# one-step rotation is the only coupling between embeddings, so the parts
# are tabulated slot by slot and whole weights are made only when needed.
#
# With w~_j = t_(mu_j + eta) s_j, x^(-1) = t_nu' w' and y = t_(nu_y) w_y,
# theta_j = mu_j + s_j(nu') and
#
#     y . theta_j = w_y(mu_j) + p nu_y + [w_y(eta + s_j(nu')) - eta].
#
# The bracket depends on the kind, s_j, y and the pair's x only, not on p
# or mu_j, so it is read from a table with one row per (kind, s), built on
# first use, and the parts are keyed by theta (distinct x), not by pair.
# Inside the kernel a part is a plain (a, b, c) triple of integers.

Part = tuple[int, int, int]


# kind -> (maker of the per-embedding pairs, cached by `_singles`; pair index of x)
_ROLES = {"type": (_ap_pairs_single, 1), "param": (_ap_prime_pairs_single, 0)}


class _Singles(NamedTuple):
    """The per-embedding pairs of one kind, indexed by k.  Part y . theta
    depends on a pair only through its x, so pairs sharing x share theta,
    and the kernel keys its parts by theta index t: 12 per kind."""

    pairs: tuple[tuple[ExtAffine, ExtAffine], ...]
    ys: tuple[ExtAffine, ...]  # the distinct y, in order of first use
    y_slot: tuple[int, ...]  # index into ys of pair k's y
    x_slot: tuple[int, ...]  # theta index of pair k: its x among the distinct x
    members: tuple[tuple[int, ...], ...]  # per theta: the pairs holding its x
    index: dict[tuple[ExtAffine, ExtAffine], int]  # (x, y) -> k
    own: tuple[tuple[int, ...], ...]  # per y: the thetas of the pairs holding it


@lru_cache(maxsize=len(_ROLES))
def _singles(kind: str) -> _Singles:
    singles_of, ix = _ROLES[kind]
    pairs = singles_of()
    ys = tuple(dict.fromkeys(pr[1 - ix] for pr in pairs))
    xs = tuple(dict.fromkeys(pr[ix] for pr in pairs))
    y_slot = tuple(ys.index(pr[1 - ix]) for pr in pairs)
    x_slot = tuple(xs.index(pr[ix]) for pr in pairs)
    return _Singles(
        pairs,
        ys,
        y_slot,
        x_slot,
        tuple(tuple(k for k, t in enumerate(x_slot) if t == i) for i in range(len(xs))),
        {(pr[ix], pr[1 - ix]): k for k, pr in enumerate(pairs)},
        tuple(tuple(x_slot[k] for k, j in enumerate(y_slot) if j == i) for i in range(len(ys))),
    )


@lru_cache(maxsize=None)
def _next_rows() -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Per W? theta t and JH theta t2, the rows (y, y') a match of their
    parts leads to: the y indices of each pair of their singles."""
    wq, jh = _singles("param"), _singles("type")
    return tuple(tuple(tuple((wq.y_slot[k], jh.y_slot[k2]) for k in ks for k2 in ks2)
                       for ks2 in jh.members) for ks in wq.members)


@lru_cache(maxsize=len(_ROLES) * len(W_ALL))
def _offset_row(kind: str, s: FiniteWeyl) -> tuple[tuple, tuple, tuple]:
    """The table row of (kind, s): per theta t, the pairings of
    eta + s(nu') with the positive coroots (theta_t + eta pairs to these
    plus the pairings of mu); per distinct y, its character matrix
    (row-major) and nu as integers; and per distinct y and theta t the
    offset w_y(eta + s(nu')) - eta.  Each y is checked to be restricted
    as its offsets are made."""
    ix = _ROLES[kind][1]
    sing = _singles(kind)
    shifted = [ETA + s.act(invert(sing.pairs[ks[0]][ix]).nu) for ks in sing.members]
    alcove = tuple(tuple(pairing(lam, cov) for cov in POSITIVE_COROOTS) for lam in shifted)
    actions, offsets = [], []
    for y in sing.ys:
        if not is_restricted_element(y):
            raise ValueError("presentation element is not restricted")
        columns = [y.w.act(e) for e in (Weight(1, 0, 0), Weight(0, 1, 0), Weight(0, 0, 1))]
        actions.append(sum(zip(*columns), ()) + tuple(y.nu))
        offsets.append(tuple(tuple(y.w.act(lam) - ETA) for lam in shifted))
    return alcove, tuple(actions), tuple(offsets)


def _slot_parts(kind, s, mu, p, ts, cells) -> list[dict[int, Part]]:
    """y . theta_t at one slot with element s and translation mu: a dict
    per distinct y, t -> part, holding the thetas t in that y's cells.  The
    lowest-alcove test on theta_t runs for every t in ts first; then each
    part is three additions to w_y(mu) + p nu_y, tested to be
    p-restricted."""
    alcove, actions, offsets = _offset_row(kind, s)
    ma, mb, mc = mu
    m1, m2, m3, m4 = ma - mb, mb, ma + mb, ma  # mu's pairings with POSITIVE_COROOTS
    for t in ts:
        g1, g2, g3, g4 = alcove[t]
        if not (0 < m1 + g1 < p and 0 < m2 + g2 < p and 0 < m3 + g3 < p and 0 < m4 + g4 < p):
            raise GenericityError("omega - eta must lie inside the lowest alcove")
    out = []
    for action, row, want in zip(actions, offsets, cells):
        entries = {}
        if want:
            x1, x2, x3, x4, x5, x6, x7, x8, x9, na, nb, nc = action
            ba = x1 * ma + x2 * mb + x3 * mc + p * na
            bb = x4 * ma + x5 * mb + x6 * mc + p * nb
            bc = x7 * ma + x8 * mb + x9 * mc + p * nc
            for t in want:
                oa, ob, oc = row[t]
                a, b = ba + oa, bb + ob
                if not (0 <= a - b < p and 0 <= b < p):  # is_p_restricted, inlined
                    raise ValueError("presentation out of range")
                entries[t] = (a, b, bc + oc)
        out.append(entries)
    return out


def _guard(pres: TamePresentation, kind: str) -> tuple[tuple[FiniteWeyl, Weight], ...]:
    """The checks a kernel of `pres` runs before any part: its kind, that
    each mu lies inside the lowest alcove, then its depth against
    WEIGHT_DEPTH, the one threshold of the weight maps.  Returns the slots
    of `pres` as (s, mu)."""
    if pres.kind != kind:
        raise ValueError(
            "expected a %s presentation, got a %s presentation" % (kind, pres.kind))
    if pres.depth() < 0:  # lowest_alcove_depth's value for a mu outside the alcove
        raise GenericityError("presentation %s has a mu outside the lowest alcove for p=%d"
                              % (pres.display(), pres.p))
    if pres.depth() < WEIGHT_DEPTH:
        raise GenericityError("presentation %s is only %d-deep; need at least %d"
                              % (pres.display(), pres.depth(), WEIGHT_DEPTH))
    return tuple(zip(pres.s, pres.mu))


def _slot_index(wq_slot: list[dict[int, Part]]) -> dict[tuple[int, int], list]:
    """A W? slot's parts indexed by (a, b): each carries its row (i of W?),
    its theta index and its central character."""
    index: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for i, row in enumerate(wq_slot):
        for t, (a, b, c) in row.items():
            index.setdefault((a, b), []).append((i, t, c))
    return index


def _slot_join(index: dict[tuple[int, int], list], jh_slot: list[dict[int, Part]]) -> dict:
    """One slot's (a, b) join: the W? parts of `index` (`_slot_index`)
    against the JH parts, grouped by their rows (i of W?, i of JH).  Each
    match carries the next slot's rows of its theta pair (`_next_rows`),
    the W? part and its central character less the JH part's."""
    nexts = _next_rows()
    groups: dict[tuple[int, int], list] = {}
    for i2, row in enumerate(jh_slot):
        for t2, (a, b, c2) in row.items():
            for i, t, c in index.get((a, b), ()):
                groups.setdefault((i, i2), []).append((nexts[t][t2], (a, b, c), c - c2))
    return groups


class _SlotTable:
    """The one maker of weight parts.  Each weight map makes a table for
    its call, `build_instance` one for its instance and check, and a
    parameter's graph state keeps one for all its instances and checks.

    Row i of full slot j is a dict t -> part j, for slot j holding a
    single of theta t and slot j - 1 a single whose y is the i-th distinct
    one: (distinct y) x (distinct theta) entries per slot, 8 x 12, instead
    of f * singles^f.  At f = 1 slot j - 1 is slot j, so row i holds only
    the thetas of the singles whose own y is the i-th.  A full slot
    depends on (kind, s_j, mu_j, p, f), and `numbered` numbers it when it
    first makes it; the (a, b) index of a W? slot is keyed by its number,
    and a join by its two.  Each is made on first use and then read, so a
    table holds no check result.  One weight alone (`weight`, the sigma1
    of an instance built alone) is made on every read and stored nowhere.

    Three checks run: the lowest-alcove test on each theta, per slot, and
    so on every single's theta; `is_restricted_element` on each distinct
    y, once, when its table row is built; and `is_p_restricted` on every
    part.  Of these only the first can fail (each y is restricted, and
    y . theta is then p-restricted).  A slot is numbered only after its
    lowest-alcove test passed, so a failing test runs, and raises, on
    every use.  The guards of `_guard` run on every use too."""

    def __init__(self):
        self._numbers: dict[tuple, int] = {}  # (kind, s, mu, p, f) -> slot number
        self._parts: list[list[dict[int, Part]]] = []  # the full slots, by number
        self._indexes: dict[int, dict] = {}  # by W? slot number
        self._joins: dict[tuple[int, int], dict] = {}  # by (W? slot, JH slot) numbers

    def numbered(self, kind: str, slots: tuple[tuple[FiniteWeyl, Weight], ...],
                 p: int) -> tuple[int, ...]:
        """The numbers of the full slots of the presentation given slot by
        slot as (s, mu), each made on first use after the guards, which make
        the presentation only to name it in a refusal: the one slot maker."""
        if min([lowest_alcove_depth(mu, p) for _, mu in slots]) < WEIGHT_DEPTH:
            _guard(TamePresentation.make(kind, *zip(*slots), p), kind)
        sing, f, out = _singles(kind), len(slots), []
        for s, mu in slots:
            key = (kind, s, mu, p, f)
            n = self._numbers.get(key)
            if n is None:
                ts = range(len(sing.members))
                self._parts.append(_slot_parts(kind, s, mu, p, ts, (ts,) * len(sing.ys) if f > 1
                                               else sing.own))
                n = self._numbers[key] = len(self._parts) - 1
            out.append(n)
        return tuple(out)

    def read(self, slots: tuple[int, ...], kind: str, p: int, *combos: tuple) -> list[SerreWeight]:
        """F at each index tuple of `combos`, read from the full slots
        numbered `slots`: part j is slot j's entry for k_j's theta in the
        row of k_(j-1)'s y."""
        sing = _singles(kind)
        y_slot, x_slot = sing.y_slot, sing.x_slot
        parts = [self._parts[n] for n in slots]
        return [SerreWeight._trusted(p, [parts[j][y_slot[combo[j - 1]]][x_slot[k]]
                                         for j, k in enumerate(combo)])
                for combo in combos]

    def weights(self, pres: TamePresentation, kind: str) -> list[SerreWeight]:
        """F_pres on every index tuple, slot 0 varying slowest."""
        return self.read(self.numbered(kind, _guard(pres, kind), pres.p), kind, pres.p,
                         *product(range(len(_singles(kind).y_slot)), repeat=pres.f))

    def join(self, wq: int, jh: int) -> dict:
        """The join of W? slot `wq` with JH slot `jh`, given by their numbers."""
        groups = self._joins.get((wq, jh))
        if groups is None:
            index = self._indexes.get(wq)
            if index is None:
                index = self._indexes[wq] = _slot_index(self._parts[wq])
            groups = self._joins[wq, jh] = _slot_join(index, self._parts[jh])
        return groups

    def meet(self, wq: tuple[int, ...], jh: tuple[int, ...], p: int) -> frozenset[SerreWeight]:
        """W? & JH on the full slots numbered `wq` and `jh` (see `intersect_w_jh`)."""
        joins, found = [self.join(a, b) for a, b in zip(wq, jh)], set()
        for start in joins[0]:
            _chain(joins, 0, start, start, 0, (), p, p ** len(wq) - 1, found)
        return frozenset(found)

    @staticmethod
    def weight(pres: TamePresentation, kind: str, combo: tuple[int, ...]) -> SerreWeight:
        """F_pres at one index tuple, the weight `weights` reads there,
        made on every call and stored nowhere: the lowest-alcove test runs
        on the thetas of combo's singles alone, and no full slot is made."""
        sing, parts = _singles(kind), []
        for j, (s, mu) in enumerate(_guard(pres, kind)):
            i, t = sing.y_slot[combo[j - 1]], sing.x_slot[combo[j]]
            cells = [()] * len(sing.ys)
            cells[i] = (t,)
            parts.append(_slot_parts(kind, s, mu, pres.p, (t,), cells)[i][t])
        return SerreWeight._trusted(pres.p, parts)


def jh_factors(tau: TamePresentation) -> dict[APPair, SerreWeight]:
    """F_tau over AP pairs; the image is the predicted JH set of the
    reduction of the type."""
    return dict(zip(enumerate_ap(tau.f), _SlotTable().weights(tau, "type")))


def w_question(rhobar: TamePresentation,
               table: _SlotTable | None = None) -> dict[APPair, SerreWeight]:
    """F_rhobar over AP' pairs, read from `table`, a fresh one unless the
    caller keeps its own; the image is the predicted weight set."""
    table = _SlotTable() if table is None else table
    return dict(zip(enumerate_ap_prime(rhobar.f), table.weights(rhobar, "param")))


def jh_set(tau: TamePresentation) -> frozenset[SerreWeight]:
    return frozenset(_SlotTable().weights(tau, "type"))


def w_question_set(rhobar: TamePresentation) -> frozenset[SerreWeight]:
    return frozenset(_SlotTable().weights(rhobar, "param"))


def _chain(joins: list, j: int, rows: tuple, start: tuple, d: int, parts: tuple,
           p: int, modulus: int, found: set) -> None:
    """Follow the matches of slot j's join in `rows` (see `intersect_w_jh`),
    adding to `found` each complete chain that closes on `start`."""
    for nxts, part, dc in joins[j].get(rows, ()):
        if j + 1 < len(joins):
            d_next, parts_next = d * p + dc, parts + (part,)
            for nxt in nxts:
                _chain(joins, j + 1, nxt, start, d_next, parts_next, p, modulus, found)
        elif start in nxts and (d * p + dc) % modulus == 0:
            found.add(SerreWeight._trusted(p, parts + (part,)))


def intersect_w_jh(
    rhobar: TamePresentation, tau: TamePresentation, table: _SlotTable | None = None,
) -> frozenset[SerreWeight]:
    """W?(rhobar) & JH(tau), joined slot by slot and chained around the slots.

    Two weights are equal when their parts have the same (a, b) and their
    central integers sum c_j p^(f-1-j) agree mod p^f - 1 (see
    `SerreWeight._trusted`).  Per slot, the two kernels' parts are joined on
    (a, b) (`_slot_join`).  A chain takes one match per slot and one of its
    next rows, the y indices of a pair of singles of the match's two
    thetas; slot f - 1 closes when slot 0's rows are among its next rows.
    Only a chain whose central integers agree becomes a weight.  The slots
    and joins are read from `table`, a fresh one unless the caller shares
    its own; the guards of both presentations run, and the chains are
    followed, on every call."""
    table = _SlotTable() if table is None else table
    wq, jh = (table.numbered(kind, _guard(pres, kind), pres.p)
              for pres, kind in ((rhobar, "param"), (tau, "type")))
    return table.meet(wq, jh, rhobar.p) if (rhobar.p, rhobar.f) == (tau.p, tau.f) else frozenset()


def obvious_weights(rhobar: TamePresentation) -> dict[tuple[FiniteWeyl, ...], SerreWeight]:
    """W?(rhobar) at the diagonal pairs (w1 == w2, each single
    (diamond(w), diamond(w))), keyed by the finite parts w: 8^f of the
    weights of w_question."""
    return {tuple(x.w for x in pair.w1): sigma
            for pair, sigma in w_question(rhobar).items() if pair.w1 == pair.w2}
