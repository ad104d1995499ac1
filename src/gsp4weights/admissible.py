"""Admissible sets in the extended affine Weyl group, with Levi variants.

Adm(lam) is the set of elements Bruhat-below some translation t_{w(lam)}
with w finite.  All generators lie in one coset of the affine Weyl
group, so the set carries a single length-zero part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .base import (
    ETA,
    POSITIVE_COROOTS,
    W_ALL,
    W_E,
    FiniteWeyl,
    Weight,
    dominant,
    weyl_inv,
    weyl_mul,
)
from .affine import (
    AFFINE_SIMPLES,
    ExtAffine,
    HIGHEST_RESTRICTED,
    S1,
    S2,
    W0,
    alcove_of,
    bruhat_leq,
    bruhat_lower_interval,
    compose,
    compose_all,
    coset_ball,
    diamond,
    finite,
    functional_values,
    invert,
    length,
    omega_class,
    shi_coordinates,
    star,
    translation,
)


def elem_sort_key(x: ExtAffine):
    return (length(x), tuple(x.nu), x.w.word)


def translation_generators(lam: Weight) -> tuple[ExtAffine, ...]:
    if not dominant(lam):
        raise ValueError("admissible sets are indexed by dominant weights")
    gens = {translation(w.act(lam)) for w in W_ALL}
    return tuple(sorted(gens, key=elem_sort_key))


@dataclass(frozen=True)
class AdmissibleSet:
    lam: Weight
    elements: frozenset[ExtAffine]

    def sorted_elements(self) -> list[ExtAffine]:
        return sorted(self.elements, key=elem_sort_key)

    def colength(self, x: ExtAffine) -> int:
        return length(translation(self.lam)) - length(x)

    def of_colength(self, k: int) -> list[ExtAffine]:
        return [x for x in self.sorted_elements() if self.colength(x) == k]


@lru_cache(maxsize=None)
def adm_set(lam: Weight) -> AdmissibleSet:
    """Union of the lower Bruhat intervals of the Weyl translates of lam."""
    elems: set[ExtAffine] = set()
    for g in translation_generators(lam):
        elems |= bruhat_lower_interval(g)
    return AdmissibleSet(lam, frozenset(elems))


def adm_set_oracle(lam: Weight) -> AdmissibleSet:
    """Same set by brute force: filter the coset ball by the recursive
    Bruhat comparison.  Slower; used to cross-check adm_set."""
    gens = translation_generators(lam)
    max_len = max(length(g) for g in gens)
    from .affine import omega_part

    ball = coset_ball(omega_part(gens[0]), max_len)
    elems = {x for x in ball if any(bruhat_leq(x, g) for g in gens)}
    return AdmissibleSet(lam, frozenset(elems))


def adm_dual_set(lam: Weight) -> frozenset[ExtAffine]:
    return frozenset(star(x) for x in adm_set(lam).elements)


def is_regular_element(x: ExtAffine) -> bool:
    """No alcove functional value inside the critical strip (0, 1)."""
    return all(not (0 < v < 6) for v in functional_values(alcove_of(x)))


# --- Levi subgroups ------------------------------------------------------

LEVI_T = frozenset()
LEVI_M1 = frozenset({0})
LEVI_M2 = frozenset({1})
LEVI_G = frozenset({0, 1})
LEVI_LABELS = {"T": LEVI_T, "M1": LEVI_M1, "M2": LEVI_M2, "G": LEVI_G}

# positive coroot indices for each standard Levi
_LEVI_COROOTS = {
    LEVI_T: (),
    LEVI_M1: (0,),
    LEVI_M2: (1,),
    LEVI_G: (0, 1, 2, 3),
}


def levi_finite_weyl(levi: frozenset[int]) -> tuple[FiniteWeyl, ...]:
    from .base import W_S1, W_S2

    gens = []
    if 0 in levi:
        gens.append(W_S1)
    if 1 in levi:
        gens.append(W_S2)
    elems = {W_E}
    frontier = [W_E]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                u = weyl_mul(s, w)
                if u not in elems:
                    elems.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(elems, key=lambda w: (w.length, w.word)))


def levi_affine_simples(levi: frozenset[int]) -> tuple[ExtAffine, ...]:
    """Affine simple reflections of the Levi's own affine Weyl group,
    embedded in the ambient extended group."""
    if levi == LEVI_G:
        return AFFINE_SIMPLES
    out = []
    if 0 in levi:
        # wall <., alpha1^vee> = 0 and the opposite wall at level 1
        out.append(S1)
        out.append(compose(translation(Weight(1, -1, 0)), S1))
    if 1 in levi:
        out.append(S2)
        out.append(compose(translation(Weight(0, 2, -1)), S2))
    return tuple(out)


def levi_length(x: ExtAffine, levi: frozenset[int]) -> int:
    """Hyperplane count restricted to the Levi's roots, ambient base alcove."""
    k = shi_coordinates(alcove_of(x))
    return sum(abs(k[i]) for i in _LEVI_COROOTS[levi])


def levi_reduced_word(x: ExtAffine, levi: frozenset[int]) -> tuple[tuple[int, ...], ExtAffine]:
    """Greedy reduced word for the Levi length; remainder has Levi length 0."""
    simples = levi_affine_simples(levi)
    word: list[int] = []
    cur = x
    n = levi_length(cur, levi)
    while n > 0:
        for i, s in enumerate(simples):
            nxt = compose(s, cur)
            if levi_length(nxt, levi) < n:
                word.append(i)
                cur, n = nxt, levi_length(nxt, levi)
                break
        else:
            raise AssertionError("no Levi descent at positive Levi length: %r" % (x,))
    return tuple(word), cur


def levi_adm_set(lam: Weight, levi: frozenset[int]) -> frozenset[ExtAffine]:
    """Admissible set of the Levi, inside the ambient group.

    Elements are Levi-Bruhat below some t_{w(lam)} with w in the Levi's
    finite Weyl group; the length-zero remainder must match exactly.
    """
    simples = levi_affine_simples(levi)
    out: set[ExtAffine] = set()
    for w in levi_finite_weyl(levi):
        g = translation(w.act(lam))
        word, delta = levi_reduced_word(g, levi)
        prods: set[ExtAffine] = {delta}
        # build subword products right-to-left so the remainder stays fixed
        for i in reversed(word):
            prods |= {compose(simples[i], q) for q in prods}
        out |= prods
    return frozenset(out)


def levi_minimal_rep(w: FiniteWeyl, levi: frozenset[int]) -> tuple[FiniteWeyl, FiniteWeyl]:
    """Decompose w = w_M * w^M with w^M minimal in its W_M-coset."""
    from .base import W_S1, W_S2

    gens = []
    if 0 in levi:
        gens.append(W_S1)
    if 1 in levi:
        gens.append(W_S2)
    u = w
    changed = True
    while changed:
        changed = False
        for s in gens:
            su = weyl_mul(s, u)
            if su.length < u.length:
                u = su
                changed = True
                break
    w_m = weyl_mul(w, weyl_inv(u))
    assert weyl_mul(w_m, u) == w
    return w_m, u


def adm_levi_conjugate(lam: Weight, levi: frozenset[int], w: FiniteWeyl) -> frozenset[ExtAffine]:
    """(w)^(-1) Adm_M(lam) w for a minimal coset representative w."""
    _, rep = levi_minimal_rep(w, levi)
    if rep != w:
        raise ValueError("conjugator must be minimal in its Levi coset")
    wi = finite(weyl_inv(w))
    we = finite(w)
    return frozenset(compose_all(wi, z, we) for z in levi_adm_set(lam, levi))


# --- colength-one structure for eta --------------------------------------


def eta_translation_elements() -> frozenset[ExtAffine]:
    return frozenset(translation(w.act(ETA)) for w in W_ALL)


def irregular_family() -> frozenset[ExtAffine]:
    """The irregular colength-one elements of Adm(eta):
    (w_diamond)^(-1) * (highest restricted)^(-1) * w0 * s * w_diamond
    over finite w and the simple s making the result irregular."""
    out = set()
    t_eta_side = compose(invert(HIGHEST_RESTRICTED), W0)  # = t_eta
    for w in W_ALL:
        d = diamond(w)
        for s in (S1, S2):
            cand = compose_all(invert(d), t_eta_side, s, d)
            if cand in adm_set(ETA).elements and not is_regular_element(cand):
                out.add(cand)
    return frozenset(out)


def colength_one_split(lam: Weight = ETA) -> tuple[list[ExtAffine], list[ExtAffine]]:
    """Colength-one elements of Adm(lam), split into (regular, irregular)."""
    adm = adm_set(lam)
    ones = adm.of_colength(1)
    reg = [x for x in ones if is_regular_element(x)]
    irr = [x for x in ones if not is_regular_element(x)]
    return reg, irr
