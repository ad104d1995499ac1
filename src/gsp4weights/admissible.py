"""Admissible sets in the extended affine Weyl group, with Levi variants.

Adm(lam) is the set of elements Bruhat-below some translation t_{w(lam)}
with w finite.  All generators lie in one coset of the affine Weyl
group, so the set carries a single length-zero part.
"""

from __future__ import annotations

from typing import NamedTuple

from .base import (
    ETA,
    W_ALL,
    FiniteWeyl,
    Weight,
    dominant,
    weyl_inv,
    weyl_mul,
)
from .affine import (
    ExtAffine,
    alcove_length,
    alcove_of,
    bruhat_down_alcoves,
    bruhat_down_set,
    bruhat_leq,
    compose_all,
    coset_ball,
    finite,
    functional_values,
    length,
    omega_part,
    star,
    translation,
)


def elem_sort_key(x: ExtAffine):
    """The order of AdmissibleSet.sorted_elements where no alcove is at
    hand: `length` as it computes it, without its argument cache."""
    return (alcove_length(alcove_of(x)), tuple(x.nu), x.w.word)


def translation_generators(lam: Weight) -> tuple[ExtAffine, ...]:
    if not dominant(lam):
        raise ValueError("admissible sets are indexed by dominant weights")
    gens = {translation(w.act(lam)) for w in W_ALL}
    return tuple(sorted(gens, key=elem_sort_key))


class AdmissibleSet(NamedTuple):
    """Adm(lam), made whole by its maker: `order` lists the elements by
    (length, nu, word).  Both makers list them in that one order, so two
    sets are equal as (lam, order) exactly when they are equal as (lam,
    elements); `elements` makes the set only where it is read."""

    lam: Weight
    order: tuple[ExtAffine, ...]

    @property
    def elements(self) -> frozenset[ExtAffine]:
        return frozenset(self.order)

    def sorted_elements(self) -> list[ExtAffine]:
        return list(self.order)

    def colength(self, x: ExtAffine) -> int:
        return length(translation(self.lam)) - length(x)

    def of_colength(self, k: int) -> list[ExtAffine]:
        return [x for x in self.order if self.colength(x) == k]


def adm_set(lam: Weight) -> AdmissibleSet:
    """Union of the lower Bruhat intervals of the Weyl translates of lam,
    ordered by the alcove the closure made each element at."""
    down = bruhat_down_alcoves(translation_generators(lam))
    return AdmissibleSet(lam, tuple(k[3] for k in sorted(
        (alcove_length(a), z.nu, z.w.word, z) for a, z in down.items())))


def adm_set_oracle(lam: Weight) -> AdmissibleSet:
    """Same set by brute force: filter the coset ball by the recursive
    Bruhat comparison.  Slower; used to cross-check adm_set."""
    gens = translation_generators(lam)
    max_len = max(length(g) for g in gens)
    ball = coset_ball(omega_part(gens[0]), max_len)
    return AdmissibleSet(lam, tuple(sorted(
        (x for x in ball if any(bruhat_leq(x, g) for g in gens)), key=elem_sort_key)))


def adm_dual_set(lam: Weight) -> frozenset[ExtAffine]:
    return frozenset(star(x) for x in adm_set(lam).order)


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
    """The Levi's finite Weyl group, by length: the elements whose reduced
    words use only its simple reflections (letter i + 1 for root i)."""
    letters = {str(i + 1) for i in levi}
    return tuple(w for w in W_ALL if set(w.word) <= letters)


def levi_adm_set(lam: Weight, levi: frozenset[int]) -> frozenset[ExtAffine]:
    """Admissible set of the Levi inside the ambient group: the elements
    Levi-Bruhat below some t_{w(lam)}, w in the Levi's finite Weyl group."""
    gens = [translation(w.act(lam)) for w in levi_finite_weyl(levi)]
    return bruhat_down_set(gens, _LEVI_COROOTS[levi])


def levi_minimal_rep(w: FiniteWeyl, levi: frozenset[int]) -> tuple[FiniteWeyl, FiniteWeyl]:
    """Decompose w = w_M * w^M with w^M minimal in its W_M-coset."""
    u = min((weyl_mul(v, w) for v in levi_finite_weyl(levi)), key=lambda v: v.length)
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


def colength_one_split() -> tuple[list[ExtAffine], list[ExtAffine]]:
    """Colength-one elements of Adm(eta), split into (regular, irregular)."""
    ones = adm_set(ETA).of_colength(1)
    reg = [x for x in ones if is_regular_element(x)]
    irr = [x for x in ones if not is_regular_element(x)]
    return reg, irr
