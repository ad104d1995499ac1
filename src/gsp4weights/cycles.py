"""Cycle bookkeeping on component labels and the explicit cycle formulas.

Cycles are finitely supported integer combinations of Serre weights, one
basis label per irreducible component.  The module provides the two-term
cycle attached to a weight with a second-alcove embedding, Weyl-module
classes in the Grothendieck group, and the component count for extremal
and colength-one configurations.
"""

from __future__ import annotations

import logging
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .base import ETA, Weight
from .config import TAU_DEPTH, WEIGHT_DEPTH
from .admissible import adm_set, colength_one_split
from .affine import (
    HIGHEST_RESTRICTED,
    RESTRICTED_ALCOVES,
    W0,
    alcove_of,
    compose_all,
    elem_of_alcove,
    in_omega,
    invert,
    orbit_weight,
    restricted_alcove_index,
    weight_alcove_index,
    weight_arrow_leq,
)
from .weights import (
    GenericityError,
    SerreWeight,
    TamePresentation,
    compat_element,
    enumerate_ap_prime,
    intersect_w_jh,
    is_p_restricted,
    jh_set,
)

log = logging.getLogger(__name__)


# --- formal sums ------------------------------------------------------------


class FormalSum:
    """Finitely supported integer combination of Serre weights, from a
    mapping weight -> coefficient (none for the zero sum)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        coeffs = dict(coeffs or {})
        for sigma, n in coeffs.items():
            if not isinstance(sigma, SerreWeight):
                raise TypeError("keys must be Serre weights")
            if type(n) is not int:  # exactly int: isinstance would take a bool
                raise TypeError("coefficient %r of %s is not an int" % (n, sigma.display()))
        self._coeffs: dict[SerreWeight, int] = {sigma: n for sigma, n in coeffs.items() if n}

    def coeff(self, sigma: SerreWeight) -> int:
        return self._coeffs.get(sigma, 0)

    def support(self) -> tuple[SerreWeight, ...]:
        return tuple(sorted(self._coeffs, key=lambda s: s.sort_key()))

    def items(self) -> tuple[tuple[SerreWeight, int], ...]:
        return tuple((s, self._coeffs[s]) for s in self.support())

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((type(self).__name__, tuple(self.items())))

    def __add__(self, other):
        if type(self) is not type(other):
            raise TypeError(
                "cannot combine %s with %s"
                % (type(self).__name__, type(other).__name__)
            )
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    def display(self) -> str:
        if not self._coeffs:
            return "0"
        return " + ".join("%d*%s" % (n, s.display()) for s, n in self.items())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.display())


class Cycle(FormalSum):
    """Integer combination of component labels."""


class GrothendieckClass(FormalSum):
    """Integer combination of irreducible-representation labels."""


# --- the two-term cycle formula ---------------------------------------------


def _lowest_companion(lam: Weight, p: int) -> Weight:
    """The restricted bottom-alcove orbit point of a second-alcove weight,
    which lies arrow-below it."""
    kappa = orbit_weight(lam, p, elem_of_alcove(RESTRICTED_ALCOVES[0]))
    if not (is_p_restricted(kappa, p) and weight_arrow_leq(kappa, lam, p)):
        raise AssertionError("expected a unique bottom-alcove companion, found 0")
    return kappa


def bm_cycle(sigma: SerreWeight) -> Cycle:
    """The cycle attached to a 3-deep weight: one term per choice of
    embedding data, where a second-alcove embedding may be replaced by its
    unique bottom-alcove companion.  All coefficients are 1 and the support
    has size 2^(number of second-alcove embeddings)."""
    p = sigma.p
    if sigma.depth() < WEIGHT_DEPTH:
        raise GenericityError("cycle formula needs a %d-deep weight; %s is %d-deep"
                              % (WEIGHT_DEPTH, sigma.display(), sigma.depth()))
    options = []
    doubled = 0
    for lam in sigma.parts:
        if weight_alcove_index(lam, p) == 2:
            options.append((lam, _lowest_companion(lam, p)))
            doubled += 1
        else:
            options.append((lam,))
    cycle = Cycle(
        {SerreWeight.make(p, combo): 1 for combo in product(*options)}
    )
    if len(cycle.support()) != 2**doubled:
        raise AssertionError("companion weights collided after normalization")
    return cycle


# --- Weyl-module classes ----------------------------------------------------


def restricted_chain(lam: Weight, p: int) -> tuple[Weight, ...]:
    """Orbit points of lam in the restricted alcoves 0..i where i is lam's
    own alcove; consecutive points are in arrow order."""
    idx = weight_alcove_index(lam, p)
    if idx is None:
        raise ValueError("weight does not lie inside a restricted alcove")
    pts = [orbit_weight(lam, p, elem_of_alcove(RESTRICTED_ALCOVES[k])) for k in range(idx + 1)]
    assert pts[idx] == lam
    for a, b in zip(pts, pts[1:]):
        assert weight_arrow_leq(a, b, p)
    return tuple(pts)


def weyl_class(lam: Weight, p: int) -> GrothendieckClass:
    """Class of the reduced Weyl module of highest weight lam (one
    embedding): irreducible in the bottom alcove, two factors above, the
    second being the predecessor along the restricted alcove chain."""
    if not is_p_restricted(lam, p):
        raise ValueError("weight must be p-restricted")
    chain = restricted_chain(lam, p)
    if len(chain) == 1:
        return GrothendieckClass({SerreWeight.make(p, (lam,)): 1})
    return GrothendieckClass(
        {
            SerreWeight.make(p, (chain[-1],)): 1,
            SerreWeight.make(p, (chain[-2],)): 1,
        }
    )


# --- colength-one component counts ------------------------------------------


@lru_cache(maxsize=None)
def _case_tables() -> tuple[frozenset, frozenset, frozenset]:
    case1 = frozenset(adm_set(ETA).of_colength(0))
    case2 = frozenset(colength_one_split()[1])
    case3 = frozenset(
        compose_all(invert(pr.w2[0]), invert(HIGHEST_RESTRICTED), W0, pr.w1[0])
        for pr in enumerate_ap_prime(1)
        if in_omega(pr.w1[0]) and restricted_alcove_index(alcove_of(pr.w2[0])) == 1
    )
    assert len(case1) == 8 and len(case2) == 8 and len(case3) == 2
    assert not (case1 & case2) and not (case1 & case3) and not (case2 & case3)
    return case1, case2, case3


def classify_embedding_shape(g) -> int:
    """1 for a translation of an extreme weight, 2 for the irregular
    colength-one family, 3 for the regular colength-one family; raises
    otherwise, naming a regular colength-one element of Adm(eta) as such."""
    case1, case2, case3 = _case_tables()
    if g in case1:
        return 1
    if g in case2:
        return 2
    if g in case3:
        return 3
    if g in colength_one_split()[0]:
        raise ValueError("regular colength-one element outside the classified family: %s"
                         % g.display())
    raise ValueError("not a colength-one/extremal configuration: %s" % g.display())


class ColengthOneReport(NamedTuple):
    weights: frozenset[SerreWeight]
    cases: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.weights)


def colength_one_components(
    rhobar: TamePresentation, tau: TamePresentation
) -> ColengthOneReport:
    """Component count for a pair whose compatibility element is extremal
    or colength-one at every embedding: the intersection of the predicted
    set with the JH set has exactly 2^(#case-2/3 embeddings) weights."""
    inter = intersect_w_jh(rhobar, tau)  # the weight maps' guards come first
    g = compat_element(rhobar, tau)
    cases = tuple(classify_embedding_shape(gj) for gj in g)
    if tau.depth() < TAU_DEPTH:
        log.warning("type depth %d below %d; count relies on deeper input",
                    tau.depth(), TAU_DEPTH)
    expected = 2 ** sum(1 for c in cases if c in (2, 3))
    if len(inter) != expected:
        raise AssertionError(
            "expected %d components for cases %s, found %d"
            % (expected, cases, len(inter))
        )
    return ColengthOneReport(inter, cases)


# --- multiplicity sums ------------------------------------------------------


class BMSumResult(NamedTuple):
    cycle: Cycle
    assumptions: tuple[str, ...]


def bm_sum(tau: TamePresentation) -> BMSumResult:
    """Sum of the per-weight cycles over the JH set of the type, each with
    multiplicity one; that multiplicity is an assumption recorded in the
    result, not a computed fact."""
    if tau.kind != "type":
        raise ValueError("bm_sum expects a type presentation")
    total = Cycle()
    for sigma in jh_set(tau):
        total = total + bm_cycle(sigma)
    return BMSumResult(
        total, ("default multiplicity one on the JH set (assumed, not computed)",)
    )
