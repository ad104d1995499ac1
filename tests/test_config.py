"""The genericity policy of config.py, checked at the edge of each threshold."""

import os
import re

import pytest

from gsp4weights import adjacency, weights
from gsp4weights.adjacency import build_instance, valid_simples
from gsp4weights.base import (
    ETA,
    POSITIVE_COROOTS,
    W_ALL,
    W_E,
    Weight,
    lowest_alcove_depth,
    pairing,
)
from gsp4weights.cli import load_presentation
from gsp4weights.config import RHOBAR_DEPTH, TAU_DEPTH, WEIGHT_DEPTH, derived_depth_bound
from gsp4weights.cycles import bm_cycle
from gsp4weights.weights import (
    GenericityError,
    SerreWeight,
    TamePresentation,
    enumerate_ap_prime,
    intersect_w_jh,
    jh_set,
    obvious_weights,
    w_question_set,
)

P = 37
# at p = 37 both the lowest-alcove depth and the weight depth of these are
# 2 and 3
SHALLOW, DEEP = Weight(4, 2, 0), Weight(6, 3, 0)


def test_derived_bound_lowers_tau_depth_by_the_shortfall():
    # a 9-deep parameter needs 6-deep derived data; each step below 9
    # lowers that by one
    assert [derived_depth_bound(d) for d in range(3, 13)] == [0, 1, 2, 3, 4, 5, 6, 6, 6, 6]


@pytest.mark.parametrize("kind,weights_of", (("type", jh_set), ("param", w_question_set)))
def test_weight_maps_need_weight_depth(kind, weights_of, monkeypatch):
    deep = TamePresentation.make(kind, (W_E,), (DEEP,), P)
    shallow = TamePresentation.make(kind, (W_E,), (SHALLOW,), P)
    assert (deep.depth(), shallow.depth()) == (WEIGHT_DEPTH, WEIGHT_DEPTH - 1)
    assert len(weights_of(deep)) == 20
    with pytest.raises(GenericityError, match="only 2-deep; need at least 3"):
        weights_of(shallow)
    monkeypatch.setattr(weights, "WEIGHT_DEPTH", WEIGHT_DEPTH - 1)
    assert weights_of(shallow)


def test_one_threshold_moves_every_weight_map_refusal(monkeypatch):
    # the weight maps read one threshold, weights.WEIGHT_DEPTH: raised step
    # by step, each map and a checked adjacency instance refuse exactly
    # when a presentation they read falls below it
    rho = load_presentation(os.path.join(os.path.dirname(__file__), "..", "fixtures", "rb1.json"))
    inst = next(inst for pair in enumerate_ap_prime(1) for s in valid_simples(pair)
                for inst in (build_instance(rho, pair, s),) if inst.tau.depth() == 5)
    tau, rho0 = inst.tau, inst.rhobar0
    assert (tau.depth(), rho0.depth(), rho.depth()) == (5, 8, 8)
    reads = (
        (lambda: jh_set(tau), (tau,)),
        (lambda: w_question_set(rho0), (rho0,)),
        (lambda: intersect_w_jh(rho0, tau), (rho0, tau)),
        (lambda: obvious_weights(rho), (rho,)),
        (lambda: build_instance(rho, inst.pair, inst.s, check=True), (tau, rho0, rho)),
    )
    refused = []
    for t in range(WEIGHT_DEPTH, 10):
        monkeypatch.setattr(weights, "WEIGHT_DEPTH", t)
        for call, presentations in reads:
            if min(pres.depth() for pres in presentations) < t:
                with pytest.raises(GenericityError, match="deep; need at least %d$" % t):
                    call()
                refused.append(t)
            else:
                assert call()
    assert refused == [6] * 3 + [7] * 3 + [8] * 3 + [9] * 5


def test_cycle_formula_needs_weight_depth():
    deep = SerreWeight.make(P, (DEEP,))
    shallow = SerreWeight.make(P, (SHALLOW,))
    assert (deep.depth(), shallow.depth()) == (WEIGHT_DEPTH, WEIGHT_DEPTH - 1)
    assert bm_cycle(deep).support()
    with pytest.raises(GenericityError, match="^cycle formula needs a 3-deep weight; %s is 2-deep$"
                       % re.escape(shallow.display())):
        bm_cycle(shallow)


# --- the margins the tables imply ------------------------------------------


def _shift_margin(shifts):
    """The largest |<s(nu), coroot>| over the shifts nu, every s in W and
    every positive coroot."""
    return max(abs(pairing(s.act(nu), cov))
               for nu in shifts for s in W_ALL for cov in POSITIVE_COROOTS)


def test_kernel_rows_stay_within_weight_depth_of_eta():
    # an `_offset_row` alcove row pairs eta + s(nu') with the positive
    # coroots, and the kernel tests 0 < <mu, coroot> + row < p: the row
    # differs from eta's pairings by at most WEIGHT_DEPTH, so behind
    # `_guard` (every mu WEIGHT_DEPTH-deep) the test cannot fail
    eta = [pairing(ETA, cov) for cov in POSITIVE_COROOTS]
    assert max(abs(g - e) for kind in ("type", "param") for s in W_ALL
               for row in weights._offset_row(kind, s)[0]
               for g, e in zip(row, eta)) == WEIGHT_DEPTH


def _kernel_refuses(mu, p):
    """Whether the kernel's lowest-alcove test refuses mu for some kind, s
    and single: the test runs on every theta, and the thetas' members
    partition the singles."""
    for kind in ("type", "param"):
        sing = weights._singles(kind)
        assert sorted(sum(sing.members, ())) == list(range(len(sing.pairs)))
        for s in W_ALL:
            try:
                weights._slot_parts(kind, s, mu, p, range(len(sing.members)), [()] * len(sing.ys))
            except GenericityError:
                return True
    return False


@pytest.mark.parametrize("p,sizes", ((11, (0, 0)), (13, (2, 0)), (17, (10, 2)), (37, (50, 132))))
def test_the_kernel_margin_is_sharp(p, sizes):
    # some (WEIGHT_DEPTH - 1)-deep mu fails the kernel's test, and no
    # WEIGHT_DEPTH-deep one does; p = 11 has no 2-deep mu in its lowest
    # alcove and p = 13 no 3-deep one
    mus = [Weight(a, b, 0) for a in range(-2, p) for b in range(-1, p)]
    shallow = [mu for mu in mus if lowest_alcove_depth(mu, p) == WEIGHT_DEPTH - 1]
    deep = [mu for mu in mus if lowest_alcove_depth(mu, p) >= WEIGHT_DEPTH]
    assert (len(shallow), len(deep)) == sizes
    assert not any(_kernel_refuses(mu, p) for mu in deep)
    assert any(_kernel_refuses(mu, p) for mu in shallow) == bool(shallow)


def test_slot_targets_lose_at_most_the_depth_gap():
    # at a slot, tau's mu is rhobar's plus s(nu) for nu the translation of
    # the row's g^(-1), and rhobar0's is rhobar's plus s(nu) for w1^(-1) w2's;
    # over every row and s the first pairs to at most RHOBAR_DEPTH -
    # TAU_DEPTH with each positive coroot, reached, and the second to at most 2
    rows = adjacency._slot_targets().values()
    assert _shift_margin(g_inv.nu for g_inv, _, _, _ in rows) == RHOBAR_DEPTH - TAU_DEPTH
    assert _shift_margin(w1_inv_w2.nu for _, w1_inv_w2, _, _ in rows) == 2
