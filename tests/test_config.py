"""The genericity policy of config.py, checked at the edge of each threshold."""

import pytest

from gsp4weights.base import W_E, Weight
from gsp4weights.config import WEIGHT_DEPTH, derived_depth_bound
from gsp4weights.cycles import bm_cycle
from gsp4weights.weights import (
    GenericityError,
    SerreWeight,
    TamePresentation,
    jh_set,
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
def test_weight_maps_need_weight_depth(kind, weights_of):
    deep = TamePresentation(kind, (W_E,), (DEEP,), P)
    shallow = TamePresentation(kind, (W_E,), (SHALLOW,), P)
    assert (deep.depth(), shallow.depth()) == (WEIGHT_DEPTH, WEIGHT_DEPTH - 1)
    assert len(weights_of(deep)) == 20
    with pytest.raises(GenericityError, match="only 2-deep; need at least 3"):
        weights_of(shallow)
    assert weights_of(shallow, min_depth=WEIGHT_DEPTH - 1)


def test_cycle_formula_needs_weight_depth():
    deep = SerreWeight.make(P, (DEEP,))
    shallow = SerreWeight.make(P, (SHALLOW,))
    assert (deep.depth(), shallow.depth()) == (WEIGHT_DEPTH, WEIGHT_DEPTH - 1)
    assert bm_cycle(deep).support()
    with pytest.raises(GenericityError, match="^cycle formula needs a 3-deep weight$"):
        bm_cycle(shallow)
