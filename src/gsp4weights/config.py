"""The genericity policy: every depth threshold of the package, defined once.

A parameter rhobar is held to RHOBAR_DEPTH, the types it pairs with to
TAU_DEPTH, and the presentations the weight maps evaluate and the weights
the cycle formula takes to WEIGHT_DEPTH.  Below its threshold the weight
maps, the cycle formula and adjacency instances raise GenericityError; the
weight graph, type_from_target and the colength-one count warn and go on.
"""

RHOBAR_DEPTH = 9
TAU_DEPTH = 6
WEIGHT_DEPTH = 3


def derived_depth_bound(d: int) -> int:
    """The depth a type or parameter derived from a d-deep parameter is held
    to: TAU_DEPTH, lowered by the parameter's shortfall below RHOBAR_DEPTH."""
    return min(TAU_DEPTH, d - (RHOBAR_DEPTH - TAU_DEPTH))
