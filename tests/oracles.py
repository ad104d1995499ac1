"""Slow reference implementations that the fast paths are tested against.

- Weyl words act letter by letter through the coordinate formulas of the
  simple reflections; the library's group tables must agree with them.
- Alcoves are exact rational barycenters (the base alcove has barycenter
  (1/2, 1/6)), and lengths count the root hyperplanes strictly between
  two barycenters; the library's alcoves are these barycenters scaled by
  6, and its lengths come from Shi coordinates.

Nothing here reads the library's action matrices or integer alcoves:
finite parts act through their words.  The folding oracle composes the
affine simple reflections with the library's `compose`, whose products
the table tests check.
"""

from __future__ import annotations

import math
from fractions import Fraction

from gsp4weights.base import ETA, Coweight, Weight
from gsp4weights.affine import IDENTITY, S0, S1, S2, ExtAffine, compose, invert


# --- finite Weyl group by words ----------------------------------------


def _act1(lam: Weight) -> Weight:
    return Weight(lam.b, lam.a, lam.c)


def _act2(lam: Weight) -> Weight:
    return Weight(lam.a, -lam.b, lam.b + lam.c)


def _coact1(cov: Coweight) -> Coweight:
    return Coweight(cov.e, cov.d, cov.f)


def _coact2(cov: Coweight) -> Coweight:
    return Coweight(cov.d, cov.f - cov.e, cov.f)


def word_act(word: str, lam: Weight) -> Weight:
    """The action of the word on a character, rightmost letter first."""
    for ch in reversed(word):
        lam = _act1(lam) if ch == "1" else _act2(lam)
    return lam


def word_act_coweight(word: str, cov: Coweight) -> Coweight:
    for ch in reversed(word):
        cov = _coact1(cov) if ch == "1" else _coact2(cov)
    return cov


CHAR_BASIS = (Weight(1, 0, 0), Weight(0, 1, 0), Weight(0, 0, 1))
COWEIGHT_BASIS = (Coweight(1, 0, 0), Coweight(0, 1, 0), Coweight(0, 0, 1))


def word_images(word: str) -> tuple[Weight, Weight, Weight]:
    """Images of the character basis: they determine the element."""
    return tuple(word_act(word, e) for e in CHAR_BASIS)  # type: ignore[return-value]


# --- alcoves as rational barycenters ------------------------------------

BASE = (Fraction(1, 2), Fraction(1, 6))
DUAL_BASE = (Fraction(-1, 2), Fraction(-1, 6))
_ROOT_VECS = ((1, -1), (0, 2), (1, 1), (2, 0))


def functionals(pt) -> tuple:
    x, y = pt
    return (x - y, y, x + y, x)


def act_on_point(x: ExtAffine, pt) -> tuple[Fraction, Fraction]:
    ia, ib = (word_act(x.w.word, e) for e in CHAR_BASIS[:2])
    px, py = pt
    return (x.nu.a + px * ia.a + py * ib.a, x.nu.b + px * ia.b + py * ib.b)


def barycenter(x: ExtAffine) -> tuple[Fraction, Fraction]:
    return act_on_point(x, BASE)


def _count_strictly_between(a: Fraction, b: Fraction) -> int:
    if a == b:
        return 0
    lo, hi = (a, b) if a < b else (b, a)
    return math.ceil(hi) - math.floor(lo) - 1


def length(x: ExtAffine, roots=range(4), base=BASE) -> int:
    """Root hyperplanes of the given directions between base and x(base)."""
    f0, f1 = functionals(base), functionals(act_on_point(x, base))
    return sum(_count_strictly_between(f0[i], f1[i]) for i in roots)


def dual_length(x: ExtAffine) -> int:
    return length(x, base=DUAL_BASE)


def is_restricted(x: ExtAffine) -> bool:
    f = functionals(barycenter(x))
    return 0 < f[0] < 1 and 0 < f[1] < 1


def locate_point(pt, max_steps: int = 100000) -> ExtAffine:
    """Fold the rational point into the base alcove by S1, S2 and S0."""
    g = IDENTITY
    cur = pt
    for _ in range(max_steps):
        f1, f2, f3, f4 = functionals(cur)
        if f1 == 0 or f2 == 0 or f3 == 0 or f4 in (0, 1):
            raise ValueError("point lies on a wall: %r" % (pt,))
        if f1 < 0:
            r = S1
        elif f2 < 0:
            r = S2
        elif f3 > 1:
            r = S0
        elif f3 < 1:
            return invert(g)
        else:
            raise ValueError("point lies on a wall: %r" % (pt,))
        cur = act_on_point(r, cur)
        g = compose(r, g)
    raise AssertionError("folding did not terminate")


def locate_weight(lam: Weight, p: int) -> ExtAffine:
    mu = lam + ETA
    return locate_point((Fraction(mu.a, p), Fraction(mu.b, p)))


def _reflect(pt, i: int, m: int):
    t = functionals(pt)[i]
    va, vb = _ROOT_VECS[i]
    return (pt[0] + (m - t) * va, pt[1] + (m - t) * vb)


def upper_arrow_leq(a, b) -> bool:
    """a arrow-below b for barycenters: breadth-first search over upward
    reflections, pruned by b's x and x + y, which no arrow step lowers."""
    if a == b:
        return True
    x_max, s_max = b[0], b[0] + b[1]
    seen = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for pt in frontier:
            for i in range(4):
                m = math.floor(functionals(pt)[i]) + 1
                while True:
                    q = _reflect(pt, i, m)
                    if q[0] > x_max or q[0] + q[1] > s_max:
                        break
                    if q == b:
                        return True
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
                    m += 1
        frontier = nxt
    return False
