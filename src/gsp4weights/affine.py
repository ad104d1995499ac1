"""Extended affine Weyl group of GSp4 with exact alcove geometry.

Elements are written t_nu * w with nu in the character lattice and w in
the finite Weyl group.  The group acts on the plane spanned by the
first two weight coordinates.  Every alcove barycenter has denominator
6, so an alcove is stored as its barycenter scaled by 6, a pair of
integers: the base alcove, with barycenter (1/2, 1/6), is Alcove(3, 1).
In these units the affine root hyperplane <., alpha^vee> = m is the line
functional = 6m, and the Shi coordinates of an alcove (J.-Y. Shi,
Alcoves corresponding to an affine Weyl group, J. London Math. Soc.
1987) are the floors of its four functional values over 6.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .base import (
    ETA,
    POSITIVE_ROOTS,
    W_ALL,
    W_E,
    W_LONG,
    W_S1,
    W_S2,
    FiniteWeyl,
    Weight,
    weyl_from_word,
    weyl_inv,
    weyl_mul,
)


class Alcove(NamedTuple):
    """An alcove, by its barycenter scaled by 6."""

    x: int
    y: int


BASE_ALCOVE = Alcove(3, 1)

# The plane directions of the positive roots.
_ROOT_VECS = tuple((r.a, r.b) for r in POSITIVE_ROOTS)


def functional_values(a: Alcove) -> tuple[int, int, int, int]:
    """The pairings of a with the four positive coroots, in their order."""
    x, y = a
    return (x - y, y, x + y, x)


def shi_coordinates(a: Alcove) -> tuple[int, int, int, int]:
    """Per positive root, the k with 6k < functional < 6(k + 1): the
    number of walls of that direction between the base alcove (all k = 0)
    and a, signed.  This is the length kernel."""
    x, y = a
    return ((x - y) // 6, y // 6, (x + y) // 6, x // 6)


def alcove_length(a: Alcove) -> int:
    """Number of root hyperplanes between the base alcove and a."""
    x, y = a  # the sum of the |Shi coordinates|, inline
    return abs((x - y) // 6) + abs(y // 6) + abs((x + y) // 6) + abs(x // 6)


class ExtAffine(NamedTuple):
    """t_nu * w, acting as x -> nu + w(x): the pair (nu, w), equal and
    hashing as that pair."""

    nu: Weight
    w: FiniteWeyl

    def __repr__(self):
        return "E[%s]" % (self.display(),)

    def display(self) -> str:
        if self.nu == Weight(0, 0, 0):
            return self.w.display()
        t = "t(%d,%d,%d)" % (self.nu.a, self.nu.b, self.nu.c)
        if self.w is W_E:
            return t
        return t + "*" + self.w.display()


IDENTITY = ExtAffine(Weight(0, 0, 0), W_E)


def translation(nu: Weight) -> ExtAffine:
    return ExtAffine(nu, W_E)


def finite(w: FiniteWeyl) -> ExtAffine:
    return ExtAffine(Weight(0, 0, 0), w)


def compose(x: ExtAffine, y: ExtAffine) -> ExtAffine:
    return ExtAffine(x.nu + x.w.act(y.nu), weyl_mul(x.w, y.w))


def compose_all(*xs: ExtAffine) -> ExtAffine:
    acc = IDENTITY
    for x in xs:
        acc = compose(acc, x)
    return acc


def invert(x: ExtAffine) -> ExtAffine:
    wi = weyl_inv(x.w)
    return ExtAffine(-wi.act(x.nu), wi)


def star(x: ExtAffine) -> ExtAffine:
    """The involution t_nu * w -> w^(-1) * t_nu."""
    wi = weyl_inv(x.w)
    return ExtAffine(wi.act(x.nu), wi)


def _base_image(w: FiniteWeyl) -> tuple[int, int]:
    img = w.act(Weight(BASE_ALCOVE.x, BASE_ALCOVE.y, 0))
    return img.a, img.b


# w(BASE_ALCOVE) by the index of w
_BASE_IMAGES = tuple(_base_image(w) for w in W_ALL)


def alcove_of(x: ExtAffine) -> Alcove:
    bx, by = _BASE_IMAGES[x.w.index]
    nu = x.nu
    return Alcove(6 * nu.a + bx, 6 * nu.b + by)


@lru_cache(maxsize=None)
def length(x: ExtAffine) -> int:
    """Number of affine root hyperplanes separating the base alcove from
    its image: the sum of the image's |Shi coordinates|."""
    return alcove_length(alcove_of(x))


def dual_length(x: ExtAffine) -> int:
    """Length relative to the antidominant base alcove, whose Shi
    coordinates are all -1."""
    bx, by = _BASE_IMAGES[x.w.index]
    img = Alcove(6 * x.nu.a - bx, 6 * x.nu.b - by)
    return sum(abs(k + 1) for k in shi_coordinates(img))


# affine simple reflections: walls x - y = 0, y = 0, x + y = 1
S1 = finite(W_S1)
S2 = finite(W_S2)
S0 = ExtAffine(Weight(1, 1, -1), weyl_from_word("212"))
AFFINE_SIMPLES = (S0, S1, S2)

W0 = finite(W_LONG)
# highest element of the restricted range: w0 * t_(-eta)
HIGHEST_RESTRICTED = compose(W0, translation(-ETA))


def omega_class(x: ExtAffine) -> int:
    """Image in the length-zero quotient; kernel is the affine Weyl group."""
    return x.nu.a + x.nu.b + 2 * x.nu.c


def omega_split(x: ExtAffine) -> tuple[tuple[int, ...], ExtAffine]:
    """Greedy reduced word: x = S[i1] ... S[ik] * delta with length(delta) = 0."""
    word: list[int] = []
    cur = x
    n = length(cur)
    while n > 0:
        for i, s in enumerate(AFFINE_SIMPLES):
            nxt = compose(s, cur)
            if length(nxt) < n:
                word.append(i)
                cur, n = nxt, length(nxt)
                break
        else:
            raise AssertionError("positive length but no left descent: %r" % (x,))
    return tuple(word), cur


def omega_part(x: ExtAffine) -> ExtAffine:
    """The length-zero element of x's Omega-class: it fixes the base
    alcove."""
    return _element_at(BASE_ALCOVE, omega_class(x))


def in_omega(x: ExtAffine) -> bool:
    """Length zero: all Shi coordinates 0, so x fixes the base alcove."""
    return alcove_of(x) == BASE_ALCOVE


# --- Bruhat order -------------------------------------------------------

_BRUHAT_CACHE: dict[tuple[Alcove, Alcove], bool] = {}


# (w, w(BASE_ALCOVE)) by the residues of w(BASE_ALCOVE) mod 6: two w per
# residue pair, their images 6 apart in one coordinate
_BY_RESIDUE = {
    r: [(w, bx, by) for w, (bx, by) in zip(W_ALL, _BASE_IMAGES) if (bx % 6, by % 6) == r]
    for r in {(bx % 6, by % 6) for bx, by in _BASE_IMAGES}
}


def _element_at(a: Alcove, cls: int) -> ExtAffine:
    """The element of Omega-class cls (= a + b + 2c) mapping the base
    alcove to a: of the two candidate finite parts, whose translations
    differ in the parity of a + b, the one leaving cls - a - b even."""
    x, y = a
    for w, bx, by in _BY_RESIDUE[x % 6, y % 6]:
        na, nb = (x - bx) // 6, (y - by) // 6
        if (cls - na - nb) % 2 == 0:
            return ExtAffine(Weight(na, nb, (cls - na - nb) // 2), w)
    raise AssertionError("no element of class %d at %r" % (cls, a))


def bruhat_down_alcoves(
    gens: Sequence[ExtAffine], roots: Sequence[int] = range(4)
) -> dict[Alcove, ExtAffine]:
    """Each element Bruhat-below some generator, keyed by its alcove, in the
    order of the reflections of the given root directions (a Levi's coroot
    indices give the Levi's order).  A reflection shortens an element it
    multiplies on the left iff its wall separates the element's alcove from
    the base alcove (Humphreys, Reflection Groups and Coxeter Groups,
    5.9).  The order is graded (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2.2.6), so the down-set is the closure under covers, and each
    cover reflects in an outermost separating wall of its direction: the one
    nearest the alcove or the one nearest the base alcove.  A middle wall H,
    with a separating wall of its direction on each side, lowers the length
    by at least 3: the other walls separating r_H's alcove from the base
    pair up as {W, r_H W}, each pair meets the walls separating x's alcove,
    and H's two neighbours are one pair that both do.  Outermost walls alone
    make about 7 candidate alcoves per alcove kept, where every separating
    wall made about 20 (over Adm(a, b, 0), b <= a <= 11).  The generators'
    one Omega-class fixes each alcove's element, made and checked where the
    alcove is first reached.  No generators, no elements."""
    if not gens:
        return {}
    classes = {omega_class(g) for g in gens}
    assert len(classes) == 1, "generators in several Omega-classes: %r" % (gens,)
    (cls,) = classes
    dirs = [(i, _ROOT_VECS[i]) for i in roots]
    down = {alcove_of(g): g for g in gens}
    frontier = list(down)
    while frontier:
        nxt = []
        for x, y in frontier:
            vals = (x - y, y, x + y, x)
            for i, (va, vb) in dirs:
                t = vals[i]
                # the reflection in the wall 6m moves a by d = 6m - t times
                # the root; of the walls between a and the base alcove
                # (0 < t < 6), the nearest to a is d = -(t % 6) for t > 6
                # and (-t) % 6 for t < 0, the nearest to the base d = 6 - t
                # and -t, the same wall for 6 < t < 12 and -6 < t < 0;
                # plain tuples, equal to Alcoves, are cheaper
                if t > 6:
                    ds = (6 - t,) if t < 12 else (-(t % 6), 6 - t)
                elif t < 0:
                    ds = (-t,) if t > -6 else (-t % 6, -t)
                else:
                    continue
                for d in ds:
                    q = (x + d * va, y + d * vb)
                    if q not in down:
                        z = down[q] = _element_at(q, cls)
                        # alcove_of(z) == q, inline: no call, no Alcove
                        assert _BASE_IMAGES[z.w.index] == (q[0] - 6 * z.nu.a, q[1] - 6 * z.nu.b)
                        nxt.append(q)
        frontier = nxt
    return down


def bruhat_down_set(gens: Sequence[ExtAffine], roots: Sequence[int] = range(4)) -> frozenset:
    """The elements of bruhat_down_alcoves, without their alcoves."""
    return frozenset(bruhat_down_alcoves(gens, roots).values())


def bruhat_leq(x: ExtAffine, y: ExtAffine) -> bool:
    """Bruhat order on the extended group; different cosets are incomparable."""
    if omega_class(x) != omega_class(y):
        return False
    return _bruhat_leq_coset(alcove_of(x), alcove_of(y))


def _bruhat_leq_coset(a: Alcove, b: Alcove) -> bool:
    """Bruhat order on the alcoves of one coset, by the lifting property
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.2): for s
    shortening b, a <= b iff min(a, sa) <= sb.  Left multiplication by S0,
    S1, S2 reflects an alcove in the walls x + y = 6, x = y, y = 0, and
    shortens it iff the wall separates it from the base alcove (3, 1).
    Each step lowers b's length by 1, so the loop ends once a is no
    shorter than b; only the queried pair is cached."""
    la, lb = alcove_length(a), alcove_length(b)
    if la >= lb:
        return a == b
    key = (a, b)
    cached = _BRUHAT_CACHE.get(key)
    if cached is not None:
        return cached
    ax, ay = a
    bx, by = b
    while la < lb:
        if bx + by > 6:
            bx, by = 6 - by, 6 - bx
            if ax + ay > 6:
                ax, ay = 6 - ay, 6 - ax
                la -= 1
        elif bx < by:
            bx, by = by, bx
            if ax < ay:
                ax, ay = ay, ax
                la -= 1
        else:
            by = -by
            if ay < 0:
                ay = -ay
                la -= 1
        lb -= 1
    res = _BRUHAT_CACHE[key] = ax == bx and ay == by
    return res


def bruhat_lower_interval(y: ExtAffine) -> frozenset[ExtAffine]:
    """All x <= y."""
    return bruhat_down_set((y,))


def bruhat_leq_oracle(x: ExtAffine, y: ExtAffine) -> bool:
    """x <= y by subword products of one reduced word of y: shares no
    code with the reflection closure or the descent recursion."""
    word, delta = omega_split(y)
    prods: set[ExtAffine] = {IDENTITY}
    for i in word:
        s = AFFINE_SIMPLES[i]
        prods |= {compose(q, s) for q in prods}
    return x in {compose(q, delta) for q in prods}


def coset_ball(delta: ExtAffine, max_len: int) -> frozenset[ExtAffine]:
    """All elements of W_aff * delta with length <= max_len."""
    seen = {delta}
    frontier = [delta]
    while frontier:
        nxt = []
        for x in frontier:
            for s in AFFINE_SIMPLES:
                y = compose(s, x)
                if length(y) <= max_len and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


# --- upper arrow order --------------------------------------------------


def upper_arrow_leq_alcove(a: Alcove, b: Alcove) -> bool:
    """Decide a arrow-below b exactly, depth-first over single arrow steps.

    A step reflects an alcove in a wall above it along one of the four
    positive roots, moving it by k = 6m - t > 0 times the root, where t is
    the functional value and 6m the wall: k = 6 - t % 6, then 6 more per
    wall.  Each step moves the barycenter by a positive multiple of a
    positive root, so x and x+y never decrease: every chain from a to b
    stays in the finite rectangle a.x <= x <= b.x, a.x+a.y <= x+y <=
    b.x+b.y, and False comes only after every alcove reachable there was
    visited.  Depth-first follows one chain toward b's corner before the
    others; breadth-first would first visit every alcove fewer steps from
    a than b.
    """
    if a == b:
        return True
    ex, ey = b
    s_max = ex + ey
    x, y = a
    if x > ex or x + y > s_max:
        return False
    # plain tuples, equal to Alcoves, are cheaper to make
    seen = {(x, y)}
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        for t, va, vb in ((x - y, 1, -1), (y, 0, 2), (x + y, 1, 1), (x, 2, 0)):
            k = 6 - t % 6
            qx, qy = x + k * va, y + k * vb
            while qx <= ex and qx + qy <= s_max:
                if qx == ex and qy == ey:
                    return True
                if (qx, qy) not in seen:
                    seen.add((qx, qy))
                    stack.append((qx, qy))
                qx += 6 * va
                qy += 6 * vb
    return False


def upper_arrow_leq(x: ExtAffine, y: ExtAffine) -> bool:
    """Arrow order on elements: same length-zero part, alcoves arrow-related."""
    if omega_class(x) != omega_class(y):
        return False
    return upper_arrow_leq_alcove(alcove_of(x), alcove_of(y))


def arrow_down_region(b: Alcove, min_x: int, min_s: int) -> frozenset[Alcove]:
    """All alcoves a arrow-below b with a.x >= min_x and a.x+a.y >= min_s
    (bounds in the units of Alcove.x).

    Along any arrow chain both x and x+y are monotone, so every chain
    from such an a to b stays inside the rectangle [min_x, b.x] x
    [min_s, b.x+b.y]; the downward search over that rectangle is
    therefore complete, not just a truncation.
    """
    result = {b}
    frontier = [b]
    while frontier:
        nxt = []
        for c in frontier:
            x, y = c
            for t, (va, vb) in zip(functional_values(c), _ROOT_VECS):
                # the wall 6m below t: k = 6m - t = -((t - 1) % 6 + 1),
                # then 6 less per wall
                k = -((t - 1) % 6 + 1)
                while True:
                    qx, qy = x + k * va, y + k * vb
                    if qx < min_x or qx + qy < min_s:
                        break
                    q = Alcove(qx, qy)
                    if q not in result:
                        result.add(q)
                        nxt.append(q)
                    k -= 6
        frontier = nxt
    return frozenset(result)


def is_dominant_alcove(a: Alcove) -> bool:
    return a.x > a.y > 0


def dominant_down_set(b: Alcove) -> frozenset[Alcove]:
    """Dominant alcoves arrow-below b.

    Finite, with no truncation: a dominant alcove has x > 0 and
    x + y > 0, and chains keep those bounds.
    """
    if not is_dominant_alcove(b):
        return frozenset()
    region = arrow_down_region(b, 0, 0)
    return frozenset(a for a in region if is_dominant_alcove(a))


# --- locating alcoves and weights ---------------------------------------


def weight_alcove(lam: Weight, p: int) -> Alcove:
    """The alcove holding (lam+eta)/p, by arithmetic on X, Y, the first two
    coordinates of lam + eta.  The walls at multiples of p cut each p-square
    [a, a+1] x [b, b+1] (in units of p) by its two diagonals into four
    alcoves: bottom, right, top and left (Jantzen, Representations of
    Algebraic Groups, II.6)."""
    mu = lam + ETA
    x, y = mu.a, mu.b
    if (x - y) % p == 0 or y % p == 0 or (x + y) % p == 0 or x % p == 0:
        raise ValueError("weight %r lies on a wall for p=%d" % (tuple(lam), p))
    a, b = x // p, y // p
    above = x - y < (a - b) * p
    beyond = x + y > (a + b + 1) * p
    if above:
        return Alcove(6 * a + 3, 6 * b + 5) if beyond else Alcove(6 * a + 1, 6 * b + 3)
    return Alcove(6 * a + 5, 6 * b + 3) if beyond else Alcove(6 * a + 3, 6 * b + 1)


def locate_weight(lam: Weight, p: int) -> ExtAffine:
    """u in the affine Weyl group with (lam+eta)/p inside u(base alcove)."""
    return elem_of_alcove(weight_alcove(lam, p))


def elem_of_alcove(a: Alcove) -> ExtAffine:
    """The affine Weyl group element (Omega-class 0) mapping the base
    alcove to a."""
    return _element_at(a, 0)


def is_restricted_alcove(a: Alcove) -> bool:
    x, y = a
    return 0 < x - y < 6 and 0 < y < 6


# the four restricted alcoves from the base alcove up: each is the one
# before reflected in the wall <., alpha_i^vee> = m, for (i, m) = (2, 1),
# (3, 1), (2, 2) in the order of POSITIVE_ROOTS (the tests derive them)
RESTRICTED_ALCOVES = (Alcove(3, 1), Alcove(5, 3), Alcove(7, 3), Alcove(9, 5))


def restricted_alcove_index(a: Alcove) -> int | None:
    try:
        return RESTRICTED_ALCOVES.index(a)
    except ValueError:
        return None


def is_restricted_element(x: ExtAffine) -> bool:
    return is_restricted_alcove(alcove_of(x))


def is_dominant_element(x: ExtAffine) -> bool:
    return is_dominant_alcove(alcove_of(x))


def diamond(w: FiniteWeyl) -> ExtAffine:
    """The unique restricted t_(a,b,0) * w.  Its alcove (6a + bx, 6b + by),
    with (bx, by) = w(BASE_ALCOVE), is restricted when 0 < 6b + by < 6 and
    0 < 6(a - b) + bx - by < 6; by and bx - by are never multiples of 6."""
    bx, by = _BASE_IMAGES[w.index]
    b = -(by // 6)
    return ExtAffine(Weight(b - (bx - by) // 6, b, 0), w)


# --- dot action ----------------------------------------------------------


def p_dot(x: ExtAffine, lam: Weight, p: int) -> Weight:
    """(t_nu w) . lam = w(lam + eta) + p*nu - eta."""
    return x.w.act(lam + ETA) + x.nu.scale(p) - ETA


def orbit_weight(lam: Weight, p: int, target: ExtAffine) -> Weight:
    """The linkage orbit point of lam lying in target's alcove."""
    u = locate_weight(lam, p)
    move = compose(target, invert(u))
    res = p_dot(move, lam, p)
    assert weight_alcove(res, p) == alcove_of(target)
    return res


def weight_alcove_index(lam: Weight, p: int) -> int | None:
    """Index of the restricted alcove containing (lam+eta)/p, if any."""
    return restricted_alcove_index(weight_alcove(lam, p))


def weight_arrow_leq(kappa: Weight, lam: Weight, p: int) -> bool:
    """kappa arrow-below lam in the p-dilated linkage order."""
    a, b = weight_alcove(kappa, p), weight_alcove(lam, p)
    if p_dot(compose(elem_of_alcove(b), invert(elem_of_alcove(a))), kappa, p) != lam:
        return False
    return upper_arrow_leq_alcove(a, b)
