"""Slow reference implementations that the fast paths are tested against.

- Weyl words act letter by letter through the coordinate formulas of the
  simple reflections; the library's group tables must agree with them.
  Depth and genericity are read off their definitions by root pairings.
- Alcoves are exact rational barycenters (the base alcove has barycenter
  (1/2, 1/6)), and lengths count the root hyperplanes strictly between
  two barycenters; the library's alcoves are these barycenters scaled by
  6, and its lengths come from Shi coordinates.  The diamond of w is
  found by searching t_(a,b,0) * w for a restricted barycenter.
- Central characters are reduced by the row Hermite normal form of the
  lattice of shifts p*e_k - e_(k-1 mod f); the library reads the class
  off as one integer mod p^f - 1.

Apart from the integer-alcove references, nothing here reads the
library's action matrices or integer alcoves: finite parts act through
their words.  The folding oracle composes the affine simple reflections
with the library's `compose`, whose products the table tests check.
- F_tau and F_rhobar evaluate every pair tuple in full through
  `serre_weight_of_presentation`, the definition of the weight of one
  lowest alcove presentation, with the p-dot action through words and
  restrictedness read off barycenters; the library's slot-wise kernel
  must give the same tables, the same intersections and the same errors.
  The alcove shift maps the JH set of a parameter's reduction onto its
  predicted set, and Herzig's R does too, pair by pair through the
  measured table PHI.
- Single arrow steps and the Bruhat descent recursion are also kept on
  integer alcoves (barycenters scaled by 6), written with this file's
  reflection formula and wall counts: the library's arrow search inlines
  the steps, and it runs the descent as a loop with one cache entry per
  query, where the recursion here makes one call per step and caches
  nothing.  The Bruhat down-set closure is kept here on integer alcoves
  too, stepping through every separating wall; the library steps only
  through the two outermost walls of each root direction, which are
  the only ones a cover can reflect in.  The truncated down-set
  `box_down_set` is read off the library's downward search
  `arrow_down_region`, which the tests check against a wider search.
- The bottom-alcove companion of a second-alcove weight is searched for
  among its orbit points in all four restricted alcoves, with alcoves and
  the arrow order read off folded barycenters; the library takes the one
  orbit point in the bottom alcove.
- The irregular colength-one elements of Adm(eta) come from their
  diamond-conjugation formula, with Adm by subword products and
  regularity read off barycenters; the library splits the colength-one
  part of its Adm(eta) by integer alcoves.
- Primality is trial division; the library runs deterministic
  Miller-Rabin.
- A Laurent product is the schoolbook sum over every pair of terms, and
  a matrix product sums those per entry; the library multiplies both, over
  either field, by Kronecker substitution.  Determinants and adjugates are
  cofactor expansions, and the similitude form transpose(A) * J * A is
  two such matrix products; the library reads all three off 2 x 2 minors
  of the entries packed into integers.
- The regular colength-one family matrix is built from constant
  polynomials, E(v) = v + p and their products and sums; the library
  writes each entry's coefficients in closed form.
- The monodromy condition is read by matrix algebra: v * dA/dv + A * Diag
  by a scalar multiple, a product with the diagonal matrix and a sum,
  then a product with the cofactor adjugate, and X^t J + J X by two
  products and a sum.  The library scales each entry's v^k term by
  k + d_j, takes one product with the adjugate, and reads X^t J + J X as
  S - S^t for S = X^t J.
- E(v)-elementary divisors come from the determinantal divisors: the
  minimum E-valuation of the k x k minors, over all 69 minors of a 4 x 4
  matrix.  Iwahori shapes come from valuation-pivot elimination at the
  full precision val(det) + (largest degree) + 4 with exact series
  division.  The library's local elimination kernel, which works at
  precision val(det) + 1, must give the same patterns and shapes.
- A random Iwahori element is the product of the diagonal torus part with
  one 4 x 4 root-group matrix per nonzero draw; the sampler in
  `crosschecks.py`, which applies each factor as column operations, must
  give the same matrix from the same draws.

Checks that are built from the library's own maps live in
`crosschecks.py`, so that everything here stays a definition.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from dataclasses import dataclass

from gsp4weights.base import ETA, POSITIVE_COROOTS, W_ALL, W_LONG, Coweight, Weight, pairing
from gsp4weights.affine import (
    HIGHEST_RESTRICTED,
    IDENTITY,
    S0,
    S1,
    S2,
    W0,
    ExtAffine,
    arrow_down_region,
    compose,
    finite,
    invert,
    translation,
)
from gsp4weights.exactalg import QQ, LaurentPoly, PrimeField, RatFunc, divmod_poly
from gsp4weights.localmodel import (
    MonodromyDefect,
    PolyMat,
    RegColOneParams,
    e_poly,
    weyl_matrix,
)
from gsp4weights.weights import (
    APPair,
    GenericityError,
    SerreWeight,
    TamePresentation,
    enumerate_ap,
    enumerate_ap_prime,
)


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


def std_coweight(cov: Coweight) -> tuple[int, int, int, int]:
    """Exponents of the diagonal entries of the cocharacter (d, e; f)."""
    return (cov.d, cov.e, cov.f - cov.e, cov.f - cov.d)


# --- depth and genericity by their definitions ----------------------------


def is_m_deep(lam: Weight, p: int, m: int) -> bool:
    """Whether lam lies m-deep in its alcove (relative to the shifted origin).

    For each positive root there must be an integer k with
    p*k + m < <lam + eta, coroot> < p*(k + 1) - m.
    """
    if m < 0:
        raise ValueError("depth must be nonnegative")
    for cov in POSITIVE_COROOTS:
        v = pairing(lam + ETA, cov)
        if not any(p * k + m < v < p * (k + 1) - m for k in range(v // p - 1, v // p + 2)):
            return False
    return True


def is_m_generic(lam: Weight, p: int, m: int) -> bool:
    """Whether |<lam, coroot> + p*k| > m for every root and integer k."""
    if m < 0:
        raise ValueError("genericity bound must be nonnegative")
    for cov in POSITIVE_COROOTS:
        v = pairing(lam, cov)
        for sv in (v, -v):
            k0 = -sv // p
            for k in range(k0 - 1, k0 + 2):
                if abs(sv + p * k) <= m:
                    return False
    return True


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


def diamond(w) -> ExtAffine:
    """The unique restricted t_(a,b,0) * w, by search over a, b in [-4, 4]."""
    found = [x for a, b in itertools.product(range(-4, 5), repeat=2)
             if is_restricted(x := ExtAffine(Weight(a, b, 0), w))]
    assert len(found) == 1, (w, found)
    return found[0]


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


# --- integer alcoves: arrow steps and the Bruhat descent ----------------
#
# An integer alcove is a barycenter scaled by 6, so the wall
# <., alpha^vee> = m is the functional value 6m and `_reflect` moves an
# integer alcove to an integer alcove when given 6m.


def up_step_targets(a, x_max: int, s_max: int):
    """Single arrow steps from the integer alcove a, each in a wall above
    a, pruned by x <= x_max and x + y <= s_max."""
    for i, t in enumerate(functionals(a)):
        m = 6 * (t // 6 + 1)
        while True:
            q = _reflect(a, i, m)
            if q[0] > x_max or q[0] + q[1] > s_max:
                break
            yield q
            m += 6


def box_down_set(b, radius: int) -> frozenset:
    """Integer alcoves arrow-below b whose barycenter has all four
    functional values in [-radius, radius] (radius in walls, not in
    Alcove units).

    The full arrow down-set is infinite; the box is its truncation.  It is
    exact: box alcoves have x, x+y >= -6 radius, and arrow chains never
    lower either, so the library's downward search to that bound finds all.
    """
    r = 6 * radius
    if not all(abs(v) <= r for v in functionals(b)):
        raise ValueError("target alcove outside the search box")
    region = arrow_down_region(b, -r, -r)
    return frozenset(a for a in region if all(abs(v) <= r for v in functionals(a)))


def alcove_length(a) -> int:
    """Walls between the base alcove and the integer alcove a: per root
    direction, the multiples of 6 strictly between their functional
    values, the base's (2, 1, 4, 3) all lying in (0, 6)."""
    return sum([abs(t // 6) for t in functionals(a)])


# (root index, scaled wall) of the walls of S0, S1, S2: x + y = 6, x = y, y = 0
_SIMPLE_WALLS = ((2, 6), (0, 0), (1, 0))


def bruhat_leq_descent(a, b) -> bool:
    """Bruhat order on the integer alcoves of one coset by the descent
    recursion, one call per step: for a simple reflection s shortening b,
    a <= b iff min(a, sa) <= sb (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2.2)."""
    return _descent(a, b, alcove_length(a), alcove_length(b))


def _descent(a, b, la: int, lb: int) -> bool:
    if a == b:
        return True
    if la >= lb:
        return False
    for i, m in _SIMPLE_WALLS:
        sb = _reflect(b, i, m)
        if alcove_length(sb) < lb:
            break
    else:
        raise AssertionError("positive length but no descent: %r" % (b,))
    sa = _reflect(a, i, m)
    lsa = alcove_length(sa)
    if lsa < la:
        return _descent(sa, sb, lsa, lb - 1)
    return _descent(a, sb, la, lb - 1)


def every_wall_down_set(alcoves, roots=range(4)) -> frozenset:
    """Integer alcoves Bruhat-below some given one, closed under the
    reflections in every wall of the given root directions that separates
    an alcove from the base alcove: a reflection shortens an element it
    multiplies on the left iff its wall does, and chains of such steps
    reach exactly the elements below (Humphreys, Reflection Groups and
    Coxeter Groups, 5.9)."""
    dirs = [(i, _ROOT_VECS[i]) for i in roots]
    seen = set(alcoves)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x, y in frontier:
            vals = (x - y, y, x + y, x)
            for i, (va, vb) in dirs:
                t = vals[i]
                # the reflection in the wall 6m moves a by d = 6m - t times
                # the root, and the walls between a and the base alcove
                # (0 < t < 6) are 6 apart in d: d < 0 for t > 6, 0 < d <= -t
                # for t < 0
                if t > 6:
                    ds = range(6 - t, 0, 6)
                elif t < 0:
                    ds = range(-t % 6, 1 - t, 6)
                else:
                    continue
                for d in ds:
                    q = (x + d * va, y + d * vb)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
        frontier = nxt
    return frozenset(seen)


# --- Bruhat intervals by subword products ---------------------------------

AFFINE_SIMPLES = (S0, S1, S2)
LEVI_G = frozenset({0, 1})
# the positive coroot indices of each standard Levi, by its simple roots
LEVI_ROOTS = {frozenset(): (), frozenset({0}): (0,), frozenset({1}): (1,), LEVI_G: range(4)}


def levi_affine_simples(levi) -> tuple[ExtAffine, ...]:
    """Affine simple reflections of the Levi's own affine Weyl group,
    embedded in the ambient extended group."""
    if levi == LEVI_G:
        return AFFINE_SIMPLES
    out = []
    if 0 in levi:
        # wall <., alpha1^vee> = 0 and the opposite wall at level 1
        out += [S1, compose(translation(Weight(1, -1, 0)), S1)]
    if 1 in levi:
        out += [S2, compose(translation(Weight(0, 2, -1)), S2)]
    return tuple(out)


def levi_reduced_word(x: ExtAffine, levi) -> tuple[tuple[int, ...], ExtAffine]:
    """Greedy word x = s_i1 ... s_ik * delta in the Levi's affine simples,
    each letter lowering the count of hyperplanes of the Levi's root
    directions between the base alcove and its image; delta has count 0."""
    simples = levi_affine_simples(levi)
    roots = LEVI_ROOTS[levi]
    word: list[int] = []
    cur, n = x, length(x, roots)
    while n > 0:
        for i, s in enumerate(simples):
            nxt = compose(s, cur)
            if length(nxt, roots) < n:
                word.append(i)
                cur, n = nxt, length(nxt, roots)
                break
        else:
            raise AssertionError("no Levi descent at positive Levi length: %r" % (x,))
    return tuple(word), cur


def _subword_products(x: ExtAffine, levi) -> set[ExtAffine]:
    """Products of the subwords of one reduced word of x, built right to
    left so that the length-zero remainder stays fixed."""
    word, delta = levi_reduced_word(x, levi)
    simples = levi_affine_simples(levi)
    prods = {delta}
    for i in reversed(word):
        prods |= {compose(simples[i], q) for q in prods}
    return prods


def bruhat_lower_interval(y: ExtAffine) -> frozenset[ExtAffine]:
    return frozenset(_subword_products(y, LEVI_G))


def levi_adm_set(lam: Weight, levi) -> frozenset[ExtAffine]:
    """Levi-Bruhat down-set of the translations by the Levi's Weyl
    translates of lam; the Levi's Weyl group is read off the words."""
    letters = {str(i + 1) for i in levi}
    out: set[ExtAffine] = set()
    for w in W_ALL:
        if set(w.word) <= letters:
            out |= _subword_products(translation(word_act(w.word, lam)), levi)
    return frozenset(out)


def adm_set(lam: Weight) -> frozenset[ExtAffine]:
    return levi_adm_set(lam, LEVI_G)


# the vertices (0, 0), (1/2, 1/2) and (1, 0) of the base alcove, doubled
BASE_VERTICES = ((0, 0), (1, 1), (2, 0))


def perm_set(lam: Weight, vertices=BASE_VERTICES) -> frozenset[ExtAffine]:
    """Perm(lam), the vertexwise test (Kottwitz-Rapoport, Manuscripta
    Math. 2000): the x = t_nu w in t_lam's Omega-class, that is with nu -
    lam in the root lattice {(m, 2n - m, -n)}, such that x(v) - v lies in
    Conv(W lam), the octagon |x| <= a, |y| <= a, |x| + |y| <= a + b, for
    every vertex v.  In doubled integer coordinates, with w acting through
    its word; nu ranges over |nu_a|, |nu_b| <= a + 1, which holds every
    solution for any one vertex, as |w(v)| <= 1.  Adm(lam) is inside; that
    the two are equal is measured."""
    a, b, c = lam

    def inside(x, y):
        return abs(x) <= 2 * a and abs(y) <= 2 * a and abs(x) + abs(y) <= 2 * (a + b)

    moves = _vertex_moves(vertices)
    out = set()
    for na in range(-a - 1, a + 2):
        for nb in range(-a - 1, a + 2):
            m = na - a + nb - b
            if m % 2:
                continue
            nu = Weight(na, nb, c - m // 2)
            for w, ds in moves:
                if all(inside(2 * na + dx, 2 * nb + dy) for dx, dy in ds):
                    out.add(ExtAffine(nu, w))
    return frozenset(out)


def _vertex_moves(vertices):
    """Per finite w, the doubled w(v) - v of each vertex v."""
    moves = []
    for w in W_ALL:
        ia, ib = (word_act(w.word, e) for e in CHAR_BASIS[:2])
        moves.append((w, [(vx * ia.a + vy * ib.a - vx, vx * ia.b + vy * ib.b - vy)
                          for vx, vy in vertices]))
    return moves


def perm_count(lam: Weight, vertices=BASE_VERTICES) -> int:
    """|Perm(lam)| by `perm_set`'s vertexwise test, in O(a) steps: for each
    w and nu_a, the nu_b passing at vertex v form the interval |2 nu_b +
    dy| <= min(2a, 2(a + b) - |2 nu_a + dx|) (none once |2 nu_a + dx| >
    2a), for (dx, dy) the doubled w(v) - v.  The intervals of the vertices
    and |nu_b| <= a + 1 are intersected, and the nu_b in it whose parity
    keeps nu - lam in the root lattice are counted, not listed."""
    a, b, _ = lam
    total = 0
    for _, ds in _vertex_moves(vertices):
        for na in range(-a - 1, a + 2):
            lo, hi = -a - 1, a + 1
            for dx, dy in ds:
                x = abs(2 * na + dx)
                if x > 2 * a:
                    break
                r = min(2 * a, 2 * (a + b) - x)
                lo, hi = max(lo, -((r + dy) // 2)), min(hi, (r - dy) // 2)
            else:
                parity = (a + b - na) % 2  # nu_a - a + nu_b - b is even
                if lo <= hi:
                    total += (hi - parity) // 2 - (lo - 1 - parity) // 2
    return total


def irregular_family() -> frozenset[ExtAffine]:
    """The irregular colength-one elements of Adm(eta) by their formula
    (w_diamond)^(-1) * (highest restricted)^(-1) * w0 * s * w_diamond,
    over finite w and the simple s making the result irregular: some
    functional of its barycenter lies strictly between 0 and 1."""
    t_eta = compose(invert(HIGHEST_RESTRICTED), W0)
    adm = adm_set(ETA)
    out = set()
    for w in W_ALL:
        d = diamond(w)
        for s in (S1, S2):
            cand = compose(invert(d), compose(t_eta, compose(s, d)))
            if cand in adm and any(0 < v < 1 for v in functionals(barycenter(cand))):
                out.add(cand)
    return frozenset(out)


# --- central characters by Hermite normal form ----------------------------


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


def normalize_central(cs: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Central characters modulo the shifts p*e_k - e_(k-1 mod f): as
    e_k = p^(f-1-k) e_(f-1) and (p^f - 1) e_(f-1) = 0 modulo them, the class
    of cs is n = sum c_k p^(f-1-k) mod p^f - 1, stored in the last slot.
    The library folds the same n inside `SerreWeight._trusted`."""
    n = 0
    for c in cs:
        n = n * p + c
    return (0,) * (len(cs) - 1) + (n % (p ** len(cs) - 1),)


def normalize_central_hnf(cs: tuple[int, ...], p: int) -> tuple[int, ...]:
    """cs reduced by the HNF basis of the lattice of central shifts
    identified to zero, spanned by p*e_k - e_(k-1 mod f)."""
    f = len(cs)
    rows = []
    for k in range(f):
        v = [0] * f
        v[k] += p
        v[(k - 1) % f] -= 1
        rows.append(v)
    basis = _hnf_rows(rows)
    out = list(cs)
    for i in range(f):
        q = out[i] // basis[i][i]
        if q:
            out = [a - q * b for a, b in zip(out, basis[i])]
    return tuple(out)


# --- the weight of a lowest alcove presentation ---------------------------


@dataclass(frozen=True)
class LowestAlcovePresentation:
    w1: tuple[ExtAffine, ...]
    omega: tuple[Weight, ...]


def p_dot(x: ExtAffine, lam: Weight, p: int) -> Weight:
    """(t_nu w) . lam = w(lam + eta) + p*nu - eta, w acting through its word."""
    return word_act(x.w.word, lam + ETA) + x.nu.scale(p) - ETA


def restricted_elements() -> tuple[ExtAffine, ...]:
    """The affine Weyl group elements of the four restricted alcoves: the
    closure of the identity under right multiplication by S0, S1 and S2
    that stays restricted."""
    found = [IDENTITY]
    for x in found:
        for s in AFFINE_SIMPLES:
            y = compose(x, s)
            if is_restricted(y) and y not in found:
                found.append(y)
    assert len(found) == 4
    return tuple(found)


def weight_arrow_leq(kappa: Weight, lam: Weight, p: int) -> bool:
    """kappa arrow-below lam: linked by their folded elements, with
    arrow-related barycenters."""
    u, v = locate_weight(kappa, p), locate_weight(lam, p)
    if p_dot(compose(v, invert(u)), kappa, p) != lam:
        return False
    return upper_arrow_leq(barycenter(u), barycenter(v))


def lowest_companion(lam: Weight, p: int) -> Weight:
    """The restricted bottom-alcove orbit point arrow-below lam, by search:
    of lam's orbit points in the four restricted alcoves, exactly one may
    lie in the bottom alcove, be p-restricted and be arrow-below lam."""
    u = locate_weight(lam, p)
    candidates = []
    for t in restricted_elements():
        kappa = p_dot(compose(t, invert(u)), lam, p)
        if (
            barycenter(locate_weight(kappa, p)) == BASE
            and all(0 <= pairing(kappa, cov) < p for cov in POSITIVE_COROOTS[:2])
            and weight_arrow_leq(kappa, lam, p)
        ):
            candidates.append(kappa)
    if len(candidates) != 1:
        raise AssertionError(
            "expected a unique bottom-alcove companion, found %d" % len(candidates)
        )
    return candidates[0]


def serre_weight_of_presentation(pres: LowestAlcovePresentation, p: int) -> SerreWeight:
    """F of a presentation: part j is w1[j - 1] . (omega[j] - eta), where
    omega - eta lies inside the lowest alcove and each w1 is restricted."""
    parts = []
    for j, omega in enumerate(pres.omega):
        if not all(0 < pairing(omega, cov) < p for cov in POSITIVE_COROOTS):
            raise GenericityError("omega - eta must lie inside the lowest alcove")
        y = pres.w1[j - 1]
        if not is_restricted(y):
            raise ValueError("presentation element is not restricted")
        lam = p_dot(y, omega - ETA, p)
        if not all(0 <= pairing(lam, cov) < p for cov in POSITIVE_COROOTS[:2]):
            raise ValueError("presentation out of range")
        parts.append(lam)
    return SerreWeight.make(p, tuple(parts))


def presentation_of(sigma: SerreWeight) -> LowestAlcovePresentation:
    """The canonical lowest alcove presentation of a weight whose parts
    sit inside open restricted alcoves: w1[j] is the element of the alcove
    of part j + 1, with its c-coordinate dropped."""
    p = sigma.p
    u = [locate_weight(lam, p) for lam in sigma.parts]
    if not all(is_restricted(x) for x in u):
        raise ValueError("weight part outside the open restricted range")
    w1 = tuple(ExtAffine(Weight(x.nu.a, x.nu.b, 0), x.w) for x in u[1:] + u[:1])
    omega = tuple(ETA + p_dot(invert(w1[j - 1]), lam, p) for j, lam in enumerate(sigma.parts))
    pres = LowestAlcovePresentation(w1, omega)
    assert serre_weight_of_presentation(pres, p) == sigma
    return pres


def is_regular_weight(sigma: SerreWeight) -> bool:
    """Every part pairs to less than p - 1 with both simple coroots."""
    return all(pairing(lam, POSITIVE_COROOTS[i]) < sigma.p - 1
               for lam in sigma.parts for i in (0, 1))


def alcove_shift(sigma: SerreWeight) -> SerreWeight:
    """The bijection F(lam) -> F(highest_restricted . lam) on regular weights."""
    if not is_regular_weight(sigma):
        raise ValueError("alcove shift is only defined for regular weights")
    return SerreWeight.make(sigma.p, tuple(p_dot(HIGHEST_RESTRICTED, lam, sigma.p)
                                           for lam in sigma.parts))


def alcove_shift_inv(sigma: SerreWeight) -> SerreWeight:
    out = SerreWeight.make(sigma.p, tuple(p_dot(invert(HIGHEST_RESTRICTED), lam, sigma.p)
                                          for lam in sigma.parts))
    if not is_regular_weight(out):
        raise ValueError("inverse alcove shift left the regular range")
    return out


def param_of_reduction(rhobar: TamePresentation) -> TamePresentation:
    """The type presentation with the same data as a parameter."""
    return TamePresentation.make("type", rhobar.s, rhobar.mu, rhobar.p)


def predicted_set_via_shift(rhobar: TamePresentation) -> frozenset[SerreWeight]:
    """The predicted set as the alcove shift of the JH set of the reduction."""
    return frozenset(alcove_shift(s) for s in jh_factors(param_of_reduction(rhobar)).values())


def herzig_r(sigma: SerreWeight, w=W_LONG, shift: int = 1) -> SerreWeight:
    """Herzig's operator R on a Serre weight, part by part:
    R(lam) = w0 . (lam - p eta) = w0 (lam - p eta + eta) - eta.  `w` and
    `shift` replace w0 and the -p eta shift, for negative controls."""
    return SerreWeight.make(sigma.p, tuple(w.act(lam - ETA.scale(shift * sigma.p) + ETA) - ETA
                                           for lam in sigma.parts))


# Herzig's R pair by pair: one fixed bijection phi from the 20 per-embedding
# AP pairs (x, y) onto the 20 AP' pairs, with R(JH(tau_rhobar)[P]) equal
# to W?(rhobar)[phi(P)].  It is a measured table, not a derived one; an
# element t_nu * w is written (nu, word of w).
PHI = {
    (((0, 0, 0), ""), ((1, 0, -2), "121")): (((1, 0, 1), "121"), ((2, 1, 0), "1212")),
    (((0, 0, 0), ""), ((1, 0, -2), "12")): (((1, 0, 1), "12"), ((2, 1, 0), "1212")),
    (((0, 0, 0), ""), ((1, 0, -2), "1")): (((1, 0, 1), "1"), ((2, 1, 0), "1212")),
    (((0, 0, 0), ""), ((2, 1, -3), "1212")): (((2, 1, 0), "1212"), ((2, 1, 0), "1212")),
    (((1, 0, 0), "121"), ((0, 0, -1), "")): (((0, 0, 1), ""), ((1, 1, 0), "2")),
    (((1, 0, 0), "121"), ((1, 1, -2), "212")): (((1, 1, 0), "212"), ((1, 1, 0), "2")),
    (((1, 0, 0), "121"), ((1, 1, -2), "21")): (((1, 1, 0), "21"), ((1, 1, 0), "2")),
    (((1, 0, 0), "121"), ((1, 1, -2), "2")): (((1, 1, 0), "2"), ((1, 1, 0), "2")),
    (((1, 0, 0), "12"), ((0, 0, -1), "")): (((0, 0, 1), ""), ((1, 1, 0), "21")),
    (((1, 0, 0), "12"), ((1, 1, -2), "212")): (((1, 1, 0), "212"), ((1, 1, 0), "21")),
    (((1, 0, 0), "12"), ((1, 1, -2), "21")): (((1, 1, 0), "21"), ((1, 1, 0), "21")),
    (((1, 1, 0), "212"), ((1, 0, -1), "121")): (((1, 0, 0), "121"), ((1, 0, 0), "1")),
    (((1, 1, 0), "212"), ((1, 0, -1), "12")): (((1, 0, 0), "12"), ((1, 0, 0), "1")),
    (((1, 1, 0), "212"), ((1, 0, -1), "1")): (((1, 0, 0), "1"), ((1, 0, 0), "1")),
    (((1, 0, 0), "1"), ((0, 0, -1), "")): (((0, 0, 1), ""), ((1, 1, 0), "212")),
    (((1, 0, 0), "1"), ((1, 1, -2), "212")): (((1, 1, 0), "212"), ((1, 1, 0), "212")),
    (((1, 1, 0), "21"), ((1, 0, -1), "121")): (((1, 0, 0), "121"), ((1, 0, 0), "12")),
    (((1, 1, 0), "21"), ((1, 0, -1), "12")): (((1, 0, 0), "12"), ((1, 0, 0), "12")),
    (((1, 1, 0), "2"), ((1, 0, -1), "121")): (((1, 0, 0), "121"), ((1, 0, 0), "121")),
    (((2, 1, 0), "1212"), ((0, 0, 0), "")): (((0, 0, 0), ""), ((0, 0, 0), "")),
}


# The witness map of the weight graph: an instance (pair, (i, j)) has
# sigma2 at its pair's AP' index tuple with slot j replaced by T[k_j, i],
# k_j the index of the pair's single at slot j in enumerate_ap_prime(1).
# Measured, not proven, as PHI is.  OBVIOUS holds the indices of the
# diagonal singles (w1 == w2), where the obvious weights sit.
T = {
    (0, 1): 14, (0, 2): 18,
    (1, 1): 15,
    (2, 1): 4,
    (3, 1): 5,
    (4, 1): 16, (4, 2): 19,
    (5, 1): 17,
    (6, 1): 0,
    (7, 1): 1,
    (8, 1): 18, (8, 2): 11,
    (9, 1): 0, (9, 2): 12,
    (10, 1): 1, (10, 2): 4,
    (11, 1): 19, (11, 2): 8,
    (12, 1): 4, (12, 2): 9,
    (13, 1): 5, (13, 2): 0,
    (14, 1): 0, (14, 2): 16,
    (15, 1): 1, (15, 2): 4,
    (16, 1): 4, (16, 2): 14,
    (17, 1): 5, (17, 2): 0,
    (18, 1): 8, (18, 2): 0,
    (19, 1): 11, (19, 2): 4,
}
OBVIOUS = frozenset({0, 4, 8, 11, 14, 16, 18, 19})


def phi_map(table=PHI):
    """phi on pair tuples of any f, slot by slot, read off a table shaped
    like PHI (a negative control passes a corrupted one)."""
    by_word = {w.word: w for w in W_ALL}

    def elem(nu, word):
        return ExtAffine(Weight(*nu), by_word[word])

    single = {(elem(*x), elem(*y)): (elem(*u), elem(*v)) for (x, y), (u, v) in table.items()}

    def phi(pair: APPair) -> APPair:
        images = [single[xy] for xy in zip(pair.w1, pair.w2)]
        return APPair(tuple(u for u, _ in images), tuple(v for _, v in images))

    return phi


# --- the weight maps by brute force ---------------------------------------


def _weight_table(pres, kind, pairs, theta_of, dot_by, min_depth):
    if pres.kind != kind:
        raise ValueError("expected a %s presentation" % kind)
    if pres.depth() < min_depth:
        raise GenericityError("presentation is too shallow")
    wt = pres.w_tilde()
    out = {}
    for pair in pairs:
        omega = tuple(
            compose(a, invert(b)).nu for a, b in zip(wt, theta_of(pair), strict=True)
        )
        out[pair] = serre_weight_of_presentation(
            LowestAlcovePresentation(dot_by(pair), omega), pres.p
        )
    return out


def jh_factors(tau, min_depth=3):
    """F_tau on every AP pair tuple: theta from w2, the p-dot by w1."""
    return _weight_table(tau, "type", enumerate_ap(tau.f),
                         lambda pr: pr.w2, lambda pr: pr.w1, min_depth)


def w_question(rhobar, min_depth=3):
    """F_rhobar on every AP' pair tuple: theta from w1, the p-dot by w2."""
    return _weight_table(rhobar, "param", enumerate_ap_prime(rhobar.f),
                         lambda pr: pr.w1, lambda pr: pr.w2, min_depth)


def intersect_w_jh(rhobar, tau, min_depth=3):
    return (frozenset(w_question(rhobar, min_depth).values())
            & frozenset(jh_factors(tau, min_depth).values()))


# --- primality by trial division


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- local models by determinantal divisors and full-precision elimination


def minor_det(rows):
    """Cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j in range(len(rows)):
        term = rows[0][j] * minor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = term.scale(-1)
        acc = term if acc is None else acc + term
    return acc


def v_power(field, k: int) -> LaurentPoly:
    return LaurentPoly(field, {k: 1})


def diagonal(field, values) -> PolyMat:
    """The diagonal matrix of four Laurent polynomials or scalars."""
    return PolyMat.make(field, [[values[i] if i == j else 0 for j in range(4)] for i in range(4)])


def identity(field) -> PolyMat:
    return diagonal(field, (1, 1, 1, 1))


def mat_scale(A: PolyMat, c) -> PolyMat:
    """A * c, entry by entry, for a Laurent polynomial or scalar c."""
    c = c if isinstance(c, LaurentPoly) else LaurentPoly.const(A.field, c)
    return PolyMat.make(A.field, [[laurent_mul(c, e) for e in row] for row in A.rows])


def transpose(A: PolyMat) -> PolyMat:
    return PolyMat(A.field, tuple(zip(*A.rows)))


def j_matrix(field) -> PolyMat:
    """The symplectic form: antidiagonal (1, 1, -1, -1), by row."""
    return PolyMat.make(field, [[sign if j == 3 - i else 0 for j in range(4)]
                                for i, sign in enumerate((1, 1, -1, -1))])


def mat_add(A: PolyMat, B: PolyMat) -> PolyMat:
    return PolyMat.make(A.field, [[a + b for a, b in zip(ra, rb)]
                                  for ra, rb in zip(A.rows, B.rows)])


def laurent_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Schoolbook product: every pair of terms, accumulated per exponent
    with the scalars' own operators and reduced mod q once per exponent."""
    acc = {}
    for e1, c1 in a.coeffs:
        for e2, c2 in b.coeffs:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    q = a.field.char
    return LaurentPoly(a.field, [(e, c % q if q else c) for e, c in acc.items()])


def laurent_pow(a: LaurentPoly, n: int) -> LaurentPoly:
    """a^n by repeated products; for n < 0, a must be a monomial c*v^e
    and a^n is the n-th power of its inverse c^-1 * v^-e."""
    if n < 0:
        (e, c), = a.coeffs
        a, n = LaurentPoly(a.field, {-e: a.field.inv(c)}), -n
    out = LaurentPoly.one(a.field)
    for _ in range(n):
        out = laurent_mul(out, a)
    return out


def matmul(A: PolyMat, B: PolyMat) -> PolyMat:
    """Schoolbook product: entry (i, j) sums laurent_mul(A[i][k], B[k][j])
    over the k where neither factor is zero."""
    return PolyMat.make(A.field, [[sum((laurent_mul(A.rows[i][k], B.rows[k][j]) for k in range(4)
                                        if A.rows[i][k] and B.rows[k][j]),
                                       LaurentPoly.zero(A.field)) for j in range(4)]
                                  for i in range(4)])


def cofactor_adjugate(A: PolyMat) -> PolyMat:
    """adj(A)[j][i] = (-1)^(i+j) times the determinant of A without row i
    and column j, each by cofactor expansion."""
    rows = [list(r) for r in A.rows]
    out = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            cof = minor_det([r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
            out[j][i] = cof.scale(-1) if (i + j) % 2 else cof
    return PolyMat.make(A.field, out)


def similitude_form(A: PolyMat):
    """(c, None) when S = transpose(A) * J * A equals c * J for c = S[0][3],
    else (None, (i, j)) with the first entry in row-major order of all 16
    where they differ."""
    J = j_matrix(A.field)
    S = matmul(matmul(transpose(A), J), A)
    c = S.rows[0][3]
    for i in range(4):
        for j in range(4):
            if S.rows[i][j] != c * J.rows[i][j]:
                return None, (i, j)
    return c, None


def monodromy_defect_oracle(A: PolyMat, params):
    """The algebraic monodromy condition by matrix algebra: X = (v + p) *
    (v * dA/dv + A * Diag) * adj(A) / det(A), with Diag the diagonal matrix
    of the parameters' values, and transpose(X) * J + J * X by two
    products and a sum; the clauses, their order and their messages are
    the library's."""
    if A.field != params.field:
        raise TypeError("matrix and parameters live over different fields")
    field = A.field
    ep = e_poly(field, params.p)
    det = minor_det(A.rows)
    if det.is_zero:
        raise ValueError("matrix is singular")
    deriv = PolyMat.make(field, [[e.derivative() for e in row] for row in A.rows])
    twisted = mat_add(mat_scale(deriv, v_power(field, 1)),
                      matmul(A, diagonal(field, params.diag_values())))
    num = matmul(twisted, cofactor_adjugate(A))
    x = [[RatFunc.make(laurent_mul(ep, e), det) for e in row] for row in num.rows]
    for i in range(4):
        for j in range(4):
            if not x[i][j].is_laurent:
                return MonodromyDefect(
                    1, (i, j), "denominator %s is not a unit" % x[i][j].den.display())
    xm = PolyMat.make(field, [[e.num for e in row] for row in x])
    J = j_matrix(field)
    S = mat_add(matmul(transpose(xm), J), matmul(J, xm))
    scalar = S.rows[0][3]
    for i in range(4):
        for j in range(4):
            if S.rows[i][j] != laurent_mul(scalar, J.rows[i][j]):
                return MonodromyDefect(2, (i, j), "X^t J + J X is not a multiple of J")
    for i in range(4):
        for j in range(4):
            e = xm.rows[i][j]
            if e.is_zero:
                continue
            if e.low_degree < 0:
                return MonodromyDefect(3, (i, j), "pole at v = 0")
            if i > j and e.constant_term:
                return MonodromyDefect(3, (i, j), "reduction mod v is not upper triangular")
    return None


def regcolone_matrix(params: RegColOneParams, p: int) -> PolyMat:
    """The displayed universal matrix of the regular colength-one locus,
    each entry a polynomial expression in E = v + p with constant
    coefficients made from the parameters."""
    f = params.field
    pc = f.coerce(p)
    ep = LaurentPoly(f, {1: 1, 0: p})
    vp = v_power(f, 1)

    def ct(x):
        return LaurentPoly.const(f, x)

    c00, c21, c13, c31 = params.c00, params.c21, params.c13, params.c31
    c31p, c33, c33p, c33pp = params.c31p, params.c33, params.c33p, params.c33pp
    rows = [
        [ct(c00),
         ct(c00) * (ct(c31p) + ct(c31) * ep),
         ct(c00 * c13),
         ct(c00 * c33p + pc * c00 * c33 - pc * pc) + ct(c00 * c33 - pc) * ep - ep * ep],
        [ct(0), ep * ep, ct(0), ct(c13) * ep * ep],
        [ct(0),
         ct(c21) * vp * ep,
         ep,
         (ct(c31p) + ct(pc * c13 * c21)).scale(-1) * ep + ct(c13 * c21 - c31) * ep * ep],
        [vp,
         ct(c31p) * vp + ct(c31) * vp * ep,
         ct(c13) * vp,
         ct(c33pp) + ct(c33p) * ep + ct(c33) * ep * ep],
    ]
    return PolyMat.make(f, rows)


def root_multiplicity(a: LaurentPoly, r) -> int:
    """Multiplicity of the nonzero scalar r as a root of a."""
    if a.is_zero:
        raise ValueError("zero polynomial has roots of infinite multiplicity")
    f = a.field
    r = f.coerce(r)
    if not r:
        raise ValueError("use low_degree for the valuation at v=0")
    lin = LaurentPoly(f, {1: 1, 0: -r})
    mult = 0
    cur = a.shift(-a.low_degree)
    while True:
        q, rem = divmod_poly(cur, lin)
        if not rem.is_zero:
            return mult
        mult += 1
        cur = q


def e_valuation(a: LaurentPoly, p: int):
    """Order of vanishing at the uniformizer E: v = -p in characteristic 0,
    v = 0 in characteristic p.  None for the zero polynomial."""
    if a.is_zero:
        return None
    if a.field.char == 0:
        return root_multiplicity(a, Fraction(-p))
    return a.low_degree


def e_divisor_pattern(A, p):
    """d_k is the minimum E-adic valuation over all k x k minors; the
    pattern is (d1, d2 - d1, d3 - d2, d4 - d3) sorted decreasingly."""
    rows = [list(r) for r in A.rows]
    if minor_det(rows).is_zero:
        raise ValueError("matrix is singular")
    d = []
    for k in range(1, 5):
        vals = []
        for ri in itertools.combinations(range(4), k):
            for ci in itertools.combinations(range(4), k):
                minor = minor_det([[rows[i][j] for j in ci] for i in ri])
                if not minor.is_zero:
                    vals.append(e_valuation(minor, p))
        d.append(min(vals))
    steps = (d[0], d[1] - d[0], d[2] - d[1], d[3] - d[2])
    return tuple(sorted(steps, reverse=True))


def _series_div(num, piv, prec):
    """num / piv as a truncated Laurent series mod v^prec."""
    field = num.field
    m = piv.low_degree
    lead = piv.coeff(m)
    q = LaurentPoly.zero(field)
    rem = num
    while not rem.is_zero:
        k = rem.low_degree
        if k - m >= prec:
            break
        t = LaurentPoly(field, {k - m: rem.coeff(k) * field.inv(lead)})
        q = q + t
        rem = (rem - t * piv).truncate(prec + m)
    return q


def _weyl_of_support(support):
    for w in W_ALL:
        m = weyl_matrix(w, QQ)
        if support == frozenset((i, j) for i in range(4) for j in range(4)
                                if not m.rows[i][j].is_zero):
            return w
    raise AssertionError("pivots do not form a symplectic monomial pattern")


def shape_of(A):
    """Pick the entry minimizing (valuation, bottom-most row, left-most
    column), clear its row and column by series division at precision
    val(det) + (largest degree) + 4, and repeat."""
    field = A.field
    if not isinstance(field, PrimeField):
        raise ValueError("shape is computed on the special fiber")
    det = minor_det([list(r) for r in A.rows])
    if det.is_zero:
        raise ValueError("matrix is singular")
    low = min(e.low_degree for row in A.rows for e in row if not e.is_zero)
    shift = -min(low, 0)
    work = [[e.shift(shift) for e in row] for row in A.rows]
    maxdeg = max(e.degree for row in work for e in row if not e.is_zero)
    prec = det.low_degree + 4 * shift + maxdeg + 4
    rows_left = {0, 1, 2, 3}
    cols_left = {0, 1, 2, 3}
    pivots = {}
    for _ in range(4):
        _, r, c = min(((work[r][c].low_degree, -r, c), r, c)
                      for r in rows_left for c in cols_left if not work[r][c].is_zero)
        piv = work[r][c]
        for i in rows_left - {r}:
            q = _series_div(work[i][c], piv, prec)
            assert q.is_zero or q.low_degree >= (1 if i > r else 0), \
                "non-Iwahori row operation"
            for j in cols_left:
                work[i][j] = (work[i][j] - q * work[r][j]).truncate(prec)
        for j in cols_left - {c}:
            q = _series_div(work[r][j], piv, prec)
            assert q.is_zero or q.low_degree >= (1 if j < c else 0), \
                "non-Iwahori column operation"
            for i in rows_left:
                work[i][j] = (work[i][j] - q * work[i][c]).truncate(prec)
        pivots[r] = (c, piv.low_degree)
        rows_left.remove(r)
        cols_left.remove(c)
    w = _weyl_of_support(frozenset((r, pivots[r][0]) for r in pivots))
    t = tuple(pivots[r][1] for r in range(4))
    cc, bb, aa = t[3], t[2] - t[3], t[1] - t[3]
    assert t[0] == aa + bb + cc, "pivots are not a GSp4 torus element"
    z = compose(translation(Weight(aa, bb, cc)), finite(w))
    return compose(translation(Weight(0, 0, -shift)), z)


# --- the Iwahori sampler by full matrix products ---------------------------

# (row, column) and sign of each positive root's entries in its root group
ROOT_SPOTS = (
    (((0, 1), 1), ((2, 3), -1)),   # alpha1
    (((1, 2), 1),),                # alpha2
    (((0, 2), 1), ((1, 3), 1)),    # alpha1+alpha2
    (((0, 3), 1),),                # 2*alpha1+alpha2
)


def random_iwahori(field: PrimeField, rng, max_deg: int = 2) -> PolyMat:
    """The torus part diag(t1, t2, t3, t2 t3 / t1) times, for upper, lower
    and upper root groups in turn, the matrix 1 + sum of sign * coeff * E_ij
    (transposed when lower) of every nonzero random coefficient."""
    q = field.char
    t1, t2, t3 = rng.randrange(1, q), rng.randrange(1, q), rng.randrange(1, q)
    diag = (t1, t2, t3, field.coerce(Fraction(t2 * t3, t1)))
    out = PolyMat.make(field, [[diag[i] if i == j else 0 for j in range(4)] for i in range(4)])
    for lower in (False, True, False):
        for spots in ROOT_SPOTS:
            low = 1 if lower else 0
            coeff = LaurentPoly(field, {e: rng.randrange(q) for e in range(low, max_deg + 1)})
            if coeff.is_zero:
                continue
            rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
            for (i, j), sign in spots:
                if lower:
                    i, j = j, i
                rows[i][j] = coeff if sign == 1 else coeff.scale(-1)
            out = matmul(out, PolyMat.make(field, rows))
    return out
