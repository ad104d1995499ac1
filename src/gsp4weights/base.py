"""Root datum of GSp4 and the finite Weyl group.

Characters of the diagonal torus are written (a, b; c), sending
diag(x, y, z/y, z/x) to x^a y^b z^c.  Cocharacters use the same
coordinates, with (d, e; f) mapping x to diag(x^d, x^e, x^(f-e), x^(f-d)).
The symplectic form is antidiagonal: J = antidiag(1, 1, -1, -1).
"""

from __future__ import annotations

from typing import NamedTuple


class Weight(NamedTuple):
    a: int
    b: int
    c: int

    def __add__(self, other):  # type: ignore[override]
        return Weight(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other):
        return Weight(self.a - other.a, self.b - other.b, self.c - other.c)

    def __neg__(self):
        return Weight(-self.a, -self.b, -self.c)

    def scale(self, n: int) -> "Weight":
        return Weight(n * self.a, n * self.b, n * self.c)


class Coweight(NamedTuple):
    d: int
    e: int
    f: int


ETA = Weight(2, 1, 0)

# Simple roots first, then the other positive roots: alpha1, alpha2,
# alpha1+alpha2, 2*alpha1+alpha2.
POSITIVE_ROOTS = (
    Weight(1, -1, 0),
    Weight(0, 2, -1),
    Weight(1, 1, -1),
    Weight(2, 0, -1),
)
POSITIVE_COROOTS = (
    Coweight(1, -1, 0),
    Coweight(0, 1, 0),
    Coweight(1, 1, 0),
    Coweight(1, 0, 0),
)
SIMPLE_INDICES = (0, 1)


def pairing(lam: Weight, cov: Coweight) -> int:
    """Natural pairing of a character with a cocharacter."""
    return lam.a * cov.d + lam.b * cov.e + lam.c * cov.f


def std_character(lam: Weight) -> tuple[int, int, int, int]:
    """Exponents of (a, b; c) on the 4-dimensional standard torus."""
    return (lam.a + lam.b + lam.c, lam.a + lam.c, lam.b + lam.c, lam.c)


# --- finite Weyl group -------------------------------------------------
#
# The 8 elements are interned instances, each carrying its index into
# tables built once, at import, by closing {s1, s2} under products: the
# product and inverse tables and, per element, the 3x3 integer matrices
# of its actions on characters and on coweights (row-major 9-tuples).

_IDENTITY_MATRIX = (1, 0, 0, 0, 1, 0, 0, 0, 1)
# s1 swaps the first two coordinates on both sides; s2 sends (a, b; c) to
# (a, -b; b + c) and, as the adjoint under the pairing, (d, e; f) to
# (d, f - e; f).
_SIMPLE_MATRICES = (
    ("1", (0, 1, 0, 1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0, 0, 0, 1)),
    ("2", (1, 0, 0, 0, -1, 0, 0, 1, 1), (1, 0, 0, 0, -1, 1, 0, 0, 1)),
)


def _matmul(m: tuple[int, ...], n: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        sum(m[3 * i + k] * n[3 * k + j] for k in range(3)) for i in range(3) for j in range(3)
    )


class FiniteWeyl:
    """Element of the Weyl group W of GSp4 (dihedral of order 8).

    The elements are the 8 interned instances in ``W_ALL``, so equality is
    identity.  ``index`` (0-7) is the position in ``W_ALL`` and in the
    group tables; ``word`` is the canonical reduced word, letters '1' and
    '2'.
    """

    __slots__ = ("index", "word", "_char", "_cochar")

    def __init__(self, index: int, word: str, char: tuple[int, ...], cochar: tuple[int, ...]):
        self.index = index
        self.word = word
        self._char = char
        self._cochar = cochar

    def __hash__(self):
        return self.index

    def __repr__(self):
        return "W[%s]" % (self.display(),)

    def display(self) -> str:
        if not self.word:
            return "e"
        return "".join("s" + ch for ch in self.word)

    @property
    def length(self) -> int:
        return len(self.word)

    def act(self, lam: Weight) -> Weight:
        m = self._char
        a, b, c = lam
        return Weight(
            m[0] * a + m[1] * b + m[2] * c,
            m[3] * a + m[4] * b + m[5] * c,
            m[6] * a + m[7] * b + m[8] * c,
        )

    def act_coweight(self, cov: Coweight) -> Coweight:
        m = self._cochar
        d, e, f = cov
        return Coweight(
            m[0] * d + m[1] * e + m[2] * f,
            m[3] * d + m[4] * e + m[5] * f,
            m[6] * d + m[7] * e + m[8] * f,
        )


def _close_weyl_group() -> tuple[FiniteWeyl, ...]:
    """Breadth-first closure of {s1, s2}, appending letters '1' before '2',
    so each element keeps the first shortest word reaching it."""
    elems = [FiniteWeyl(0, "", _IDENTITY_MATRIX, _IDENTITY_MATRIX)]
    seen = {_IDENTITY_MATRIX}
    for w in elems:  # grows while it is walked
        for letter, char, cochar in _SIMPLE_MATRICES:
            m = _matmul(w._char, char)
            if m not in seen:
                seen.add(m)
                elems.append(FiniteWeyl(len(elems), w.word + letter, m, _matmul(w._cochar, cochar)))
    return tuple(elems)


W_ALL = _close_weyl_group()
W_E, W_S1, W_S2 = W_ALL[0], W_ALL[1], W_ALL[2]
# the simple reflections by their letter in Weyl words
SIMPLES = {1: W_S1, 2: W_S2}
W_LONG = W_ALL[7]

_BY_CHAR = {w._char: w for w in W_ALL}
_MUL = tuple(tuple(_BY_CHAR[_matmul(w._char, u._char)] for u in W_ALL) for w in W_ALL)
_INV = tuple(next(u for u in W_ALL if _MUL[w.index][u.index] is W_E) for w in W_ALL)
_LETTERS = {str(i): s for i, s in SIMPLES.items()}


def weyl_mul(w: FiniteWeyl, u: FiniteWeyl) -> FiniteWeyl:
    """Product w*u, acting as w(u(.))."""
    return _MUL[w.index][u.index]


def weyl_inv(w: FiniteWeyl) -> FiniteWeyl:
    return _INV[w.index]


def weyl_from_word(word: str) -> FiniteWeyl:
    """The element of an arbitrary word in letters '1', '2' (the empty word
    is the identity); any other letter raises ValueError."""
    acc = W_E
    for ch in word:
        s = _LETTERS.get(ch)
        if s is None:
            raise ValueError("Weyl word %r: letter %r is not 1 or 2" % (word, ch))
        acc = _MUL[acc.index][s.index]
    return acc


# Reflections attached to the four positive roots, in the same order.
REFLECTIONS = (
    weyl_from_word("1"),
    weyl_from_word("2"),
    weyl_from_word("212"),
    weyl_from_word("121"),
)


def dominant(lam: Weight) -> bool:
    return all(pairing(lam, POSITIVE_COROOTS[i]) >= 0 for i in SIMPLE_INDICES)


# --- depth ------------------------------------------------------------


def depth(lam: Weight, p: int) -> int:
    """Largest m with lam m-deep, or -1 if lam lies on a wall."""
    # lam + eta pairs with the positive coroots to a - b, b, a + b and a;
    # the nearest multiple of p is min(r, p - r) away from a residue r
    a, b = lam.a + 2, lam.b + 1
    rs = ((a - b) % p, b % p, (a + b) % p, a % p)
    return min(min(rs), p - max(rs)) - 1


def lowest_alcove_depth(lam: Weight, p: int) -> int:
    """Depth of lam inside the lowest alcove: the largest m with
    m < <lam + eta, coroot> < p - m for every positive coroot, or -1
    when lam is not inside the lowest alcove at all."""
    # the pairings are a - b, b, a + b and a; once a - b and b are
    # positive, a + b is the largest of them
    a, b = lam.a + 2, lam.b + 1
    lo, hi = min(a - b, b), a + b
    return min(lo, p - hi) - 1 if lo > 0 and hi < p else -1
