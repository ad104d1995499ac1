"""A seeded mutation grammar for gsp4weights/matrix/1 fixtures.

A fixture is the JSON object `cli.load_matrix` reads: a schema tag, an
optional p and four rows of four cells {"coeffs": {exponent: scalar}}.
Each mutation changes one thing about a well-formed fixture, the kinds
of damage a hand-edited or generated file takes:

- a cell dropped from a row, or an extra cell appended to one
- an exponent that is not an integer as str(int) writes it
- an exponent moved by up to +-1000, or every exponent by one such
  shift (a central power of v, which keeps a similitude one)
- a row of zero cells
- one coefficient changed, to another integer or to a malformed scalar
- a p that is missing, of the wrong type, or another prime

Exponents far beyond +-1000 are not drawn: the similitude check packs
the whole exponent span of the matrix, which is quadratic in it.
"""

from __future__ import annotations

import copy
import json

SCHEMA = "gsp4weights/matrix/1"

# exponent keys that are not str(int) of an integer
BAD_EXPONENTS = ("1.5", "x", "", " 1", "+1", "01", "-0", "1e3", "2 ", "\u0661")
# coefficients that are not an integer or "a/b" of integers, or whose
# denominator vanishes in some field
BAD_SCALARS = ("1.5", "", "x", "1/0", "1/5", "1/37", "2/", "/3", 7, None, [1])
OTHER_PRIMES = (2, 3, 5, 7, 41, 1000003)


def fixture(A, p: int) -> dict:
    """The matrix/1 fixture of the PolyMat A over F_p."""
    return {"schema": SCHEMA, "p": p,
            "rows": [[{"coeffs": {str(e): str(c) for e, c in x.coeffs}} for x in row]
                     for row in A.rows]}


def _cells(obj):
    return [(i, j) for i in range(len(obj["rows"])) for j in range(len(obj["rows"][i]))]


def _terms(obj):
    return [(i, j, e) for i, j in _cells(obj) for e in obj["rows"][i][j]["coeffs"]]


def _rekey(coeffs: dict, old: str, new: str) -> dict:
    """coeffs with the key old renamed to new, in place of it; a value
    already at new is overwritten."""
    return {(new if k == old else k): v for k, v in coeffs.items() if k != new or k == old}


def drop_cell(obj, rng):
    i, j = rng.choice(_cells(obj))
    del obj["rows"][i][j]


def extra_cell(obj, rng):
    row = rng.choice(obj["rows"])
    row.insert(rng.randrange(len(row) + 1), {"coeffs": {str(rng.randrange(3)): "1"}})


def bad_exponent(obj, rng):
    i, j, e = rng.choice(_terms(obj))
    cell = obj["rows"][i][j]
    cell["coeffs"] = _rekey(cell["coeffs"], e, rng.choice(BAD_EXPONENTS))


def move_exponent(obj, rng):
    i, j, e = rng.choice(_terms(obj))
    cell = obj["rows"][i][j]
    cell["coeffs"] = _rekey(cell["coeffs"], e, str(int(e) + rng.randint(-1000, 1000)))


def shift_all(obj, rng):
    d = rng.randint(-1000, 1000)
    for row in obj["rows"]:
        for cell in row:
            cell["coeffs"] = {str(int(e) + d): c for e, c in cell["coeffs"].items()}


def zero_row(obj, rng):
    obj["rows"][rng.randrange(4)] = [{"coeffs": {}} for _ in range(4)]


def change_coefficient(obj, rng):
    i, j, e = rng.choice(_terms(obj))
    value = (str(rng.randint(-100, 100)) if rng.random() < 0.6 else rng.choice(BAD_SCALARS))
    obj["rows"][i][j]["coeffs"][e] = value


def wrong_p(obj, rng):
    p = rng.choice(OTHER_PRIMES + ("37", 37.0, True, None))
    if p is None:
        obj.pop("p", None)
    else:
        obj["p"] = p


MUTATIONS = (drop_cell, extra_cell, bad_exponent, move_exponent, shift_all, zero_row,
             change_coefficient, wrong_p)


def mutants(base: dict, rng, n: int):
    """n seeded (mutation name, mutated copy of base) pairs, cycling
    through the mutations so that each is drawn about n / 8 times; base
    needs a nonzero entry."""
    for k in range(n):
        mutate = MUTATIONS[k % len(MUTATIONS)]
        obj = copy.deepcopy(base)
        mutate(obj, rng)
        yield mutate.__name__, obj


def write(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)
