"""Seeded input generator for the benchmark workloads.

Standard library only, and independent of the library under test: it
never imports ``gsp4weights`` and never calls the library's own samplers,
so a change to the library cannot change the inputs it is measured on.
Presentations and matrices are written as ``gsp4weights/presentation/1``
and ``gsp4weights/matrix/1`` files; everything else an op needs is a
small integer carried in the manifest.

``generate(workload, seed, n_ops, out_dir)`` writes the files and returns
the manifest: ``{"workload", "seed", "warmup": op, "ops": [op, ...]}``.
The warm-up op is drawn from a fixed stream and is never one of the timed
ops, so set-up cost does not depend on the seed.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

PRESENTATION_SCHEMA = "gsp4weights/presentation/1"
MATRIX_SCHEMA = "gsp4weights/matrix/1"

WORKLOADS = ("graph_f1", "graph_f2", "alcove", "localmodel")

# canonical reduced words of the finite Weyl group (letters 1 and 2)
WORDS = ("", "1", "2", "12", "21", "121", "212", "1212")
GRAPH_PRIMES = (37, 41, 43, 47)
GRAPH_DEPTH = 8
F2_OPS_PER_PARAM = 3
FAMILY_P = 37
FAMILY_CANDIDATES = 4
SHAPE_FIELDS = (5, 37)
ARROW_ALCOVES = 6
BRUHAT_PAIRS = 50
BOX_RADIUS = 12
BAND_MAX_X = 5
IWAHORI_MAX_DEG = 2  # top v-degree of the root-subgroup coefficients

# Adm*(eta) as (nu_a, nu_b, nu_c, word) of t_nu * w, in the library's
# element order (length, nu, word).  A benchmark test checks it against
# adm_dual_set(ETA).
ADM_DUAL_ETA = (
    (0, 1, 1, "21"), (1, 0, 1, "12"), (0, -1, 2, "1"), (0, 1, 1, "2"),
    (0, 1, 1, "212"), (1, 0, 1, "1"), (1, 0, 1, "212"), (-1, 0, 2, ""),
    (0, -1, 2, ""), (0, -1, 2, "12"), (0, 1, 1, ""), (0, 1, 1, "1212"),
    (1, 0, 1, ""), (1, 0, 1, "21"), (-1, 0, 2, "1"), (-1, 0, 2, "2"),
    (0, -1, 2, "121"), (0, -1, 2, "2"), (0, 1, 1, "1"), (0, 1, 1, "121"),
    (1, 0, 1, "2"), (-1, 0, 2, "12"), (-1, 0, 2, "21"), (0, -1, 2, "1212"),
    (0, -1, 2, "21"), (0, 1, 1, "12"), (-1, 0, 2, "121"), (-1, 0, 2, "212"),
    (0, -1, 2, "212"), (-2, -1, 3, ""), (-2, 1, 2, ""), (-1, -2, 3, ""),
    (-1, 0, 2, "1212"), (-1, 2, 1, ""), (1, -2, 2, ""), (1, 2, 0, ""),
    (2, -1, 1, ""), (2, 1, 0, ""), (-2, -1, 3, "1"), (-2, -1, 3, "2"),
    (-2, 1, 2, "1"), (-2, 1, 2, "212"), (-1, -2, 3, "121"), (-1, -2, 3, "2"),
    (-1, 2, 1, "1"), (-1, 2, 1, "121"), (1, -2, 2, "2"), (1, -2, 2, "212"),
    (1, 2, 0, "1"), (2, -1, 1, "2"), (-2, -1, 3, "12"), (-2, -1, 3, "21"),
    (-2, 1, 2, "12"), (-2, 1, 2, "1212"), (-1, -2, 3, "1212"), (-1, -2, 3, "21"),
    (-1, 2, 1, "12"), (1, -2, 2, "21"), (-2, -1, 3, "121"), (-2, -1, 3, "212"),
    (-2, 1, 2, "121"), (-1, -2, 3, "212"), (-2, -1, 3, "1212"),
)

# The symplectic realization the library's matrices use: J is antidiagonal
# (1, 1, -1, -1); Weyl generators as signed permutation matrices; root
# subgroups as (position, sign) lists for alpha1, alpha2, alpha1+alpha2 and
# 2*alpha1+alpha2.  A benchmark test checks M(z) against monomial_matrix.
_WEYL_GEN = {
    "1": ((1, 0, 0, 0), (0, 0, 1, 0), (0, -1, 0, 0), (0, 0, 0, 1)),
    "2": ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
}
_ROOT_SPOTS = (
    (((0, 1), 1), ((2, 3), -1)),
    (((1, 2), 1),),
    (((0, 2), 1), ((1, 3), 1)),
    (((0, 3), 1),),
)


def stream_rng(workload: str, seed) -> random.Random:
    """One independent stream per (workload, seed); str seeds hash stably."""
    return random.Random("%s:%s" % (workload, seed))


# --- presentations ---------------------------------------------------------


def deep_points(p: int, m: int) -> list[tuple[int, int]]:
    """All (x, y) = first two coordinates of mu + eta whose four root
    pairings x - y, y, x + y, x lie in [m + 1, p - m - 1]: the m-deep
    points of the lowest p-alcove."""
    lo, hi = m + 1, p - m - 1
    return [
        (x, y)
        for x in range(lo, hi + 1)
        for y in range(lo, hi + 1)
        if all(lo <= v <= hi for v in (x - y, y, x + y, x))
    ]


def random_param(rng: random.Random, f: int) -> dict:
    """A GRAPH_DEPTH-deep mod-p parameter with f embeddings, as the body of
    a presentation fixture."""
    p = rng.choice(GRAPH_PRIMES)
    s, mu = [], []
    for _ in range(f):
        x, y = rng.choice(deep_points(p, GRAPH_DEPTH))
        s.append(rng.choice(WORDS))
        mu.append([x - 2, y - 1, rng.randrange(-2, 3)])  # mu = (x, y, c) - eta
    return {"schema": PRESENTATION_SCHEMA, "kind": "param", "p": p, "s": s, "mu": mu}


def _write_json(out_dir: str, name: str, obj) -> str:
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return name


def _distinct_params(rng: random.Random, f: int, n: int, avoid: dict) -> list[dict]:
    seen = {json.dumps(avoid, sort_keys=True)}
    out = []
    while len(out) < n:
        pres = random_param(rng, f)
        key = json.dumps(pres, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(pres)
    return out


# --- graph workloads --------------------------------------------------------


def _graph_f1_op(rng: random.Random, pres_file: str) -> dict:
    return {
        "rhobar": pres_file,
        # indices into the 12 non-obvious of the 20 predicted weights
        "chain_starts": rng.sample(range(12), 4),
        "cycle_edge": rng.randrange(1 << 30),
    }


def _gen_graph_f1(rng, warm_rng, n_ops, out_dir):
    warm = random_param(warm_rng, 1)
    warmup = _graph_f1_op(warm_rng, _write_json(out_dir, "warmup.json", warm))
    ops = [
        _graph_f1_op(rng, _write_json(out_dir, "rhobar_%04d.json" % i, pres))
        for i, pres in enumerate(_distinct_params(rng, 1, n_ops, warm))
    ]
    return warmup, ops


def _graph_f2_op(rng: random.Random, pres_file: str) -> dict:
    # the pair and reflection are indices into the library's AP' pair
    # enumeration and the pair's allowed simples, reduced modulo their sizes
    return {"rhobar": pres_file, "pair": rng.randrange(1 << 30), "simple": rng.randrange(1 << 30)}


def _gen_graph_f2(rng, warm_rng, n_ops, out_dir):
    warm = random_param(warm_rng, 2)
    warmup = _graph_f2_op(warm_rng, _write_json(out_dir, "warmup.json", warm))
    n_params = -(-n_ops // F2_OPS_PER_PARAM)
    ops = []
    for i, pres in enumerate(_distinct_params(rng, 2, n_params, warm)):
        name = _write_json(out_dir, "rhobar_%04d.json" % i, pres)
        ops.extend(_graph_f2_op(rng, name) for _ in range(F2_OPS_PER_PARAM))
    return warmup, ops[:n_ops]


# --- alcove workload --------------------------------------------------------


def _plane_act(word: str, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    for ch in reversed(word):
        x, y = (y, x) if ch == "1" else (x, -y)
    return x, y


def band_alcoves() -> tuple[list, list]:
    """Alcoves of the radius-BOX_RADIUS box (all four root functionals of
    the barycenter in [-radius, radius]) with barycenter x <= BAND_MAX_X,
    each named by one element (a, b, w) = t_(a,b,0) * w mapping the base
    alcove onto it.  Returned twice: sorted by barycenter (x, x + y) and by
    (x + y, x), so the lists are the same on every run."""
    base = (Fraction(1, 2), Fraction(1, 6))
    span = 2 * BOX_RADIUS
    found = {}
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            for word in WORDS:
                dx, dy = _plane_act(word, *base)
                x, y = a + dx, b + dy
                if x > BAND_MAX_X or any(abs(v) > BOX_RADIUS for v in (x - y, y, x + y, x)):
                    continue
                found.setdefault((x, x + y), (a, b, word))
    by_x = [found[k] for k in sorted(found)]
    by_s = [found[k] for k in sorted(found, key=lambda k: (k[1], k[0]))]
    return by_x, by_s


def dominant_lambdas() -> list[tuple[int, int]]:
    """The (a, b) parts of the dominant weights with 1 <= a <= 6, 0 <= b <= a."""
    return [(a, b) for a in range(1, 7) for b in range(a + 1)]


C_RANGE = tuple(range(-3, 4))
ALCOVE_STRIDE = 17  # coprime to the 27 (a, b) parts; 17/27 is near 1/golden ratio


def _inversions(perm) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])


def _alcove_op(rng: random.Random, lam, band_by_x, band_by_s) -> dict:
    # A Latin-hypercube sample: the k-th alcove lies in the k-th sixth of
    # the band by x and in the pi(k)-th sixth by x + y, for a seeded
    # permutation pi with 7 or 8 of its 15 pairs inverted.  An arrow search
    # from a to b is long only when b is past a in both x and x + y, so
    # every op then has about as many long searches as the next.
    k_of_s = {a: k * ARROW_ALCOVES // len(band_by_s) for k, a in enumerate(band_by_s)}
    while True:
        pi = rng.sample(range(ARROW_ALCOVES), ARROW_ALCOVES)
        if _inversions(pi) in (7, 8):
            break
    picks = []
    for k, j in enumerate(pi):
        lo, hi = k * len(band_by_x) // ARROW_ALCOVES, (k + 1) * len(band_by_x) // ARROW_ALCOVES
        cell = [a for a in band_by_x[lo:hi] if k_of_s[a] == j] or band_by_x[lo:hi]
        picks.append(rng.choice(cell))
    # The element pairs are a Latin-hypercube sample too: positions in
    # [0, 2^30) that the op scales to indices into the sorted Adm(lambda),
    # the k-th pair taking x from the k-th and y from the rho(k)-th of
    # BRUHAT_PAIRS equal slices.
    n = BRUHAT_PAIRS

    def slot(k):
        return (k << 30) // n + rng.randrange((1 << 30) // n)

    pairs = [[slot(k), slot(j)] for k, j in enumerate(rng.sample(range(n), n))]
    return {
        "lambda": list(lam),
        "bruhat_pairs": rng.sample(pairs, n),
        "alcoves": [list(x) for x in rng.sample(picks, ARROW_ALCOVES)],
    }


def _gen_alcove(rng, warm_rng, n_ops, out_dir):
    """Every op gets a distinct lambda.  The stream is stratified so that
    every long prefix has nearly the same mix of small and large admissible
    sets, whatever the seed: each round visits every (a, b) once, with a c
    not used for that (a, b) before, stepping through the (a, b) list in
    size order by a stride of about 0.63 of its length from a seeded
    start.  The warm-up uses lambda = (1, 0, 4), outside the c range of the
    timed stream."""
    band = band_alcoves()
    warmup = _alcove_op(warm_rng, (1, 0, 4), *band)
    pairs = dominant_lambdas()
    cs = {ab: rng.sample(C_RANGE, len(C_RANGE)) for ab in pairs}
    ops = []
    for rnd in range(len(C_RANGE)):
        start = rng.randrange(len(pairs))
        for k in range(len(pairs)):
            if len(ops) == n_ops:
                return warmup, ops
            ab = pairs[(start + ALCOVE_STRIDE * k) % len(pairs)]
            ops.append(_alcove_op(rng, (ab[0], ab[1], cs[ab][rnd]), *band))
    return warmup, ops


# --- local-model workload ---------------------------------------------------


def _pmul(a: dict, b: dict, q: int) -> dict:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = (out.get(ea + eb, 0) + ca * cb) % q
    return {e: c for e, c in out.items() if c}


def _mat_mul(A, B, q: int):
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            acc: dict[int, int] = {}
            for k in range(4):
                for e, c in _pmul(A[i][k], B[k][j], q).items():
                    acc[e] = (acc.get(e, 0) + c) % q
            row.append({e: c for e, c in acc.items() if c})
        out.append(row)
    return out


def _const_mat(rows, q: int):
    return [[{0: x % q} if x % q else {} for x in row] for row in rows]


def monomial(z, q: int):
    """M(z) for z = t_nu * w: diag(v^e) times the Weyl matrix of w, where e
    are the exponents of nu on the standard torus."""
    a, b, c, word = z
    wm = _const_mat(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), q)
    for ch in word:
        wm = _mat_mul(wm, _const_mat(_WEYL_GEN[ch], q), q)
    exps = (a + b + c, a + c, b + c, c)
    return [[{e + exps[i]: v for e, v in wm[i][j].items()} for j in range(4)] for i in range(4)]


def random_iwahori(rng: random.Random, q: int):
    """An element of the symplectic Iwahori over F_q: a similitude torus
    element times upper, lower (coefficients divisible by v) and upper
    root-subgroup factors with polynomial coefficients."""
    t1, t2, t3 = (rng.randrange(1, q) for _ in range(3))
    t4 = t2 * t3 * pow(t1, -1, q) % q
    diag = (t1, t2, t3, t4)
    out = [[{0: diag[i]} if i == j else {} for j in range(4)] for i in range(4)]
    for lower in (False, True, False):
        for spots in _ROOT_SPOTS:
            coeff = {e: rng.randrange(q) for e in range(1 if lower else 0, IWAHORI_MAX_DEG + 1)}
            coeff = {e: c for e, c in coeff.items() if c}
            if not coeff:
                continue
            # right multiplication by 1 + sum(sign * coeff * E_ij) adds
            # sign * coeff * (column i) to column j; no spot's source column
            # is another spot's target, so the spots apply one by one
            for (i, j), sign in spots:
                if lower:
                    i, j = j, i
                term = {e: (c if sign == 1 else -c) % q for e, c in coeff.items()}
                for row in out:
                    acc = dict(row[j])
                    for e, c in _pmul(row[i], term, q).items():
                        acc[e] = (acc.get(e, 0) + c) % q
                    row[j] = {e: c for e, c in acc.items() if c}
    return out


def matrix_fixture(rows, q: int) -> dict:
    return {
        "schema": MATRIX_SCHEMA,
        "p": q,
        "rows": [[{"coeffs": {str(e): str(c) for e, c in sorted(cell.items())}}
                  for cell in row] for row in rows],
    }


def _localmodel_op(rng: random.Random, q: int, out_dir: str, name: str) -> dict:
    z = rng.randrange(len(ADM_DUAL_ETA))
    sandwich = _mat_mul(_mat_mul(random_iwahori(rng, q), monomial(ADM_DUAL_ETA[z], q), q),
                        random_iwahori(rng, q), q)
    draws = {
        field: [[rng.randrange(1, FAMILY_P) for _ in range(7)]
                for _ in range(FAMILY_CANDIDATES)]
        for field in ("QQ", "F")
    }
    return {
        "matrix": _write_json(out_dir, name, matrix_fixture(sandwich, q)),
        "q": q,
        "z": list(ADM_DUAL_ETA[z]),
        "draws": draws,
    }


def _gen_localmodel(rng, warm_rng, n_ops, out_dir):
    warmup = _localmodel_op(warm_rng, SHAPE_FIELDS[0], out_dir, "warmup.json")
    ops = [
        _localmodel_op(rng, SHAPE_FIELDS[i % 2], out_dir, "sandwich_%04d.json" % i)
        for i in range(n_ops)
    ]
    return warmup, ops


_GENERATORS = {
    "graph_f1": _gen_graph_f1,
    "graph_f2": _gen_graph_f2,
    "alcove": _gen_alcove,
    "localmodel": _gen_localmodel,
}


def generate(workload: str, seed: int, n_ops: int, out_dir: str) -> dict:
    """Write the input files of one run into out_dir and return its manifest."""
    if workload not in _GENERATORS:
        raise ValueError("unknown workload %r" % (workload,))
    warmup, ops = _GENERATORS[workload](
        stream_rng(workload, seed), stream_rng(workload, "warmup"), n_ops, out_dir
    )
    return {"workload": workload, "seed": seed, "warmup": warmup, "ops": ops}
