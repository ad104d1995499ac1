"""One benchmark worker: a fresh interpreter that runs one workload.

    PYTHONHASHSEED=0 python -s -S perfbench/worker.py ROOT MANIFEST MODE SECONDS MIN_OPS [MAX_OPS TRACE_OUT]

ROOT is the checkout whose ``src/`` holds the library under test, MANIFEST
the JSON written by ``gen.generate``.  MODE is

- ``setup``: import, prepare and run the warm-up op, then stop;
- ``run``: then run timed ops until their summed op time reaches SECONDS
  and at least MIN_OPS ops ran;
- ``trace``: the same with every library call traced (see tracing.py),
  stopping after MAX_OPS ops or SECONDS of op time, and writing the kept
  spans and cache sizes to TRACE_OUT.

Ops run one after another in this process: one client, closed loop, no
threads.  Each op's output is checked after its timer stops; a failed
check or an exception counts the op as failed and the run goes on.  Peak
resident memory is read after every op, so that it can be reported after
a fixed number of ops whatever the speed of the code.  The result is one
JSON object on stdout.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

MODULES = ("base", "affine", "admissible", "weights", "adjacency", "cycles",
           "exactalg", "localmodel", "cli", "config")


def import_library(root: str) -> list:
    """Import every module of the package from ROOT/src, and refuse a copy
    found anywhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gsp4weights", "__init__.py")):
        raise SystemExit("no library sources under %s" % src)
    sys.path.insert(0, src)
    mods = [importlib.import_module("gsp4weights." + m) for m in MODULES]
    for mod in mods:
        if not os.path.realpath(mod.__file__).startswith(os.path.realpath(src) + os.sep):
            raise SystemExit("imported %s from outside %s" % (mod.__file__, src))
    return mods


# --- workloads ---------------------------------------------------------------
#
# Each workload is (prepare, op, check).  prepare(ctx) runs once before the
# warm-up; op(ctx, inp) does one timed unit of work on one generated input
# and returns its output; check(ctx, inp, out) raises AssertionError when
# the output is wrong.  Library imports happen inside, after import_library.


def _path(ctx, name):
    return os.path.join(ctx["dir"], name)


def _prepare_nothing(ctx):
    pass


def graph_f1_op(ctx, inp):
    from gsp4weights.adjacency import build_graph, find_chain
    from gsp4weights.cli import load_presentation
    from gsp4weights.cycles import bm_cycle
    from gsp4weights.weights import jh_set

    rho = load_presentation(_path(ctx, inp["rhobar"]))
    graph = build_graph(rho, check=True)
    comps = graph.components()
    # chains start at non-obvious weights: from an obvious one find_chain
    # returns at once, and a varying number of those would only add noise
    starts = [v for v in graph.vertices if v not in graph.obvious]
    chains = []
    for i in inp["chain_starts"]:
        sigma = starts[i % len(starts)]
        chains.append((sigma, find_chain(rho, sigma)))
    edges = sorted(graph.edges, key=lambda e: (e[0].sort_key(), e[1].sort_key()))
    tau = graph.edges[edges[inp["cycle_edge"] % len(edges)]][0].tau
    # the cycle formula is stated for 3-deep weights only, and a derived
    # type of a parameter below depth 9 can have shallower JH weights
    cycles = [(sigma, bm_cycle(sigma)) for sigma in sorted(jh_set(tau), key=lambda s: s.sort_key())
              if sigma.depth() >= 3]
    return {"graph": graph, "components": comps, "chains": chains, "cycles": cycles}


def _walk_ends_obvious(sigma, chain, obvious, steered: bool):
    cur = sigma
    for inst in chain:
        if steered:
            assert inst.sigma1 == cur, "steered step does not start at the current weight"
            cur = inst.sigma2
        else:
            assert cur in (inst.sigma1, inst.sigma2), "BFS step is not incident to the walk"
            cur = inst.sigma2 if cur == inst.sigma1 else inst.sigma1
    assert cur in obvious, "chain from %s ends at a non-obvious weight" % sigma.display()


def graph_f1_check(ctx, inp, out):
    graph = out["graph"]
    verts = set(graph.vertices)
    assert len(graph.vertices) == 20, "expected 20 predicted weights, got %d" % len(verts)
    # connectivity recomputed from the edge list, independent of components()
    parent = {v: v for v in verts}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in graph.edges:
        assert a in verts and b in verts, "edge endpoint is not a vertex"
        parent[root(a)] = root(b)
    assert len({root(v) for v in verts}) == 1, "weight graph is not connected"
    assert len(out["components"]) == 1, "components() disagrees with the edge list"
    for sigma, res in out["chains"]:
        assert len(res.steered) <= 3, "steered chain longer than 3"
        _walk_ends_obvious(sigma, res.steered, graph.obvious, steered=True)
        _walk_ends_obvious(sigma, res.bfs, graph.obvious, steered=False)
    for sigma, cyc in out["cycles"]:
        support = cyc.support()
        assert sigma in support, "cycle of a weight does not contain it"
        assert len(support) in (1, 2), "f=1 cycle support must have size 1 or 2"
        assert all(cyc.coeff(s) == 1 for s in support), "cycle coefficient is not 1"


def graph_f2_prepare(ctx):
    from gsp4weights.weights import enumerate_ap_prime

    ctx["pairs"] = enumerate_ap_prime(2)


def graph_f2_op(ctx, inp):
    from gsp4weights.adjacency import build_instance, valid_simples
    from gsp4weights.cli import load_presentation

    rho = load_presentation(_path(ctx, inp["rhobar"]))
    pair = ctx["pairs"][inp["pair"] % len(ctx["pairs"])]
    simples = valid_simples(pair)
    return build_instance(rho, pair, simples[inp["simple"] % len(simples)], check=True)


def graph_f2_check(ctx, inp, inst):
    from gsp4weights.weights import jh_set, w_question_set

    got = w_question_set(inst.rhobar0) & jh_set(inst.tau)
    assert inst.sigma1 != inst.sigma2, "adjacent weights coincide"
    assert got == {inst.sigma1, inst.sigma2}, "W?(rhobar0) & JH(tau) is not {sigma1, sigma2}"


def alcove_op(ctx, inp):
    from gsp4weights.admissible import adm_set
    from gsp4weights.affine import (ExtAffine, alcove_of, bruhat_leq, length,
                                    upper_arrow_leq, upper_arrow_leq_alcove)
    from gsp4weights.base import Weight, weyl_from_word

    adm = adm_set(Weight(*inp["lambda"]))
    elems = adm.sorted_elements()
    lens = [length(x) for x in elems]
    top = max(lens)
    table = [(x, n, top - n) for x, n in zip(elems, lens)]
    pairs = []
    for u, v in inp["bruhat_pairs"]:
        x, y = elems[(u * len(elems)) >> 30], elems[(v * len(elems)) >> 30]
        pairs.append((x, y, bruhat_leq(x, y), upper_arrow_leq(x, y)))
    alcoves = [alcove_of(ExtAffine(Weight(a, b, 0), weyl_from_word(w)))
               for a, b, w in inp["alcoves"]]
    rel = {(i, j) for i in range(len(alcoves)) for j in range(len(alcoves))
           if upper_arrow_leq_alcove(alcoves[i], alcoves[j])}
    return {"table": table, "pairs": pairs, "alcoves": alcoves, "arrow": rel}


# The downward search that checks the upward arrow searches costs about
# three times the op, so only some of each op's are checked: the first
# pairs, and the arrow-down sets of the first sampled alcoves.
ARROW_CHECKED_PAIRS = 10
ARROW_CHECKED_ROWS = 2


def alcove_check(ctx, inp, out):
    """Bruhat against the oracle; upward arrow searches of the op against
    the library's downward search (arrow_down_region), which shares no
    code with them but the reflections; and the order laws."""
    from gsp4weights.affine import alcove_of, arrow_down_region, bruhat_leq_oracle, omega_class

    assert out["table"] and all(c >= 0 for _, _, c in out["table"]), "bad colengths"
    for k, (x, y, leq, arrow) in enumerate(out["pairs"]):
        assert leq == bruhat_leq_oracle(x, y), "bruhat_leq disagrees with the oracle"
        if k < ARROW_CHECKED_PAIRS:
            a, b = alcove_of(x), alcove_of(y)
            below = omega_class(x) == omega_class(y) and a in arrow_down_region(b, a.x, a.x + a.y)
            assert arrow == below, "upper_arrow_leq disagrees with the downward search"
    alcoves, rel = out["alcoves"], out["arrow"]
    n = len(alcoves)
    for j, b in enumerate(alcoves[:ARROW_CHECKED_ROWS]):
        # x and x + y never decrease along an arrow chain, so no alcove
        # outside this rectangle is below b
        cands = [a for a in alcoves if a.x <= b.x and a.x + a.y <= b.x + b.y]
        down = arrow_down_region(b, min(a.x for a in cands), min(a.x + a.y for a in cands))
        for i, a in enumerate(alcoves):
            assert ((i, j) in rel) == (a in down), "arrow relation disagrees with the downward search"
    for i in range(n):
        assert (i, i) in rel, "arrow order is not reflexive"
    for i, j in rel:
        assert i == j or (j, i) not in rel, "arrow order is not antisymmetric"
        for k in range(n):
            assert (j, k) not in rel or (i, k) in rel, "arrow order is not transitive"


FAMILY_P = 37


def localmodel_prepare(ctx):
    from gsp4weights.exactalg import QQ, PrimeField

    ctx["fields"] = {"QQ": QQ, "F": PrimeField(FAMILY_P)}
    ctx["draw_attempts"] = 0
    ctx["draws_accepted"] = 0


def localmodel_op(ctx, inp):
    from gsp4weights.cli import load_matrix
    from gsp4weights.exactalg import PrimeField
    from gsp4weights.localmodel import (RegColOneParams, build_regcolone_matrix,
                                        e_divisor_pattern, shape_of, symplectic_similitude)

    shape = shape_of(load_matrix(_path(ctx, inp["matrix"]), PrimeField(inp["q"])))
    draws = []
    for key in ("QQ", "F"):
        field = ctx["fields"][key]
        for vals in inp["draws"][key]:
            ctx["draw_attempts"] += 1
            try:
                params = RegColOneParams.admissible(field, FAMILY_P, *vals)
            except ValueError:
                continue
            ctx["draws_accepted"] += 1
            mat = build_regcolone_matrix(params, FAMILY_P)
            draws.append((symplectic_similitude(mat, FAMILY_P), e_divisor_pattern(mat, FAMILY_P)))
            break
        else:
            raise RuntimeError("every candidate family draw over %s degenerated" % key)
    return {"shape": shape, "draws": draws}


def _dominated(mu, lam) -> bool:
    """mu <= lam in dominance order on integer vectors of equal sum."""
    a = b = 0
    for x, y in zip(sorted(mu, reverse=True), sorted(lam, reverse=True)):
        a += x
        b += y
        if a > b:
            return False
    return a == b


def localmodel_check(ctx, inp, out):
    a, b, c, w = inp["z"]
    shape = out["shape"]
    assert ((shape.nu.a, shape.nu.b, shape.nu.c), shape.w.word) == ((a, b, c), w), \
        "shape of the sandwich is not the z it was built from"
    for sim, pat in out["draws"]:
        assert sim.ok, "similitude check failed"
        assert sum(pat) == 6 and _dominated(pat, (3, 2, 1, 0)), "divisor pattern out of range"


WORKLOADS = {
    "graph_f1": (_prepare_nothing, graph_f1_op, graph_f1_check),
    "graph_f2": (graph_f2_prepare, graph_f2_op, graph_f2_check),
    "alcove": (_prepare_nothing, alcove_op, alcove_check),
    "localmodel": (localmodel_prepare, localmodel_op, localmodel_check),
}


# --- the timed loop ------------------------------------------------------------


# The machine's speed drifts (on a shared 2-core box, by up to 2x over tens
# of seconds), and the drift slows every computation alike.  So each op's
# wall time is also reported rescaled to a fixed speed: multiplied by
# REF_NOMINAL_MS over the time of a fixed standard-library computation
# measured just before and just after the op.  The reference never touches
# the library, so no change to the library moves it.
REF_NOMINAL_MS = 3.6
SETUP_REF_SAMPLES = 6  # reference runs at each of three points of a worker's set-up


def _reference_work():
    counts = {}
    acc = Fraction(0)
    for i in range(1, 300):
        key = (i % 17, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += Fraction(i % 5, 6)
    return len(counts), acc


def reference_ms() -> float:
    """Wall time of the reference computation, with the collector off so
    that garbage left by an op is not collected inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(5):
            _reference_work()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if enabled:
            gc.enable()


def _reference_block(samples: list) -> float:
    """Append SETUP_REF_SAMPLES reference times to `samples`; return the
    seconds this took."""
    t0 = time.monotonic()
    samples.extend(reference_ms() for _ in range(SETUP_REF_SAMPLES))
    return time.monotonic() - t0


def run_ops(ctx, ops, op, check, seconds, min_ops=0, max_ops=None, tracer=None,
            reference=reference_ms):
    """Closed loop: run ops in order until their summed rescaled op time
    reaches `seconds` and at least `min_ops` ops ran, or until `max_ops`
    ops ran.  Returns one record per op: ``{"ms": wall time, "norm_ms":
    rescaled time, "ok": bool, "error": message or None, "rss_kb": peak
    resident memory so far}``.  With a `tracer`, each op's spans are
    folded when it ends and those of its check are dropped."""
    records = []
    spent = 0.0
    clock = time.perf_counter
    ref_before = reference()
    for inp in ops:
        if ((spent >= seconds and len(records) >= min_ops)
                or (max_ops is not None and len(records) >= max_ops)):
            break
        error = None
        t0 = clock()
        try:
            out = op(ctx, inp)
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, "op raised %s: %s" % (type(exc).__name__, exc)
        dt = clock() - t0
        ref_after = reference()
        norm = dt * REF_NOMINAL_MS * 2 / (ref_before + ref_after)
        ref_before = ref_after
        if tracer is not None:
            tracer.end_op()
        if error is None:
            try:
                check(ctx, inp, out)
            except Exception as exc:
                error = "check failed: %s: %s" % (type(exc).__name__, exc)
        if tracer is not None:
            tracer.discard()
        spent += norm
        records.append({"ms": dt * 1e3, "norm_ms": norm * 1e3, "ok": error is None, "error": error,
                        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return records


def main(argv) -> int:
    # The machine's speed in this process before, during and after set-up,
    # for rescaling set-up time: the parent may run on a CPU of another
    # speed, and the speed can change within a set-up.
    setup_ref_ms = []
    ref_s = _reference_block(setup_ref_ms)
    root, manifest_path, mode, seconds, min_ops = argv[1], argv[2], argv[3], float(argv[4]), int(argv[5])
    max_ops = int(argv[6]) if len(argv) > 6 else None
    trace_out = argv[7] if len(argv) > 7 else None
    mods = import_library(root)
    ref_s += _reference_block(setup_ref_ms)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    prepare, op, check = WORKLOADS[manifest["workload"]]
    ctx = {"dir": os.path.dirname(manifest_path)}
    prepare(ctx)
    out = op(ctx, manifest["warmup"])
    # set-up ends with the warm-up op; its check is the benchmark's own work
    t_ready = time.monotonic()
    _reference_block(setup_ref_ms)
    result = {"t_ready": t_ready, "ref_s": ref_s, "setup_ref_ms": setup_ref_ms}
    if mode != "setup":
        check(ctx, manifest["warmup"], out)
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer, cache_snapshot, find_caches

        caches = find_caches(mods)
        result["caches_before"] = cache_snapshot(caches)
        tracer = Tracer()
        result["bindings"] = tracer.install(mods)
    if mode != "setup":
        result["ops"] = run_ops(ctx, manifest["ops"], op, check, seconds, min_ops, max_ops, tracer)
        if len(result["ops"]) == len(manifest["ops"]):
            result["stream_exhausted"] = True
    result["counters"] = {k: v for k, v in ctx.items() if isinstance(v, int)}
    if tracer is not None:
        result["caches_after"] = cache_snapshot(caches)
        result["totals"] = tracer.totals
        result["errors"] = dict(tracer.errors)
        with open(trace_out, "w") as fh:
            json.dump({"names": tracer.names,
                       "span_fields": ["op", "name", "start_ns", "end_ns", "parent", "outermost"],
                       "spans": tracer.kept, "totals": tracer.totals,
                       "caches_before": result["caches_before"],
                       "caches_after": result["caches_after"]}, fh)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
