"""Benchmark driver for gsp4weights.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its
``src/``.  Inputs are generated from the seed (gen.py) before anything is
timed, and each workload runs in fresh worker processes (worker.py), one
after another.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric by name with its unit.  See README.md in this directory.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it runs the first third of the time untraced, then the
same ops traced in a fresh worker, and writes the spans to
``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import worker  # noqa: E402

# Untimed set-up-only workers per run, besides the measuring worker; the
# reported setup_s is the median over all of them.
SETUP_REPEATS = 4
# Upper bound on ops per second of op time, used to size the input stream.
MAX_RATE = {"graph_f1": 40, "graph_f2": 40, "alcove": 40, "localmodel": 60}
# peak_rss_mb is read after this many timed ops, and a run goes on until
# they have run.  Later ops add to caches that never shrink, so a reading
# at the end of a timed run would rise with the speed of the code.  A
# little below the number of ops in 8 s of op time at the seed commit.
RSS_OPS = {"graph_f1": 20, "graph_f2": 40, "alcove": 26, "localmodel": 120}
# the tail percentile keeps at least this many samples beyond it
TAIL_MIN_BEYOND = 10
RUN_TIMEOUT_S = 170  # all workers of one run together
LAYERS = ("base", "affine", "admissible", "weights", "adjacency", "cycles",
          "exactalg", "localmodel", "cli")
TRACE_SHARE = 1 / 3  # share of --seconds spent on the untraced reference ops


class BenchError(Exception):
    pass


def tail_percentile(samples):
    """The highest whole percentile with at least TAIL_MIN_BEYOND samples
    above it (nearest rank).  Returns (value, percentile, samples_beyond);
    with too few samples for any percentile, the median."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 0, -1):
        rank = max(1, math.ceil(pct * n / 100))
        if n - rank >= TAIL_MIN_BEYOND:
            return xs[rank - 1], pct, n - rank
    rank = max(1, math.ceil(n / 2))
    return xs[rank - 1], 50, n - rank


def end_to_end(records, setup_s, rss_ops):
    """End-to-end metrics from the op records of one untraced run, and a
    note with the tail percentile and the raw wall-clock figures.  Peak
    memory is the reading after the first `rss_ops` ops."""
    if len(records) < rss_ops:
        raise BenchError("%d ops ran; peak memory is read after %d" % (len(records), rss_ops))
    ok = sum(1 for r in records if r["ok"])
    norm_ms = [r["norm_ms"] for r in records]
    tail, pct, beyond = tail_percentile(norm_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / (sum(norm_ms) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(norm_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (records[rss_ops - 1]["rss_kb"] / 1024, "MB"),
    }
    raw_ms = [r["ms"] for r in records]
    note = ("op_tail_ms is p%d of %d ops, %d samples beyond it; unscaled wall clock: "
            "p50 %.1f ms, p%d %.1f ms, %.3f ops/s"
            % (pct, len(records), beyond, statistics.median(raw_ms), pct,
               tail_percentile(raw_ms)[0], ok / (sum(raw_ms) / 1e3)))
    return metrics, note


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(traced: dict, untraced_ms: list, manifest_ops: list) -> dict:
    """Per-layer metrics of a traced run.  Call counts and span seconds
    are per traced op; cache sizes are at the end of the run; ratios have
    their base in the same run."""
    ops = traced["ops"]
    n = len(ops)
    tot = traced["totals"]
    calls = tot.get("calls", {})
    incl = tot.get("incl_ns", {})
    self_ns = tot.get("self_ns", {})

    def per_op_calls(name):
        return calls.get(name, 0) / n

    def per_op_s(name):
        return incl.get(name, 0) / 1e9 / n

    before, after = traced["caches_before"], traced["caches_after"]
    length_hits = after["affine.length"]["hits"] - before["affine.length"]["hits"]
    length_miss = after["affine.length"]["misses"] - before["affine.length"]["misses"]
    params = {op["rhobar"] for op in manifest_ops[:n] if "rhobar" in op}
    counters = traced.get("counters", {})
    m = {}
    for layer in LAYERS:
        m["%s.self_s" % layer] = (self_ns.get(layer, 0) / 1e9 / n, "s/op")
    m.update({
        "base.weyl_mul.calls": (per_op_calls("base.weyl_mul"), "calls/op"),
        "base.weyl_inv.calls": (per_op_calls("base.weyl_inv"), "calls/op"),
        "affine.compose.calls": (per_op_calls("affine.compose"), "calls/op"),
        "affine.upper_arrow_leq_alcove.s": (per_op_s("affine.upper_arrow_leq_alcove"), "s/op"),
        "affine.bruhat_leq.s": (per_op_s("affine.bruhat_leq"), "s/op"),
        "affine.length.hit_ratio": (_ratio(length_hits, length_hits + length_miss), "ratio"),
        "affine.bruhat_cache.entries": (after["affine._BRUHAT_CACHE"]["size"], "count"),
        "admissible.adm_set.calls": (per_op_calls("admissible.adm_set"), "calls/op"),
        "admissible.adm_set.s": (per_op_s("admissible.adm_set"), "s/op"),
        "weights.serre_weight_of_presentation.calls":
            (per_op_calls("weights.serre_weight_of_presentation"), "calls/op"),
        "weights.evals_per_instance": (_ratio(calls.get("weights.serre_weight_of_presentation", 0),
                                              calls.get("adjacency.build_instance", 0)), "ratio"),
        "weights.intersect_w_jh.s": (per_op_s("weights.intersect_w_jh"), "s/op"),
        "weights.w_question.calls": (per_op_calls("weights.w_question"), "calls/op"),
        "weights.jh_factors.calls": (per_op_calls("weights.jh_factors"), "calls/op"),
        "adjacency.build_instance.calls": (per_op_calls("adjacency.build_instance"), "calls/op"),
        "adjacency.build_graph.calls": (per_op_calls("adjacency.build_graph"), "calls/op"),
        "adjacency.graphs_per_parameter": (_ratio(calls.get("adjacency.build_graph", 0),
                                                  len(params)), "ratio"),
        "adjacency.neighbors.calls": (per_op_calls("adjacency.WeightGraph.neighbors"), "calls/op"),
        "adjacency.wq_cache.entries": (after["adjacency._WQ_CACHE"]["size"], "count"),
        "cycles.bm_cycle.calls": (per_op_calls("cycles.bm_cycle"), "calls/op"),
        "exactalg.laurent_new.calls": (per_op_calls("exactalg.LaurentPoly.__init__"), "calls/op"),
        "exactalg.laurent_mul.calls": (per_op_calls("exactalg.LaurentPoly.__mul__"), "calls/op"),
        "localmodel.shape_of.s": (per_op_s("localmodel.shape_of"), "s/op"),
        "localmodel.e_divisor_pattern.s": (per_op_s("localmodel.e_divisor_pattern"), "s/op"),
        "localmodel.symplectic_similitude.s": (per_op_s("localmodel.symplectic_similitude"), "s/op"),
        "localmodel.draw_accept_ratio": (_ratio(counters.get("draws_accepted", 0),
                                                counters.get("draw_attempts", 0)), "ratio"),
        "cli.load_presentation.s": (per_op_s("cli.load_presentation"), "s/op"),
        "cli.load_matrix.s": (per_op_s("cli.load_matrix"), "s/op"),
    })
    errors = traced.get("errors", {})
    for layer in LAYERS:
        m["%s.errors" % layer] = (errors.get(layer, 0), "count")
    traced_ms = sum(r["norm_ms"] for r in ops)
    m["trace.overhead_ratio"] = (_ratio(traced_ms, sum(untraced_ms[:n])), "ratio")
    return m


def spawn_worker(deadline, root, manifest_path, mode, seconds, min_ops=0, max_ops=None,
                 trace_out=None) -> dict:
    """Run one worker to completion, killing it at the monotonic `deadline`.
    Adds to its result `setup_s`: the time from just before the
    interpreter was launched to the end of the warm-up op, less the time
    of the worker's own reference runs during set-up, rescaled by the mean
    of the reference runs it made during and just after set-up."""
    cmd = [sys.executable, "-s", "-S", os.path.join(HERE, "worker.py"),
           root, manifest_path, mode, repr(float(seconds)), str(min_ops)]
    if max_ops is not None:
        cmd += [str(max_ops), trace_out]
    # Only the standard library, and a fixed hash seed: set iteration order,
    # and with it the work an op does, is then the same on every run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError("the %s worker was stopped: the run took over %d s"
                         % (mode, RUN_TIMEOUT_S)) from None
    if proc.returncode != 0:
        raise BenchError("%s worker exited with %d:\n%s" % (mode, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout)
    result["setup_wall_s"] = result["t_ready"] - started - result["ref_s"]
    result["setup_s"] = (result["setup_wall_s"] * worker.REF_NOMINAL_MS
                         / statistics.fmean(result["setup_ref_ms"]))
    return result


def _fmt(value) -> str:
    return repr(value) if isinstance(value, int) else "%.6g" % value


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = os.path.join(root, ".perfbench", "run-%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work)
    try:
        n_ops = max(math.ceil(seconds * MAX_RATE[workload]), RSS_OPS[workload]) + 8
        manifest = gen.generate(workload, seed, n_ops, work)
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        notes = []
        if not trace:
            setups, raw = [], []
            for mode in ["setup"] * SETUP_REPEATS + ["run"]:
                res = spawn_worker(deadline, root, manifest_path, mode, seconds, RSS_OPS[workload])
                setups.append(res["setup_s"])
                raw.append(res["setup_wall_s"])
            records = res["ops"]
            metrics, note = end_to_end(records, statistics.median(setups), RSS_OPS[workload])
            notes.append(note + ", setup %.3f s" % statistics.median(raw))
        else:
            ref = spawn_worker(deadline, root, manifest_path, "run", seconds * TRACE_SHARE)
            if not ref["ops"]:
                raise BenchError("no timed op ran")
            trace_out = os.path.join(root, ".perfbench", "trace-%s-%d.json" % (workload, seed))
            res = spawn_worker(deadline, root, manifest_path, "trace", seconds * 4,
                               max_ops=len(ref["ops"]), trace_out=trace_out)
            records = ref["ops"] + res["ops"]
            metrics = per_layer(res, [r["norm_ms"] for r in ref["ops"]], manifest["ops"])
            notes.append("%d ops traced over %d wrapped bindings; spans in %s"
                         % (len(res["ops"]), res["bindings"], os.path.relpath(trace_out, root)))
        if res.get("stream_exhausted"):
            notes.append("warning: the generated input stream ran out before the time did")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in records if not r["ok"]]
    for r in failed[:5]:
        notes.append("failed op: %s" % r["error"])
    return {"metrics": metrics, "attempted": len(records), "failed": len(failed), "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gsp4weights", "__init__.py")):
        print("error: run from a checkout of gsp4weights (no src/gsp4weights here)", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("workload=%s seed=%d seconds=%s trace=%d attempted=%d failed=%d op_fail_frac=%s"
          % (args.workload, args.seed, _fmt(args.seconds), args.trace, out["attempted"],
             out["failed"], _fmt(out["failed"] / out["attempted"])))
    for name, (value, unit) in out["metrics"].items():
        print("%-44s %14s %s" % (name, _fmt(value), unit))
    for note in out["notes"]:
        print("# " + note)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
