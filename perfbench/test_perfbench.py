"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench

Run from the repository root; the library tests import ``src/``.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

SMALL = {"graph_f1": 6, "graph_f2": 7, "alcove": 30, "localmodel": 4}


def _generate(workload, seed, tmp):
    out = os.path.join(tmp, "%s-%s" % (workload, seed))
    os.makedirs(out)
    return gen.generate(workload, seed, SMALL[workload], out), out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in gen.WORKLOADS:
                m1, d1 = _generate(workload, 7, os.path.join(tmp, "a"))
                m2, d2 = _generate(workload, 7, os.path.join(tmp, "b"))
                m3, _ = _generate(workload, 8, os.path.join(tmp, "c"))
                self.assertEqual(m1, m2, workload)
                names = sorted(os.listdir(d1))
                self.assertEqual(names, sorted(os.listdir(d2)))
                self.assertEqual(filecmp.cmpfiles(d1, d2, names, shallow=False)[0], names)
                self.assertNotEqual(m1["ops"], m3["ops"], workload)
                self.assertEqual(m1["warmup"], m3["warmup"], workload)
                self.assertNotIn(m1["warmup"], m1["ops"], workload)

    def test_generator_does_not_import_the_library(self):
        code = ("import sys; sys.path.insert(0, %r); import gen; "
                "sys.exit(any(m.startswith('gsp4weights') for m in sys.modules))" % HERE)
        self.assertEqual(subprocess.run([sys.executable, "-c", code]).returncode, 0)

    def test_alcove_lambdas_are_distinct_and_dominant(self):
        with tempfile.TemporaryDirectory() as tmp:
            manifest, _ = _generate("alcove", 3, tmp)
        lams = [tuple(op["lambda"]) for op in manifest["ops"]]
        self.assertEqual(len(set(lams)), len(lams))
        self.assertTrue(all(1 <= a <= 6 and 0 <= b <= a and -3 <= c <= 3 for a, b, c in lams))
        # the first round visits every (a, b) once
        self.assertEqual({lam[:2] for lam in lams[:27]}, set(gen.dominant_lambdas()))

    def test_presentations_load_and_are_deep(self):
        from gsp4weights.cli import load_presentation

        with tempfile.TemporaryDirectory() as tmp:
            for workload, f in (("graph_f1", 1), ("graph_f2", 2)):
                manifest, out = _generate(workload, 5, tmp)
                for op in manifest["ops"]:
                    rho = load_presentation(os.path.join(out, op["rhobar"]))
                    self.assertEqual((rho.kind, rho.f), ("param", f))
                    self.assertGreaterEqual(rho.depth(), gen.GRAPH_DEPTH)
                    self.assertIn(rho.p, gen.GRAPH_PRIMES)

    def test_tables_match_the_library(self):
        from gsp4weights.admissible import adm_dual_set, elem_sort_key
        from gsp4weights.affine import ExtAffine
        from gsp4weights.base import ETA, Weight, weyl_from_word
        from gsp4weights.exactalg import PrimeField
        from gsp4weights.localmodel import PolyMat, monomial_matrix

        lib = sorted(adm_dual_set(ETA), key=elem_sort_key)
        self.assertEqual([(x.nu.a, x.nu.b, x.nu.c, x.w.word) for x in lib], list(gen.ADM_DUAL_ETA))
        field = PrimeField(37)
        for z in gen.ADM_DUAL_ETA:
            ours = PolyMat.from_json_obj(field, gen.matrix_fixture(gen.monomial(z, 37), 37)["rows"])
            elem = ExtAffine(Weight(*z[:3]), weyl_from_word(z[3]))
            self.assertEqual(ours, monomial_matrix(elem, field), z)


class StatsTest(unittest.TestCase):
    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(1, 101))), (90, 90, 10))
        self.assertEqual(run.tail_percentile(list(range(1, 201))), (190, 95, 10))
        for n in (11, 16, 37, 64, 150):
            xs = [float(i) for i in range(n)]
            value, pct, beyond = run.tail_percentile(xs)
            self.assertGreaterEqual(beyond, 10)
            self.assertEqual(beyond, sum(1 for x in xs if x > value))
            # one percentile higher leaves fewer than ten beyond
            rank = -(-(pct + 1) * n // 100)
            self.assertTrue(pct == 99 or n - rank < 10, n)

    def test_tail_percentile_with_too_few_samples_is_the_median(self):
        value, pct, beyond = run.tail_percentile([3.0, 1.0, 2.0])
        self.assertEqual((value, pct, beyond), (2.0, 50, 1))

    def test_end_to_end_counts_only_correct_ops(self):
        records = [{"ms": 2.0, "norm_ms": 1.0, "ok": True, "rss_kb": 1024 * (i + 1)} for i in range(3)]
        records.append({"ms": 2.0, "norm_ms": 1.0, "ok": False, "rss_kb": 8192})
        metrics, _ = run.end_to_end(records, 0.6, 2)
        self.assertEqual(metrics["ops_per_s"], (750.0, "1/s"))
        self.assertEqual(metrics["setup_s"], (0.6, "s"))
        # read after the second op, not at the end of the run
        self.assertEqual(metrics["peak_rss_mb"], (2.0, "MB"))
        with self.assertRaises(run.BenchError):
            run.end_to_end(records, 0.6, 5)


class RunOpsTest(unittest.TestCase):
    def test_wrong_result_and_exception_count_as_failed_ops(self):
        def op(ctx, inp):
            if inp == "boom":
                raise ZeroDivisionError("injected")
            return inp * 2

        def check(ctx, inp, out):
            assert out == inp * 2 and inp != "bad", "injected wrong result"

        records = worker.run_ops({}, [1, "bad", "boom", 4], op, check, seconds=1e9,
                                 reference=lambda: worker.REF_NOMINAL_MS)
        self.assertEqual([r["ok"] for r in records], [True, False, False, True])
        self.assertIn("injected wrong result", records[1]["error"])
        self.assertIn("ZeroDivisionError", records[2]["error"])
        for r in records:
            self.assertAlmostEqual(r["norm_ms"], r["ms"])

    def test_rescaling_and_time_budget(self):
        refs = iter([worker.REF_NOMINAL_MS] + [2 * worker.REF_NOMINAL_MS] * 10)
        records = worker.run_ops({}, range(10), lambda c, i: i, lambda c, i, o: None,
                                 seconds=0.0, reference=lambda: next(refs))
        self.assertEqual(records, [])
        refs = iter([2 * worker.REF_NOMINAL_MS] * 10)
        records = worker.run_ops({}, range(10), lambda c, i: i, lambda c, i, o: None,
                                 seconds=1e9, max_ops=3, reference=lambda: next(refs))
        self.assertEqual(len(records), 3)
        for r in records:
            self.assertAlmostEqual(r["norm_ms"], r["ms"] / 2)

    def test_min_ops_outlast_the_time_budget(self):
        records = worker.run_ops({}, range(10), lambda c, i: i, lambda c, i, o: None,
                                 seconds=0.0, min_ops=4, reference=lambda: worker.REF_NOMINAL_MS)
        self.assertEqual(len(records), 4)
        self.assertTrue(all(r["rss_kb"] > 0 for r in records))


class TracingTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        names = ["a.f", "b.g", "a.h"]
        spans = [  # (name id, start, end, parent, outermost)
            (0, 0, 100, -1, True),   # a.f
            (1, 10, 40, 0, True),    # b.g inside a.f
            (0, 15, 25, 1, False),   # a.f again, recursively, inside b.g
            (2, 50, 70, 0, True),    # a.h inside a.f
            (1, 120, 130, -1, True),  # b.g at top level
        ]
        totals = tracing.fold_spans(spans, names)
        self.assertEqual(totals["self_ns"], {"a": 50 + 10 + 20, "b": 20 + 10})
        self.assertEqual(totals["calls"], {"a.f": 2, "b.g": 2, "a.h": 1})
        self.assertEqual(totals["incl_ns"], {"a.f": 100, "b.g": 40, "a.h": 20})

    def test_install_wraps_every_binding_and_counts_escaping_errors(self):
        inner = types.ModuleType("gsp4weights.inner")
        outer = types.ModuleType("gsp4weights.outer")
        exec("def leaf(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n"
             "def _helper(x):\n    return leaf(x)\n", inner.__dict__)
        exec("def top(x):\n    try:\n        return leaf(x)\n    except ValueError:\n        return 0\n",
             outer.__dict__)
        for mod in (inner, outer):
            for fn in list(vars(mod).values()):
                if isinstance(fn, types.FunctionType):
                    fn.__module__ = mod.__name__
        outer.leaf = inner.leaf  # a from-import alias
        tracer = tracing.Tracer()
        self.assertEqual(tracer.install([inner, outer]), 4)
        self.assertIs(outer.leaf, inner.leaf)
        self.assertEqual(outer.top(-1), 0)
        tracer.end_op()
        self.assertEqual(inner._helper(2), 2)
        tracer.end_op()
        self.assertEqual(tracer.totals["calls"],
                         {"outer.top": 1, "inner.leaf": 2, "inner._helper": 1})
        # the error left layer 'inner' into layer 'outer', and was caught there
        self.assertEqual(dict(tracer.errors), {"inner": 1})
        self.assertEqual(len(tracer.kept), 4)
        # spans of an op's check are dropped, those of the op are kept
        worker.run_ops({}, [3], lambda c, i: outer.top(i), lambda c, i, o: inner._helper(o),
                       seconds=1e9, tracer=tracer, reference=lambda: worker.REF_NOMINAL_MS)
        self.assertEqual(tracer.totals["calls"],
                         {"outer.top": 2, "inner.leaf": 3, "inner._helper": 1})


if __name__ == "__main__":
    unittest.main()
