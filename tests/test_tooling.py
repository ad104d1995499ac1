"""The benchmark under perfbench/ imports the package by module and name.

These tests read perfbench without changing it, so that deleting or
renaming a module, function or cache the benchmark uses fails here rather
than in a benchmark run.
"""

import ast
import importlib
import importlib.util
import os
import re
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")


def _load_worker():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(PERFBENCH, "worker.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_imports_every_module_it_names(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load_worker()
    mods = worker.import_library(ROOT)
    assert [m.__name__ for m in mods] == ["gsp4weights." + m for m in worker.MODULES]


def test_benchmark_names_exist():
    with open(os.path.join(PERFBENCH, "worker.py")) as fh:
        tree = ast.parse(fh.read())
    wanted = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("gsp4weights.")
        for alias in node.names
    ]
    with open(os.path.join(PERFBENCH, "run.py")) as fh:
        wanted += [("gsp4weights." + m, name)
                   for m, name in re.findall(r'"(\w+)\.(_\w+_CACHE)"', fh.read())]
    assert wanted
    missing = [(m, name) for m, name in wanted
               if not hasattr(importlib.import_module(m), name)]
    assert missing == []
