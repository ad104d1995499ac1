"""Rules on the shape of the package that no behavioural test sees.

The benchmark under perfbench/ imports the package by module and name.
These tests read perfbench without changing it, so that deleting or
renaming a module, function, class or cache the benchmark uses fails here
rather than in a benchmark run.

Every top-level function and class in src/ must be reachable from
something the program runs, or be named in ACCEPTANCE_API; every method
and property of a src/ class must be named by some code other than
itself, or be one of the ACCEPTANCE_METHODS the acceptance gate calls;
every name assigned at module level must be read; importing a module
runs no statement but definitions; and every import sits at the top of
its module, none inside a function.  Test-only helpers and self-checks
live under tests/.

A name match cannot see an arithmetic operator, so every one a src/
class defines is traced instead: it must run on a golden CLI line or on
a benchmark workload's warm-up op.

A shift by a non-constant amount packs or unpacks polynomials evaluated
at v = 2^w, so every one lies in exactalg's `_pack` or `_unpack`, the one
Kronecker substitution behind every polynomial and matrix product.

An unbounded cache keeps an entry per distinct argument for the life of
the process, so only tables of no arguments may be cached whole.

`admissible.elem_sort_key` makes an element's alcove again, so it is
named only where no alcove is at hand.

A record is a NamedTuple made whole by its one maker, so no definition
is a `cached_property` filled in on first read, no module imports
`dataclasses`, a presentation is made only by `TamePresentation.make` and
a rational function only by `RatFunc.make`.  Only `LaurentPoly` keeps
slots behind a raising `__setattr__`, and nothing in src/ calls
`object.__setattr__`.

An adjacency instance is derived on (s, mu) slots: the instance maker
of `adjacency._deriver` calls no `compose` and makes no presentation, and
a full slot's key is read only by `_SlotTable.numbered`, which numbers
it.

A nested function that names itself holds its own closure cell, a
reference cycle left for the collector on every call of the function
around it, so no src/ function defines a nested function that refers to
its own name: recursion lives in module-level functions.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import test_golden

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PERFBENCH = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "gsp4weights")


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _package_trees():
    """Module name -> parsed source, for every module of the package."""
    return {f[:-3]: _parse(os.path.join(PACKAGE, f))
            for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}


def _read(path):
    with open(path) as fh:
        return fh.read()


def _library_imports(tree):
    """(module, name) of every `from gsp4weights.<module> import name`."""
    return [
        (node.module.split(".", 1)[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gsp4weights.")
        for alias in node.names
    ]


def _run_caches():
    """(module, name) of the caches the benchmark runner reads by name."""
    return re.findall(r'"(\w+)\.(_\w+_CACHE)"', _read(os.path.join(PERFBENCH, "run.py")))


def _traced_classes():
    """(module, class) of every class whose methods the tracer wraps."""
    for node in _parse(os.path.join(PERFBENCH, "tracing.py")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "CLASS_METHODS":
            return [(m, cls) for m, classes in ast.literal_eval(node.value).items()
                    for cls in classes]
    raise AssertionError("perfbench/tracing.py defines no CLASS_METHODS")


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_imports_every_module_it_names(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    worker = _load_perfbench("worker")
    mods = worker.import_library(ROOT)
    assert [m.__name__ for m in mods] == ["gsp4weights." + m for m in worker.MODULES]


def test_benchmark_unit_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def _run_workloads(tmp_path, timed_ops):
    """Prepare each benchmark workload, then run its warm-up op and its
    first `timed_ops` timed ops in the worker's own call forms, keyword
    arguments included, each checked as a benchmark run checks it."""
    gen, worker = _load_perfbench("gen"), _load_perfbench("worker")
    assert sorted(worker.WORKLOADS) == sorted(gen.WORKLOADS)
    for name, (prepare, op, check) in worker.WORKLOADS.items():
        out_dir = tmp_path / name
        out_dir.mkdir()
        manifest = gen.generate(name, 0, 1, str(out_dir))
        ctx = {"dir": str(out_dir)}
        prepare(ctx)
        for inp in [manifest["warmup"]] + manifest["ops"][:timed_ops]:
            check(ctx, inp, op(ctx, inp))


def test_every_benchmark_workload_runs_once(tmp_path):
    _run_workloads(tmp_path, 1)


def test_benchmark_names_exist():
    wanted = _library_imports(_parse(os.path.join(PERFBENCH, "worker.py")))
    wanted += _run_caches() + _traced_classes()
    assert wanted
    missing = [(m, name) for m, name in wanted
               if not hasattr(importlib.import_module("gsp4weights." + m), name)]
    assert missing == []
    # the traced run reads each cache's size (a dict) or its hit counts (an
    # lru_cache) by name
    read = set(re.findall(r'after\["(\w+)\.(\w+)"\]', _read(os.path.join(PERFBENCH, "run.py"))))
    assert ("affine", "length") in read
    for m, name in read:
        obj = getattr(importlib.import_module("gsp4weights." + m), name)
        assert isinstance(obj, dict) or hasattr(obj, "cache_info"), (m, name)


# (module, name) of the library's definitions that the acceptance gate
# calls or reads and neither the CLI nor the benchmark runs: the Levi
# labels and sets, the reflections, the colength-one count, the cycle
# classes, the fixed-point sets, the Bruhat interval and the weight maps
# it times on their own.
ACCEPTANCE_API = (
    ("admissible", "LEVI_LABELS"),
    ("admissible", "adm_levi_conjugate"),
    ("admissible", "levi_adm_set"),
    ("admissible", "levi_finite_weyl"),
    ("admissible", "levi_minimal_rep"),
    ("affine", "bruhat_lower_interval"),
    ("base", "REFLECTIONS"),
    ("cycles", "GrothendieckClass"),
    ("cycles", "restricted_chain"),
    ("cycles", "weyl_class"),
    ("localmodel", "fixed_point_set_T"),
    ("localmodel", "fixed_point_set_colone"),
    ("weights", "jh_factors"),
    ("weights", "type_from_target"),
    ("weights", "w_question_set"),
)


def _reach(api):
    """(defs, reached): the top-level functions and classes of the package,
    and those reached from the roots and from `api`.

    The roots are `cli.main`, every module's top-level statements (with
    the decorators, defaults and bases of its definitions), the names
    perfbench's worker imports, the caches its runner reads and the
    classes its tracer wraps.  A reached definition reaches every name and
    attribute in its body that resolves, in its module, to a definition
    there or to a `from .x import y` alias.
    """
    trees = _package_trees()
    defs, scope = {}, {}
    for mod, tree in trees.items():
        scope[mod] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
                scope[mod][node.name] = (mod, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                scope[mod].update({a.asname or a.name: (node.module, a.name) for a in node.names})

    def refs(mod, nodes):
        for node in nodes:
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name in scope[mod]:
                    yield scope[mod][name]

    todo = [("cli", "main")]
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                todo += refs(mod, node.decorator_list + node.args.defaults
                             + [d for d in node.args.kw_defaults if d])
            elif isinstance(node, ast.ClassDef):
                todo += refs(mod, node.decorator_list + node.bases + node.keywords)
            else:
                todo += refs(mod, [node])
    todo += _library_imports(_parse(os.path.join(PERFBENCH, "worker.py")))
    todo += _run_caches() + _traced_classes() + list(api)
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += refs(key[0], defs[key].body)
    return defs, reached


def unreachable_definitions():
    """Top-level functions and classes of the package that neither the
    program nor ACCEPTANCE_API reaches."""
    defs, reached = _reach(ACCEPTANCE_API)
    return sorted("%s.%s" % key for key in defs if key not in reached)


def test_every_library_definition_is_reachable():
    assert unreachable_definitions() == []


def unnamed_methods():
    """Methods and properties of the package's classes, dunders aside,
    as "module.Class.name", whose name is read as an attribute nowhere in
    src/ outside their own body and nowhere in perfbench's worker.

    Names are matched, not resolved: a method that shares its name with
    one in use (an `act` or a `display`) passes here."""
    attrs: dict[str, list[int]] = {}
    methods = []
    for mod, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(id(node))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [(mod, cls.name, node) for node in cls.body
                            if isinstance(node, ast.FunctionDef)
                            and not (node.name.startswith("__") and node.name.endswith("__"))]
    worker = {node.attr for node in ast.walk(_parse(os.path.join(PERFBENCH, "worker.py")))
              if isinstance(node, ast.Attribute)}
    out = []
    for mod, cls, node in methods:
        inside = {id(sub) for sub in ast.walk(node)}
        if node.name not in worker and all(a in inside for a in attrs.get(node.name, ())):
            out.append("%s.%s.%s" % (mod, cls, node.name))
    return sorted(out)


# (module, class, method) of the methods that only the acceptance gate
# calls: criterion 1 checks the pairing against the coweight action.
ACCEPTANCE_METHODS = (("base", "FiniteWeyl", "act_coweight"),)


def test_every_library_method_is_named_outside_itself():
    # a method only tests call is deleted, or moved to tests/ as a function;
    # each allowed one is a method the acceptance gate calls
    assert unnamed_methods() == sorted("%s.%s.%s" % key for key in ACCEPTANCE_METHODS)
    gate = _parse(os.path.join(ROOT, "tests", "test_acceptance.py"))
    called = {node.func.attr for node in ast.walk(gate)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert [key for key in ACCEPTANCE_METHODS if key[2] not in called] == []


ARITHMETIC_OPERATORS = frozenset(
    "__%s__" % op for name in ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod",
                               "divmod", "pow", "lshift", "rshift", "and", "xor", "or")
    for op in (name, "r" + name)) | {"__neg__", "__pos__", "__abs__", "__invert__"}


def _class_operators():
    """"module.Class.name" -> code object of every arithmetic operator a
    class body in src/ defines with `def`; an alias such as
    `__radd__ = __add__` shares the code of the operator it names."""
    out = {}
    for mod, tree in _package_trees().items():
        module = importlib.import_module("gsp4weights." + mod)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and node.name in ARITHMETIC_OPERATORS:
                        code = vars(getattr(module, cls.name))[node.name].__code__
                        out["%s.%s.%s" % (mod, cls.name, node.name)] = code
    return out


def test_every_operator_runs_on_a_program_path(tmp_path):
    # an operator is a method no name search sees; one that only tests or
    # nothing run is deleted.  The program paths are every golden CLI line
    # and each benchmark workload's warm-up op, traced by code object.
    operators = _class_operators()
    assert "exactalg.LaurentPoly.__mul__" in operators
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [test_golden._stdout_of(argv)[0] for argv in test_golden.CASES.values()]
        _run_workloads(tmp_path, 0)
    finally:
        sys.setprofile(previous)
    assert set(codes) == {0}
    assert sorted(name for name, code in operators.items() if code not in ran) == []


def _assigned(node):
    """The names a module-level statement assigns."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
    return [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]


def unread_module_names():
    """Names assigned at module level in src/, as "module.name", that
    nothing reads, dunders other than `__all__` aside.

    A name is read where it is loaded in its module outside its own
    assignment, or where another module imports it with `from .module
    import name` and loads it; a cache the benchmark runner reads and a
    name in ACCEPTANCE_API count as read."""
    assigned, read = set(), set(_run_caches()) | set(ACCEPTANCE_API)
    for mod, tree in _package_trees().items():
        scope, inside = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                scope.update({a.asname or a.name: (node.module, a.name) for a in node.names})
        for node in tree.body:
            for name in _assigned(node):
                if name == "__all__" or not (name.startswith("__") and name.endswith("__")):
                    assigned.add((mod, name))
                    scope[name] = (mod, name)
                    inside[name] = {id(sub) for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in scope
                    and id(node) not in inside.get(node.id, ())):
                read.add(scope[node.id])
    return sorted("%s.%s" % key for key in assigned - read)


def test_every_module_name_is_read():
    # a constant, alias or __all__ that only tests or nothing read is deleted
    assert unread_module_names() == []


def test_import_runs_only_definitions():
    # importing a module defines names and checks no facts: the only
    # top-level expression statement is the module docstring, no
    # statement at the top is an assert, and a self-check is a test
    # under tests/
    found = []
    for mod, tree in _package_trees().items():
        for i, node in enumerate(tree.body):
            docstring = i == 0 and isinstance(getattr(node, "value", None), ast.Constant) \
                and isinstance(node.value.value, str)
            if isinstance(node, ast.Assert) or isinstance(node, ast.Expr) and not docstring:
                found.append("%s.py:%d" % (mod, node.lineno))
    assert found == []


def test_no_import_inside_a_function():
    # a module's imports are read at its top, so the import graph is the
    # one the module headers show
    found = sorted({"%s.py:%d" % (mod, sub.lineno)
                    for mod, tree in _package_trees().items() for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))})
    assert found == []


def test_acceptance_imports_only_reached_names():
    # a library definition the acceptance gate imports is one the program
    # reaches or one ACCEPTANCE_API names, so a helper that only tests use
    # fails here; each ACCEPTANCE_API name is one the gate imports
    defs, reached = _reach(())
    imported = _library_imports(_parse(os.path.join(ROOT, "tests", "test_acceptance.py")))
    assert set(ACCEPTANCE_API) <= set(imported)
    assert [key for key in imported
            if key in defs and key not in reached and key not in ACCEPTANCE_API] == []


def _package_modules():
    return [importlib.import_module("gsp4weights." + f[:-3])
            for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py") and f != "__init__.py"]


def _module_attrs():
    """(module, name, object) of every module-level name of the package."""
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            yield mod.__name__.rsplit(".", 1)[1], attr, obj


def test_unbounded_lru_caches_take_no_arguments():
    # affine.length keeps its argument cache while the benchmark reports
    # its hit ratio by name
    unbounded = {
        (m, attr): inspect.signature(obj.__wrapped__).parameters
        for m, attr, obj in _module_attrs()
        if hasattr(obj, "cache_parameters") and obj.__module__ == "gsp4weights." + m
        and obj.cache_parameters()["maxsize"] is None
    }
    assert unbounded
    assert [key for key, params in unbounded.items()
            if params and key != ("affine", "length")] == []


def test_module_level_caches_are_the_ones_the_benchmark_reads():
    found = {(m, attr) for m, attr, obj in _module_attrs()
             if attr.endswith("_CACHE") and isinstance(obj, dict)}
    assert found and found <= set(_run_caches())


def _span_names():
    """The span names the benchmark runner reads per op, by call count or
    inclusive seconds."""
    text = _read(os.path.join(PERFBENCH, "run.py"))
    return set(re.findall(r'(?:per_op_calls|per_op_s|calls\.get)\("([\w.]+)"', text))


def test_benchmark_span_names_resolve():
    # a span is "module.function" or "module.Class.method"; a renamed
    # function would leave its metric at zero rather than fail
    names = _span_names()
    assert "weights.intersect_w_jh" in names and "adjacency.build_instance" in names
    missing = []
    for name in sorted(names):
        mod, *owners, attr = name.split(".")
        owner = importlib.import_module("gsp4weights." + mod)
        for cls in owners:
            owner = getattr(owner, cls, None)
        fn = getattr(owner, attr, None)
        if (owners and not inspect.isclass(owner)) or not callable(fn) or inspect.isclass(fn):
            missing.append(name)
    # serre_weight_of_presentation left the package with the slot kernel;
    # its dead metric goes with ROADMAP item 4
    assert missing == ["weights.serre_weight_of_presentation"]


def test_traced_class_methods_resolve():
    # Tracer.install skips a listed method its class does not define, so a
    # renamed or deleted method would drop out of the per-layer figures
    table = None
    for node in _parse(os.path.join(PERFBENCH, "tracing.py")).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and targets == ["CLASS_METHODS"]:
            table = ast.literal_eval(node.value)
    assert table and "PolyMat" in table["localmodel"] and "LaurentPoly" in table["exactalg"]
    missing = []
    for mod, classes in sorted(table.items()):
        module = importlib.import_module("gsp4weights." + mod)
        for cls_name, methods in sorted(classes.items()):
            cls = getattr(module, cls_name)
            missing += ["%s.%s.%s" % (mod, cls_name, m) for m in methods if m not in cls.__dict__]
    # LaurentPoly's evaluate, negation, reflected subtraction and power,
    # RatFunc's arithmetic, PolyMat's scalar product, sum, subtraction,
    # derivative and inverse_unit_det were deleted from the library, its
    # transpose and LaurentPoly's truncate moved to tests/oracles.py, and
    # RatFunc and PolyMat became NamedTuples made by `make`, with no
    # __init__ (no per-layer metric reads either); their tracer entries go
    # with the next benchmark change
    assert missing == ["exactalg.LaurentPoly.%s" % m for m in (
        "__neg__", "__rsub__", "__pow__", "truncate", "evaluate")] + ["exactalg.RatFunc.%s" % m for m in (
        "__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__",
        "__rtruediv__")] + ["localmodel.PolyMat.%s" % m for m in (
        "__init__", "__rmul__", "__add__", "__sub__", "transpose", "derivative",
        "inverse_unit_det")]


def test_only_the_slot_table_makes_weight_parts():
    # one maker of weight parts: every call of _slot_parts is inside
    # class _SlotTable
    tree = _parse(os.path.join(PACKAGE, "weights.py"))
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "_SlotTable"
              for node in ast.walk(cls)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_slot_parts"]
    assert calls
    assert [node.lineno for node in calls if id(node) not in inside] == []


def test_instances_are_derived_without_presentations():
    # the instance maker inside adjacency._deriver works on (s, mu) slots:
    # it calls neither compose, presentation_from_w_tilde nor
    # TamePresentation.make (only a refused presentation is made, by
    # adjacency._presented, to be named)
    tree = _package_trees()["adjacency"]
    (deriver,) = [fn for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_deriver"]
    (derive,) = [fn for fn in deriver.body if isinstance(fn, ast.FunctionDef)]
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(derive) if isinstance(node, ast.Call)}
    assert {"read", "numbered"} <= called
    assert called & {"compose", "presentation_from_w_tilde", "make", "TamePresentation"} == set()


def test_only_the_slot_maker_reads_slot_numbers_by_key():
    # a full slot's key is hashed where it is made and numbered: the
    # key-to-number dict of _SlotTable is read only in _SlotTable.numbered
    trees = _package_trees()
    (table,) = [cls for cls in trees["weights"].body
                if isinstance(cls, ast.ClassDef) and cls.name == "_SlotTable"]
    (slot,) = [fn for fn in table.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "numbered"]
    inside = {id(node) for node in ast.walk(slot)}
    reads = [(mod, node) for mod, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_numbers"
             and isinstance(node.ctx, ast.Load)]
    assert reads
    assert [(mod, node.lineno) for mod, node in reads if id(node) not in inside] == []


def _self_naming_nested_functions(trees):
    """module.outer.inner of every nested function that names itself."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted({"%s.%s.%s" % (name, outer.name, inner.name)
                   for name, tree in trees.items() for outer in ast.walk(tree)
                   if isinstance(outer, funcs)
                   for inner in ast.walk(outer) if inner is not outer and isinstance(inner, funcs)
                   and any(isinstance(node, ast.Name) and node.id == inner.name
                           for node in ast.walk(inner))})


def test_no_nested_function_refers_to_itself():
    # a recursive closure is a reference cycle on every call: the chain of
    # intersect_w_jh is a module-level function taking its state
    assert _self_naming_nested_functions(_package_trees()) == []
    recursive = ast.parse("def f():\n    def g(n):\n        return g(n - 1) if n else 0\n")
    assert _self_naming_nested_functions({"m": recursive}) == ["m.f.g"]


def test_only_instance_makers_read_a_weight_alone():
    # F at one index tuple is read alone only for the sigma1 of an instance
    # built alone, in adjacency.build_instance: a derived tau's weights are
    # read off its full slots
    trees = _package_trees()
    inside = {id(node) for fn in trees["adjacency"].body
              if isinstance(fn, ast.FunctionDef) and fn.name == "build_instance"
              for node in ast.walk(fn)}
    reads = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "weight"]
    assert reads
    assert [(name, node.lineno) for name, node in reads if id(node) not in inside] == []


def test_elem_sort_key_only_where_no_alcove_is_at_hand():
    # the (length, nu, word) order is read off the alcove in hand where
    # there is one (adm_set's closure); elem_sort_key, which makes the
    # alcove again, is named only in the functions below and on the
    # --dual path of cli._cmd_adm
    trees = _package_trees()
    allowed = {("admissible", "translation_generators"), ("admissible", "adm_set_oracle"),
               ("weights", "_ap_pairs_single"), ("weights", "_ap_prime_pairs_single")}
    fns = {(name, fn.name): fn for name, tree in trees.items() for fn in tree.body
           if isinstance(fn, ast.FunctionDef)}
    (dual,) = [node for node in ast.walk(fns["cli", "_cmd_adm"]) if isinstance(node, ast.If)
               and isinstance(node.test, ast.Attribute) and node.test.attr == "dual"]
    inside = {id(node) for key in allowed for node in ast.walk(fns[key])}
    inside |= {id(node) for stmt in dual.body for node in ast.walk(stmt)}
    uses = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "elem_sort_key"
            and isinstance(node.ctx, ast.Load)]
    assert uses
    assert [(name, node.lineno) for name, node in uses if id(node) not in inside] == []


def test_no_definition_is_a_cached_property():
    found = sorted("%s.py:%d" % (mod, dec.lineno)
                   for mod, tree in _package_trees().items() for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for dec in node.decorator_list
                   if getattr(dec, "id", getattr(dec, "attr", None)) == "cached_property")
    assert found == []


def _calls_outside_make(trees, home, cls_name):
    """(module, line) of each src/ call of `cls_name(` outside the `make`
    of the class, defined in module `home`; some call must exist."""
    (make,) = [node for cls in trees[home].body
               if isinstance(cls, ast.ClassDef) and cls.name == cls_name
               for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "make"]
    inside = {id(node) for node in ast.walk(make)}
    calls = [(mod, node) for mod, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and cls_name in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls
    return [(mod, node.lineno) for mod, node in calls if id(node) not in inside]


def test_records_are_named_tuples_made_by_their_one_maker():
    # one record idiom: no module imports dataclasses, not even through a
    # module it imports, and TamePresentation( is called only inside
    # TamePresentation.make, which adds the depth its fields carry
    trees = _package_trees()
    found = sorted("%s.py:%d" % (mod, node.lineno)
                   for mod, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.Import)
                   and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
                   or isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "dataclasses")
    assert found == []
    assert _calls_outside_make(trees, "weights", "TamePresentation") == []
    modules = sorted(mod for mod in trees if mod != "__init__")
    assert len(modules) == 10
    code = "import sys; sys.path.insert(0, %r); %s; print('dataclasses' in sys.modules)" % (
        os.path.join(ROOT, "src"), "; ".join("import gsp4weights." + m for m in modules))
    out = subprocess.run([sys.executable, "-s", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_only_laurent_polys_hand_roll_immutability():
    # every other record is a NamedTuple: no src/ module calls
    # object.__setattr__, only LaurentPoly defines __setattr__ (its slots
    # are set through their descriptors), and RatFunc( is called only
    # inside RatFunc.make, which reduces the fraction
    trees = _package_trees()
    setattr_calls = sorted(
        "%s.py:%d" % (mod, node.lineno) for mod, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__" and getattr(node.func.value, "id", None) == "object")
    assert setattr_calls == []
    defines = sorted("%s.%s" % (mod, cls.name) for mod, tree in trees.items()
                     for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for node in cls.body if isinstance(node, ast.FunctionDef)
                     and node.name == "__setattr__")
    assert defines == ["exactalg.LaurentPoly"]
    assert _calls_outside_make(trees, "exactalg", "RatFunc") == []


def test_only_the_kronecker_pair_shifts_by_a_variable_amount():
    # one Kronecker substitution: every << or >> whose shift amount is not
    # a constant is inside exactalg._pack or exactalg._unpack
    trees = _package_trees()
    inside = {id(node) for fn in trees["exactalg"].body
              if isinstance(fn, ast.FunctionDef) and fn.name in ("_pack", "_unpack")
              for node in ast.walk(fn)}
    shifts = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                op, amount = node.op, node.right
            elif isinstance(node, ast.AugAssign):
                op, amount = node.op, node.value
            else:
                continue
            if isinstance(op, (ast.LShift, ast.RShift)) and not isinstance(amount, ast.Constant):
                shifts.append((name, node))
    assert shifts
    assert [(name, node.lineno) for name, node in shifts if id(node) not in inside] == []


def _compares_fmt_with(node, names):
    """Whether `node` compares cfg.fmt with one of the string constants
    `names`, alone or in a tuple, list or set literal."""
    operands = [node.left] + node.comparators
    if not any(isinstance(o, ast.Attribute) and o.attr == "fmt"
               and getattr(o.value, "id", None) == "cfg" for o in operands):
        return False
    consts = [c for o in operands
              for c in (o.elts if isinstance(o, (ast.Tuple, ast.List, ast.Set)) else [o])]
    return any(isinstance(c, ast.Constant) and c.value in names for c in consts)


def test_only_emit_chooses_json_or_table():
    # one writer: every comparison of cfg.fmt with "json" or "table" is
    # inside cli._emit; graph's tests for "dot" and run's check of the
    # mode's formats name neither
    tree = _parse(os.path.join(PACKAGE, "cli.py"))
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_emit"
              for node in ast.walk(fn)}
    picks = [node for node in ast.walk(tree)
             if isinstance(node, ast.Compare) and _compares_fmt_with(node, ("json", "table"))]
    assert picks
    assert [node.lineno for node in picks if id(node) not in inside] == []
