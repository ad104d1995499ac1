"""Command-line front end: enumeration tables, weight graphs, cycle
reports, and local-model verification.

Every command writes a deterministic byte stream for a fixed
configuration and seed: iteration is over sorted structures, JSON is
dumped with sorted keys, and no timestamps or object identities leak
into the output.
"""

import argparse
import json
import random
import re
import shlex
import sys
from typing import NamedTuple

from .base import ETA, Weight, pairing, weyl_from_word, POSITIVE_COROOTS
from .affine import (
    RESTRICTED_ALCOVES,
    dual_length,
    length,
    translation,
    upper_arrow_leq_alcove,
)
from .admissible import (
    adm_dual_set,
    adm_set,
    adm_set_oracle,
    elem_sort_key,
    is_regular_element,
)
from .weights import (
    SerreWeight,
    TamePresentation,
    enumerate_ap,
    enumerate_ap_prime,
    jh_set,
    obvious_weights,
    w_question,
)
from .adjacency import build_graph, find_chain
from .cycles import bm_cycle, bm_sum, colength_one_components
from .exactalg import QQ, PrimeField, _is_prime
from .localmodel import (
    MonodromyParams,
    PolyMat,
    RegColOneParams,
    build_regcolone_matrix,
    dominance_leq,
    e_divisor_pattern,
    monodromy_defect,
    monodromy_params_of,
    monomial_matrix,
    regcolone_relation_holds,
    shape_of,
    symplectic_similitude,
)

COMMANDS = ("adm", "ap", "weights", "graph", "cycles", "localmodel", "selfcheck")

USAGE = """usage: gsp4weights <command> [options]

commands:
  selfcheck   run the module smoke tests
  adm         list an admissible set (--lambda a,b,c [--dual])
  ap          list admissible pairs (--f N [--prime])
  weights     predicted weights of a parameter (--rhobar FILE [--obvious])
  graph       weight adjacency graph (--rhobar FILE [--dot FILE] [--chains])
  cycles      cycle reports for a type (--tau FILE
              [--bm | --colength-one --rhobar FILE])
  localmodel  local model hooks (--verify-regcolone [--draws N] |
              --shape FILE --q Q)

common options: --fmt table|json|dot where written (selfcheck and
  localmodel --verify-regcolone: table only; dot: graph only), with
  --json and --table short for --fmt json and --fmt table; and where
  read: --p P (selfcheck, weights, graph, cycles, localmodel
  --verify-regcolone), --f N (ap), --seed S (localmodel --verify-regcolone);
  -h/--help prints a command's options
"""

# Per mode (see _mode_of): the common flags it reads and the formats it writes
_MODES = {"selfcheck": (("p",), ("table",)), "adm": ((), ("table", "json")),
          "ap": (("f",), ("table", "json")), "weights": (("p",), ("table", "json")),
          "graph": (("p",), ("table", "json", "dot")), "cycles": (("p",), ("table", "json")),
          "localmodel --shape": ((), ("table", "json")),
          "localmodel --verify-regcolone": (("p", "seed"), ("table",))}


class RunConfig(NamedTuple):
    """Shared run parameters; commands read what they need."""

    p: int = 37
    f: int = 1
    seed: int = 0
    fmt: str = "table"

    def validate(self) -> None:
        if self.p < 5 or not _is_prime(self.p):
            raise ValueError("p must be a prime >= 5 (got %r)" % (self.p,))
        if self.f < 1:
            raise ValueError("f must be a positive integer")
        if self.seed < 0:
            # random.Random seeds with |seed|, so -s would rerun the draws of s
            raise ValueError("seed must be a non-negative integer (got %d)" % self.seed)
        if self.fmt not in ("json", "table", "dot"):
            raise ValueError("format must be one of json, table, dot")


# ---------------------------------------------------------------------------
# serialization helpers


def _elem_json(x) -> dict:
    return {"nu": [x.nu.a, x.nu.b, x.nu.c], "w": x.w.word}


def _weight_json(sigma: SerreWeight) -> dict:
    return {"p": sigma.p, "parts": [[l.a, l.b, l.c] for l in sigma.parts]}


def _pair_json(pr) -> dict:
    return {"w1": [_elem_json(x) for x in pr.w1], "w2": [_elem_json(x) for x in pr.w2]}


def _cycle_json(cyc) -> list[dict]:
    return [{"weight": _weight_json(s), "mult": n} for s, n in cyc.items()]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# An integer on the command line: int() alone would also take underscores
# ("3_7"), non-ASCII digits and surrounding whitespace.
_INT = re.compile(r"-?[0-9]+")


def _int_arg(text: str) -> int:
    """argparse type of the integer flags; argparse names the flag."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    return int(text)


def _parse_lambda(text: str) -> Weight:
    """--lambda a,b,c: three integers, each with optional whitespace around
    it."""
    parts = [q.strip() for q in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--lambda expects three comma-separated integers, got %r" % text)
    if not all(_INT.fullmatch(q) for q in parts):
        raise ValueError("--lambda expects integers, got %r" % text)
    return Weight(*map(int, parts))


def _is_json_int(value) -> bool:
    # bool is a subclass of int, but JSON true/false are not numbers
    return isinstance(value, int) and not isinstance(value, bool)


def load_presentation(path: str, expect_p: int | None = None,
                      expect_kind: str | None = None) -> TamePresentation:
    """Read a tame presentation fixture; presentations are always supplied
    as files, never inferred from other inputs.  kind must be "type" or
    "param", p a prime >= 5, p and the mu entries JSON integers and each
    s entry a word in the letters 1 and 2."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("schema") != "gsp4weights/presentation/1":
        raise ValueError("%s: not a gsp4weights/presentation/1 fixture" % path)
    try:
        kind = obj["kind"]
        p = obj["p"]
        words = obj["s"]
        mus = obj["mu"]
    except KeyError:
        raise ValueError("%s: malformed presentation fixture" % path) from None
    if not _is_json_int(p):
        raise ValueError("%s: p must be an integer, got %s" % (path, json.dumps(p)))
    if expect_p is not None and p != expect_p:
        raise ValueError(
            "%s: fixture has p=%d but the run is configured with p=%d"
            % (path, p, expect_p)
        )
    try:  # _is_prime refuses a p too large to decide
        if p < 5 or not _is_prime(p):
            raise ValueError("p must be a prime >= 5, got %d" % p)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    if expect_kind is not None and kind != expect_kind:
        raise ValueError("%s: fixture has kind %s, expected %s"
                         % (path, json.dumps(kind), json.dumps(expect_kind)))
    if kind not in ("type", "param"):
        raise ValueError('%s: kind must be "type" or "param", got %s' % (path, json.dumps(kind)))
    if not isinstance(words, list) or not isinstance(mus, list):
        raise ValueError("%s: s and mu must be lists" % path)
    if len(words) != len(mus):
        raise ValueError("%s: s and mu have different lengths" % path)
    if not words:
        raise ValueError("%s: s and mu are empty; give one entry per embedding" % path)
    s = []
    for w in words:
        if not isinstance(w, str):
            raise ValueError("%s: s entry %s is not a string" % (path, json.dumps(w)))
        try:
            s.append(weyl_from_word(w))
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
    for m in mus:
        if not (isinstance(m, list) and len(m) == 3 and all(_is_json_int(v) for v in m)):
            raise ValueError("%s: mu entry %s is not three integers" % (path, json.dumps(m)))
    return TamePresentation.make(kind, tuple(s), tuple(Weight(*m) for m in mus), p)


def load_matrix(path: str, field) -> PolyMat:
    """Read a 4x4 polynomial matrix: four rows of four cells, each cell
    {"coeffs": {exponent: scalar}} (see PolyMat.from_json_obj), optionally
    wrapped in an object with a schema tag whose "rows" hold them; a
    wrapper's p, when present, must be a JSON integer equal to the field's
    characteristic."""
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        if obj.get("schema") != "gsp4weights/matrix/1":
            raise ValueError("%s: not a gsp4weights/matrix/1 fixture" % path)
        if "p" in obj:
            p = obj["p"]
            if not _is_json_int(p):
                raise ValueError("%s: p must be an integer, got %s" % (path, json.dumps(p)))
            if p != field.char:
                raise ValueError("%s: fixture has p=%d but is read over F_%d"
                                 % (path, p, field.char))
        obj = obj.get("rows")
    try:
        return PolyMat.from_json_obj(field, obj)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _emit(cfg: RunConfig, schema: str, pres: TamePresentation | None, doc: dict, *,
          header: dict, rows) -> list[str]:
    """The one writer of a command's result, in the run's format.  JSON:
    one document tagged gsp4weights/<schema>/1 whose "meta" holds the run
    parameters (f is the presentation's when there is one, with its kind
    and depth), beside the keys of `doc`.  Table: one comment line of those
    parameters and then `header` in sorted order, followed by `rows`."""
    meta = {"p": cfg.p, "f": cfg.f if pres is None else pres.f, "seed": cfg.seed}
    if pres is not None:
        meta["kind"] = pres.kind
        meta["depth"] = pres.depth()
    if cfg.fmt == "json":
        return [_dump(dict(doc, schema="gsp4weights/%s/1" % schema, meta=meta))]
    items = list(meta.items()) + sorted(header.items())
    return ["# " + " ".join("%s=%s" % kv for kv in items)] + list(rows)


# ---------------------------------------------------------------------------
# commands


def _cmd_selfcheck(cfg: RunConfig, args) -> list[str]:
    lines = []

    def check(name, fn):
        fn()
        lines.append("ok: %s" % name)

    def pairing_table():
        vals = tuple(pairing(ETA, POSITIVE_COROOTS[i]) for i in range(4))
        assert vals == (1, 1, 3, 2), vals
        assert sum(vals) == 7

    def eta_length():
        assert length(translation(ETA)) == 7

    def alcove_chain():
        for i in range(3):
            assert upper_arrow_leq_alcove(RESTRICTED_ALCOVES[i], RESTRICTED_ALCOVES[i + 1])

    def adm_oracles():
        fast = adm_set(ETA)
        slow = adm_set_oracle(ETA)
        assert fast.elements == slow.elements
        assert len(fast.elements) == len(adm_dual_set(ETA))

    def ap_count():
        reg = [x for x in adm_set(ETA).elements if is_regular_element(x)]
        assert len(enumerate_ap(1)) == len(reg)

    def local_matrices():
        z = translation(ETA)
        m = monomial_matrix(z, QQ)
        assert symplectic_similitude(m, cfg.p).ok
        fq = PrimeField(5)
        assert shape_of(monomial_matrix(z, fq)) == z

    check("root datum pairing table", pairing_table)
    check("length of the eta translation is 7", eta_length)
    check("restricted alcoves form an increasing chain", alcove_chain)
    check("admissible set enumerations agree", adm_oracles)
    check("pair count matches the regular admissibles", ap_count)
    check("local model matrices and shapes", local_matrices)
    lines.append("selfcheck passed (%d checks)" % len(lines))
    return lines


def _cmd_adm(cfg: RunConfig, args) -> list[str]:
    lam = _parse_lambda(args.lam)
    if args.dual:
        elems = sorted(adm_dual_set(lam), key=elem_sort_key)
        lens = [dual_length(x) for x in elems]
    else:
        elems = adm_set(lam).sorted_elements()
        lens = [length(x) for x in elems]
    max_len = max(lens, default=0)
    recs = [(x, n, max_len - n, is_regular_element(x)) for x, n in zip(elems, lens)]
    return _emit(cfg, "adm", None, {
        "lambda": [lam.a, lam.b, lam.c],
        "dual": bool(args.dual),
        "count": len(elems),
        "elements": [dict(_elem_json(x), length=n, colength=c, regular=r) for x, n, c, r in recs],
    }, header={"count": len(elems), "dual": "yes" if args.dual else "no",
               "lam": "%d,%d,%d" % (lam.a, lam.b, lam.c)},
        rows=("len=%d colen=%d regular=%s %s" % (n, c, "yes" if r else "no", x.display())
              for x, n, c, r in recs))


def _cmd_ap(cfg: RunConfig, args) -> list[str]:
    pairs = enumerate_ap_prime(cfg.f) if args.prime else enumerate_ap(cfg.f)
    flavor = "AP'" if args.prime else "AP"
    return _emit(cfg, "ap", None, {
        "flavor": flavor,
        "count": len(pairs),
        "pairs": [_pair_json(pr) for pr in pairs],
    }, header={"count": len(pairs), "flavor": flavor},
        rows=(pr.display() for pr in pairs))


def _cmd_weights(cfg: RunConfig, args) -> list[str]:
    rhobar = load_presentation(args.rhobar, expect_p=cfg.p, expect_kind="param")
    if args.obvious:
        table = obvious_weights(rhobar)
        rows = sorted(
            ((tuple(w.word for w in key), sigma) for key, sigma in table.items())
        )
        return _emit(cfg, "weights", rhobar, {
            "obvious": True,
            "count": len(rows),
            "weights": [
                {"w": list(key), "weight": _weight_json(sigma)}
                for key, sigma in rows
            ],
        }, header={"count": len(rows), "obvious": "yes"},
            rows=("w=(%s) %s" % (",".join(k or "e" for k in key), sigma.display())
                  for key, sigma in rows))
    rows = w_question(rhobar).items()
    return _emit(cfg, "weights", rhobar, {
        "obvious": False,
        "count": len(rows),
        "weights": [
            {"pair": _pair_json(pr), "weight": _weight_json(sigma)}
            for pr, sigma in rows
        ],
    }, header={"count": len(rows)},
        rows=("%s  %s" % (pr.display(), sigma.display()) for pr, sigma in rows))


def _cmd_graph(cfg: RunConfig, args) -> list[str]:
    if args.chains and cfg.fmt == "dot":
        raise ValueError("--chains has no dot output; use --fmt table or json")
    rhobar = load_presentation(args.rhobar, expect_p=cfg.p, expect_kind="param")
    graph = build_graph(rhobar)
    edges = graph.edges.items()
    if args.dot or cfg.fmt == "dot":
        dot_text = graph.to_dot()
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(dot_text)
        if cfg.fmt == "dot":
            return [dot_text.rstrip("\n")]
    chains = []
    if args.chains:
        for sigma in graph.vertices:
            res = find_chain(rhobar, sigma)
            chains.append((sigma, len(res.bfs), len(res.steered)))
    components = len(graph.components())
    doc = {
        "vertices": [_weight_json(v) for v in graph.vertices],
        "edges": [
            {
                "a": _weight_json(a),
                "b": _weight_json(b),
                "witnesses": len(wit),
            }
            for (a, b), wit in edges
        ],
        "obvious": [_weight_json(v) for v in sorted(graph.obvious,
                                                    key=lambda s: s.sort_key())],
        "connected": components <= 1,
        "components": components,
    }
    if args.chains:
        doc["chains"] = [
            {"weight": _weight_json(s), "bfs": nb, "steered": ns}
            for s, nb, ns in chains
        ]
    rows = ["%s -- %s  witnesses=%d" % (a.display(), b.display(), len(wit))
            for (a, b), wit in edges]
    rows += ["chain %s  bfs=%d steered=%d" % (sigma.display(), nb, ns)
             for sigma, nb, ns in chains]
    return _emit(cfg, "graph", rhobar, doc,
                 header={"vertices": len(graph.vertices), "edges": len(edges),
                         "connected": "yes" if components <= 1 else "no",
                         "obvious": len(graph.obvious)},
                 rows=rows)


def _cmd_cycles(cfg: RunConfig, args) -> list[str]:
    tau = load_presentation(args.tau, expect_p=cfg.p, expect_kind="type")
    if args.colength_one and args.bm:
        raise ValueError("--bm and --colength-one are separate reports; give one")
    if args.rhobar and not args.colength_one:
        raise ValueError("--rhobar is only read by --colength-one")
    if args.colength_one:
        if not args.rhobar:
            raise ValueError("--colength-one needs --rhobar as well")
        rhobar = load_presentation(args.rhobar, expect_p=cfg.p, expect_kind="param")
        report = colength_one_components(rhobar, tau)
        weights = sorted(report.weights, key=lambda s: s.sort_key())
        return _emit(cfg, "cycles", tau, {
            "mode": "colength-one",
            "cases": list(report.cases),
            "count": report.count,
            "weights": [_weight_json(s) for s in weights],
        }, header={"cases": ",".join(map(str, report.cases)), "count": report.count},
            rows=(s.display() for s in weights))
    if args.bm:
        res = bm_sum(tau)
        return _emit(cfg, "cycles", tau, {
            "mode": "bm-sum",
            "assumptions": list(res.assumptions),
            "cycle": _cycle_json(res.cycle),
        }, header={"mode": "bm-sum"},
            rows=["note: %s" % note for note in res.assumptions] + [res.cycle.display()])
    sigmas = sorted(jh_set(tau), key=lambda s: s.sort_key())
    rows = [(sigma, bm_cycle(sigma)) for sigma in sigmas]
    return _emit(cfg, "cycles", tau, {
        "mode": "per-weight",
        "cycles": [
            {
                "weight": _weight_json(sigma),
                "support": len(cyc.support()),
                "cycle": _cycle_json(cyc),
            }
            for sigma, cyc in rows
        ],
    }, header={"mode": "per-weight", "count": len(rows)},
        rows=("%s support=%d  %s" % (sigma.display(), len(cyc.support()), cyc.display())
              for sigma, cyc in rows))


def _generic_triple(p: int) -> tuple[int, int, int]:
    """A monodromy parameter triple whose four root values are nonzero and
    as central as the prime allows."""
    m = max(1, p // 6)
    return (3 * m, 2 * m, 2 * m)


def _cmd_localmodel(cfg: RunConfig, args) -> list[str]:
    if args.shape:
        if args.draws is not None:
            raise ValueError("--draws is only read by --verify-regcolone")
        if args.q is None:
            raise ValueError("--shape needs --q (the residue field size)")
        if args.q < 2 or not _is_prime(args.q):
            raise ValueError("q must be prime")
        field = PrimeField(args.q)
        mat = load_matrix(args.shape, field)
        try:
            z = shape_of(mat)
        except ValueError as exc:
            raise ValueError("%s: %s" % (args.shape, exc)) from None
        return _emit(cfg, "localmodel", None, {
            "mode": "shape",
            "q": args.q,
            "shape": _elem_json(z),
            "dual_length": dual_length(z),
        }, header={"mode": "shape", "q": args.q},
            rows=["shape: %s  dual_length=%d" % (z.display(), dual_length(z))])
    if args.q is not None:
        raise ValueError("--q is only read by --shape")

    draws = 100 if args.draws is None else args.draws
    if draws < 1:
        raise ValueError("--draws must be at least 1, got %d" % draws)
    p = cfg.p
    rng = random.Random(cfg.seed)
    lines = []
    for field, tag in ((QQ, "QQ"), (PrimeField(p), "F_%d" % p)):
        done = 0
        attempts = 0
        while done < draws:
            attempts += 1
            if attempts > 20 * draws:
                raise AssertionError("admissible draws kept degenerating")
            vals = [rng.randrange(1, p) for _ in range(7)]
            try:
                pr = RegColOneParams.admissible(field, p, *vals)
            except ValueError:
                continue
            mat = build_regcolone_matrix(pr, p)
            res = symplectic_similitude(mat, p)
            assert res.ok and res.e_order == 3 and res.unit_form, (
                "similitude failed over %s on draw %r" % (tag, vals))
            pat = e_divisor_pattern(mat, p)
            assert sum(pat) == 6 and dominance_leq(pat, (3, 2, 1, 0)), (
                "divisor pattern %r out of range over %s" % (pat, tag))
            done += 1
        lines.append("similitude+divisors over %s: %d/%d draws ok" % (tag, done, draws))

    a = _generic_triple(p)
    mp = MonodromyParams.make(QQ, a[0], a[1], a[2], p)
    sp = RegColOneParams.solved(
        QQ, p,
        c00=rng.randrange(1, p), c21=rng.randrange(1, p),
        c13=rng.randrange(1, p), c31=rng.randrange(1, p), a=a)
    assert regcolone_relation_holds(sp, p)
    mat = build_regcolone_matrix(sp, p)
    assert monodromy_params_of(sp, p).a == mp.a
    defect = monodromy_defect(mat, mp)
    assert defect is None, "monodromy failed on the solved family: %s" % (
        defect.display(),)
    lines.append("monodromy on the solved family: pass (a=%d,%d,%d)" % a)
    bumped = RegColOneParams.make(
        QQ, c00=sp.c00, c21=sp.c21, c13=sp.c13, c31=sp.c31, c31p=sp.c31p,
        c33=sp.c33 + 1, c33p=sp.c33p, c33pp=sp.c33pp,
        a0=sp.a0, a1=sp.a1, a2=sp.a2, a3=sp.a3, e=sp.e)
    bad = monodromy_defect(build_regcolone_matrix(bumped, p), mp)
    assert bad is not None, "perturbed parameters still pass monodromy"
    lines.append("monodromy under unit perturbation: fails %s" %
                 bad.display().split(":")[0])
    return _emit(cfg, "localmodel", None, {},
                 header={"mode": "verify-regcolone", "draws": draws}, rows=lines)


_RUNNERS = {
    "selfcheck": _cmd_selfcheck,
    "adm": _cmd_adm,
    "ap": _cmd_ap,
    "weights": _cmd_weights,
    "graph": _cmd_graph,
    "cycles": _cmd_cycles,
    "localmodel": _cmd_localmodel,
}


def _mode_of(command: str, args) -> str:
    """The command, named with its mode where the mode decides the common
    flags read or the formats written; a key of _MODES."""
    if command != "localmodel":
        return command
    if args.shape and args.verify_regcolone:
        raise ValueError("--shape and --verify-regcolone are separate modes; give one")
    if args.shape:
        return "localmodel --shape"
    if args.verify_regcolone:
        return "localmodel --verify-regcolone"
    raise ValueError("localmodel needs --verify-regcolone or --shape FILE")


def run(command: str, cfg: RunConfig, args) -> int:
    """Execute one command; returns the process exit code."""
    if command not in _RUNNERS:
        sys.stderr.write(USAGE)
        return 64
    try:
        mode = _mode_of(command, args)
        reads, formats = _MODES[mode]
        for name in ("p", "f", "seed"):
            # a common flag given on the command line (not None) must be read
            if getattr(args, name) is not None and name not in reads:
                raise ValueError("--%s is not read by %s" % (name, mode))
        cfg.validate()
        if cfg.fmt not in formats:
            raise ValueError("--fmt %s is not available for %s; only for %s" % (
                cfg.fmt, mode, ", ".join(m for m, (_, fmts) in _MODES.items() if cfg.fmt in fmts)))
        lines = _RUNNERS[command](cfg, args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except AssertionError as exc:
        sys.stderr.write("invariant failure: %s\n" % exc)
        return 3
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _build_parser(command: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gsp4weights %s" % command, add_help=True)
    # None marks a flag not given; RunConfig holds the defaults
    ap.add_argument("--p", type=_int_arg, default=None)
    ap.add_argument("--f", type=_int_arg, default=None)
    ap.add_argument("--seed", type=_int_arg, default=None)
    ap.add_argument("--fmt", default=None, choices=("json", "table", "dot"))
    ap.add_argument("--json", action="store_true", help="shorthand for --fmt json")
    ap.add_argument("--table", action="store_true", help="shorthand for --fmt table")
    if command == "adm":
        ap.add_argument("--lambda", dest="lam", default="2,1,0")
        ap.add_argument("--dual", action="store_true")
    elif command == "ap":
        ap.add_argument("--prime", action="store_true")
    elif command == "weights":
        ap.add_argument("--rhobar", required=True)
        ap.add_argument("--obvious", action="store_true")
    elif command == "graph":
        ap.add_argument("--rhobar", required=True)
        ap.add_argument("--dot", default=None)
        ap.add_argument("--chains", action="store_true")
    elif command == "cycles":
        ap.add_argument("--tau", required=True)
        ap.add_argument("--rhobar", default=None)
        ap.add_argument("--bm", action="store_true")
        ap.add_argument("--colength-one", dest="colength_one", action="store_true")
    elif command == "localmodel":
        ap.add_argument("--verify-regcolone", dest="verify_regcolone",
                        action="store_true")
        ap.add_argument("--draws", type=_int_arg, default=None)
        ap.add_argument("--shape", default=None)
        ap.add_argument("--q", type=_int_arg, default=None)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0
    command = argv[0]
    if command not in COMMANDS:
        sys.stderr.write("unknown command: %s\n" % command)
        sys.stderr.write(USAGE)
        return 64
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.json and args.table:
        sys.stderr.write("error: pick one of --json / --table\n")
        return 2
    short = "json" if args.json else "table" if args.table else None
    if args.fmt and short and args.fmt != short:
        sys.stderr.write("error: --fmt %s contradicts --%s\n" % (args.fmt, short))
        return 2
    fmt = args.fmt or short or "table"
    given = {k: getattr(args, k) for k in ("p", "f", "seed") if getattr(args, k) is not None}
    cfg = RunConfig(fmt=fmt, **given)
    code = run(command, cfg, args)
    if code == 3:
        # the command line names the fixture and the seed, so it reproduces the failure
        sys.stderr.write("reproduce: gsp4weights %s\n" % shlex.join(argv))
    return code


if __name__ == "__main__":
    sys.exit(main())
