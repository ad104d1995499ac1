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
import shlex
import sys
from dataclasses import dataclass

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
  selfcheck   run startup assertions and module smoke tests
  adm         list an admissible set (--lambda a,b,c [--dual] [--table])
  ap          list admissible pairs (--f N [--prime])
  weights     predicted weights of a parameter (--rhobar FILE [--obvious])
  graph       weight adjacency graph (--rhobar FILE [--dot FILE] [--chains])
  cycles      cycle reports for a type (--tau FILE
              [--bm | --colength-one --rhobar FILE])
  localmodel  local model hooks (--verify-regcolone [--draws N] |
              --shape FILE --q Q)

common options: --fmt table|json|dot where written (selfcheck and
  localmodel --verify-regcolone: table only; dot: graph only), and where
  read: --p P (selfcheck, weights, graph, cycles, localmodel
  --verify-regcolone), --f N (ap), --seed S (localmodel --verify-regcolone)
"""

# The common flags each command reads
_READS = {"selfcheck": ("p",), "adm": (), "ap": ("f",), "weights": ("p",), "graph": ("p",),
          "cycles": ("p",), "localmodel": ("p", "seed"), "localmodel --shape": ()}
# The output formats each command writes; localmodel's verify mode has its own
_FORMATS = {"selfcheck": ("table",), "adm": ("table", "json"), "ap": ("table", "json"),
            "weights": ("table", "json"), "graph": ("table", "json", "dot"),
            "cycles": ("table", "json"), "localmodel": ("table", "json"),
            "localmodel --verify-regcolone": ("table",)}


@dataclass(frozen=True)
class RunConfig:
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
        if self.fmt not in ("json", "table", "dot"):
            raise ValueError("format must be one of json, table, dot")


# ---------------------------------------------------------------------------
# serialization helpers


def _elem_json(x) -> dict:
    return {"nu": [x.nu.a, x.nu.b, x.nu.c], "w": x.w.word}


def _weight_json(sigma: SerreWeight) -> dict:
    return {"p": sigma.p, "parts": [[l.a, l.b, l.c] for l in sigma.parts]}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _parse_triple(text: str) -> Weight:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers, got %r" % text)
    try:
        a, b, c = (int(q.strip()) for q in parts)
    except ValueError:
        raise ValueError("expected integers in %r" % text) from None
    return Weight(a, b, c)


def _is_json_int(value) -> bool:
    # bool is a subclass of int, but JSON true/false are not numbers
    return isinstance(value, int) and not isinstance(value, bool)


def load_presentation(path: str, expect_p: int | None = None,
                      expect_kind: str | None = None) -> TamePresentation:
    """Read a tame presentation fixture; presentations are always supplied
    as files, never inferred from other inputs.  p and the mu entries must
    be JSON integers and each s entry a word in the letters 1 and 2."""
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
    if expect_kind is not None and kind != expect_kind:
        raise ValueError("%s: fixture has kind %s, expected %s"
                         % (path, json.dumps(kind), json.dumps(expect_kind)))
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
    return TamePresentation(kind, tuple(s), tuple(Weight(*m) for m in mus), p)


def load_matrix(path: str, field) -> PolyMat:
    """Read a 4x4 polynomial matrix: a JSON array of arrays of
    {"coeffs": {exponent: scalar}} cells, optionally wrapped in an object
    with a schema tag."""
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict):
        if obj.get("schema") != "gsp4weights/matrix/1":
            raise ValueError("%s: not a gsp4weights/matrix/1 fixture" % path)
        obj = obj["rows"]
    try:
        return PolyMat.from_json_obj(field, obj)
    except (KeyError, TypeError, IndexError):
        raise ValueError("%s: malformed matrix fixture" % path) from None


def _header(cfg: RunConfig, pres: TamePresentation | None = None, **extra) -> str:
    """One comment line echoing the run parameters and the presentation's
    depth.  f is the presentation's when there is one."""
    f = cfg.f if pres is None else pres.f
    bits = ["p=%d" % cfg.p, "f=%d" % f, "seed=%d" % cfg.seed]
    if pres is not None:
        bits.append("kind=%s" % pres.kind)
        bits.append("depth=%d" % pres.depth())
    for k in sorted(extra):
        bits.append("%s=%s" % (k, extra[k]))
    return "# " + " ".join(bits)


def _json_meta(cfg: RunConfig, pres: TamePresentation | None = None) -> dict:
    meta = {"p": cfg.p, "f": cfg.f if pres is None else pres.f, "seed": cfg.seed}
    if pres is not None:
        meta["kind"] = pres.kind
        meta["depth"] = pres.depth()
    return meta


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
    lines.append("selfcheck passed (%d checks)" % 6)
    return lines


def _cmd_adm(cfg: RunConfig, args) -> list[str]:
    lam = _parse_triple(args.lam)
    if args.dual:
        elems = sorted(adm_dual_set(lam), key=elem_sort_key)
        lens = {x: dual_length(x) for x in elems}
    else:
        elems = adm_set(lam).sorted_elements()
        lens = {x: length(x) for x in elems}
    max_len = max(lens.values()) if elems else 0
    if cfg.fmt == "json":
        obj = {
            "schema": "gsp4weights/adm/1",
            "meta": _json_meta(cfg),
            "lambda": [lam.a, lam.b, lam.c],
            "dual": bool(args.dual),
            "count": len(elems),
            "elements": [
                dict(_elem_json(x), length=lens[x], colength=max_len - lens[x],
                     regular=is_regular_element(x))
                for x in elems
            ],
        }
        return [_dump(obj)]
    lines = [_header(cfg, count=len(elems),
                     dual="yes" if args.dual else "no",
                     lam="%d,%d,%d" % (lam.a, lam.b, lam.c))]
    for x in elems:
        lines.append(
            "len=%d colen=%d regular=%s %s"
            % (lens[x], max_len - lens[x],
               "yes" if is_regular_element(x) else "no", x.display())
        )
    return lines


def _cmd_ap(cfg: RunConfig, args) -> list[str]:
    pairs = enumerate_ap_prime(cfg.f) if args.prime else enumerate_ap(cfg.f)
    pairs = sorted(pairs, key=lambda pr: pr.sort_key())
    flavor = "AP'" if args.prime else "AP"
    if cfg.fmt == "json":
        obj = {
            "schema": "gsp4weights/ap/1",
            "meta": _json_meta(cfg),
            "flavor": flavor,
            "count": len(pairs),
            "pairs": [
                {
                    "w1": [_elem_json(x) for x in pr.w1],
                    "w2": [_elem_json(x) for x in pr.w2],
                }
                for pr in pairs
            ],
        }
        return [_dump(obj)]
    lines = [_header(cfg, count=len(pairs), flavor=flavor)]
    for pr in pairs:
        lines.append(pr.display())
    return lines


def _cmd_weights(cfg: RunConfig, args) -> list[str]:
    rhobar = load_presentation(args.rhobar, expect_p=cfg.p, expect_kind="param")
    if args.obvious:
        table = obvious_weights(rhobar)
        rows = sorted(
            ((tuple(w.word for w in key), sigma) for key, sigma in table.items())
        )
        if cfg.fmt == "json":
            obj = {
                "schema": "gsp4weights/weights/1",
                "meta": _json_meta(cfg, rhobar),
                "obvious": True,
                "count": len(rows),
                "weights": [
                    {"w": list(key), "weight": _weight_json(sigma)}
                    for key, sigma in rows
                ],
            }
            return [_dump(obj)]
        lines = [_header(cfg, rhobar, count=len(rows), obvious="yes")]
        for key, sigma in rows:
            lines.append("w=(%s) %s" % (",".join(k or "e" for k in key), sigma.display()))
        return lines
    wq = w_question(rhobar)
    rows = sorted(wq.items(), key=lambda kv: kv[0].sort_key())
    if cfg.fmt == "json":
        obj = {
            "schema": "gsp4weights/weights/1",
            "meta": _json_meta(cfg, rhobar),
            "obvious": False,
            "count": len(rows),
            "weights": [
                {
                    "pair": {
                        "w1": [_elem_json(x) for x in pr.w1],
                        "w2": [_elem_json(x) for x in pr.w2],
                    },
                    "weight": _weight_json(sigma),
                }
                for pr, sigma in rows
            ],
        }
        return [_dump(obj)]
    lines = [_header(cfg, rhobar, count=len(rows))]
    for pr, sigma in rows:
        lines.append("%s  %s" % (pr.display(), sigma.display()))
    return lines


def _cmd_graph(cfg: RunConfig, args) -> list[str]:
    if args.chains and cfg.fmt == "dot":
        raise ValueError("--chains has no dot output; use --fmt table or json")
    rhobar = load_presentation(args.rhobar, expect_p=cfg.p, expect_kind="param")
    graph = build_graph(rhobar)
    edges = sorted(graph.edges.items(),
                   key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))
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
    if cfg.fmt == "json":
        obj = {
            "schema": "gsp4weights/graph/1",
            "meta": _json_meta(cfg, rhobar),
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
            "connected": graph.is_connected(),
            "components": len(graph.components()),
        }
        if args.chains:
            obj["chains"] = [
                {"weight": _weight_json(s), "bfs": nb, "steered": ns}
                for s, nb, ns in chains
            ]
        return [_dump(obj)]
    lines = [
        _header(cfg, rhobar, vertices=len(graph.vertices), edges=len(edges),
                connected="yes" if graph.is_connected() else "no",
                obvious=len(graph.obvious))
    ]
    for (a, b), wit in edges:
        lines.append("%s -- %s  witnesses=%d" % (a.display(), b.display(), len(wit)))
    for sigma, nb, ns in chains:
        lines.append("chain %s  bfs=%d steered=%d" % (sigma.display(), nb, ns))
    return lines


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
        if cfg.fmt == "json":
            obj = {
                "schema": "gsp4weights/cycles/1",
                "meta": _json_meta(cfg, tau),
                "mode": "colength-one",
                "cases": list(report.cases),
                "count": report.count,
                "weights": [_weight_json(s) for s in weights],
            }
            return [_dump(obj)]
        lines = [_header(cfg, tau, cases=",".join(map(str, report.cases)),
                         count=report.count)]
        for s in weights:
            lines.append(s.display())
        return lines
    if args.bm:
        res = bm_sum(None, tau)
        if cfg.fmt == "json":
            obj = {
                "schema": "gsp4weights/cycles/1",
                "meta": _json_meta(cfg, tau),
                "mode": "bm-sum",
                "assumptions": list(res.assumptions),
                "cycle": [
                    {"weight": _weight_json(s), "mult": n}
                    for s, n in res.cycle.items()
                ],
            }
            return [_dump(obj)]
        lines = [_header(cfg, tau, mode="bm-sum")]
        for note in res.assumptions:
            lines.append("note: %s" % note)
        lines.append(res.cycle.display())
        return lines
    sigmas = sorted(jh_set(tau), key=lambda s: s.sort_key())
    rows = [(sigma, bm_cycle(sigma)) for sigma in sigmas]
    if cfg.fmt == "json":
        obj = {
            "schema": "gsp4weights/cycles/1",
            "meta": _json_meta(cfg, tau),
            "mode": "per-weight",
            "cycles": [
                {
                    "weight": _weight_json(sigma),
                    "support": len(cyc.support()),
                    "cycle": [
                        {"weight": _weight_json(s), "mult": n}
                        for s, n in cyc.items()
                    ],
                }
                for sigma, cyc in rows
            ],
        }
        return [_dump(obj)]
    lines = [_header(cfg, tau, mode="per-weight", count=len(rows))]
    for sigma, cyc in rows:
        lines.append("%s support=%d  %s" % (sigma.display(), len(cyc.support()),
                                            cyc.display()))
    return lines


def _generic_triple(p: int) -> tuple[int, int, int]:
    """A monodromy parameter triple whose four root values are nonzero and
    as central as the prime allows."""
    m = max(1, p // 6)
    return (3 * m, 2 * m, 2 * m)


def _cmd_localmodel(cfg: RunConfig, args) -> list[str]:
    if args.shape and args.verify_regcolone:
        raise ValueError("--shape and --verify-regcolone are separate modes; give one")
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
        if cfg.fmt == "json":
            obj = {
                "schema": "gsp4weights/localmodel/1",
                "meta": _json_meta(cfg),
                "mode": "shape",
                "q": args.q,
                "shape": _elem_json(z),
                "dual_length": dual_length(z),
            }
            return [_dump(obj)]
        return [
            _header(cfg, mode="shape", q=args.q),
            "shape: %s  dual_length=%d" % (z.display(), dual_length(z)),
        ]
    if not args.verify_regcolone:
        raise ValueError("localmodel needs --verify-regcolone or --shape FILE")
    if args.q is not None:
        raise ValueError("--q is only read by --shape")

    draws = 100 if args.draws is None else args.draws
    if draws < 1:
        raise ValueError("--draws must be at least 1, got %d" % draws)
    p = cfg.p
    rng = random.Random(cfg.seed)
    lines = [_header(cfg, mode="verify-regcolone", draws=draws)]
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
            assert res.ok, "similitude failed over %s on draw %r" % (tag, vals)
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
        c33=QQ.add(sp.c33, QQ.one), c33p=sp.c33p, c33pp=sp.c33pp,
        a0=sp.a0, a1=sp.a1, a2=sp.a2, a3=sp.a3, e=sp.e)
    bad = monodromy_defect(build_regcolone_matrix(bumped, p), mp)
    assert bad is not None, "perturbed parameters still pass monodromy"
    lines.append("monodromy under unit perturbation: fails %s" %
                 bad.display().split(":")[0])
    return lines


_RUNNERS = {
    "selfcheck": _cmd_selfcheck,
    "adm": _cmd_adm,
    "ap": _cmd_ap,
    "weights": _cmd_weights,
    "graph": _cmd_graph,
    "cycles": _cmd_cycles,
    "localmodel": _cmd_localmodel,
}


def _reject_unread_flags(command: str, args) -> None:
    """A common flag given on the command line (not None) that the command
    does not read is an input error."""
    if command == "localmodel" and args.shape:
        command += " --shape"
    for name in ("p", "f", "seed"):
        if getattr(args, name) is not None and name not in _READS[command]:
            raise ValueError("--%s is not read by %s" % (name, command))


def _formats_of(command: str, args) -> tuple[str, tuple[str, ...]]:
    """The command, named with its mode where the mode decides the output
    formats, and the formats it writes."""
    if command == "localmodel" and args.verify_regcolone and not args.shape:
        command += " --verify-regcolone"
    return command, _FORMATS[command]


def run(command: str, cfg: RunConfig, args) -> int:
    """Execute one command; returns the process exit code."""
    if command not in _RUNNERS:
        sys.stderr.write(USAGE)
        return 64
    try:
        cfg.validate()
        mode, formats = _formats_of(command, args)
        if cfg.fmt not in formats:
            raise ValueError("--fmt %s is not available for %s; only for %s" % (
                cfg.fmt, mode, ", ".join(c for c in COMMANDS if cfg.fmt in _FORMATS[c])))
        _reject_unread_flags(command, args)
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
    ap.add_argument("--p", type=int, default=None)
    ap.add_argument("--f", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
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
        ap.add_argument("--draws", type=int, default=None)
        ap.add_argument("--shape", default=None)
        ap.add_argument("--q", type=int, default=None)
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
