import json
import os
import re
import shlex

import pytest

from gsp4weights.cli import (
    COMMANDS,
    USAGE,
    RunConfig,
    _build_parser,
    load_matrix,
    load_presentation,
    main,
    run,
)
from gsp4weights import adjacency, cli, weights
from gsp4weights.exactalg import PrimeField
from gsp4weights.weights import TamePresentation

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def capture(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_validation():
    RunConfig().validate()
    with pytest.raises(ValueError):
        RunConfig(p=6).validate()
    with pytest.raises(ValueError):
        RunConfig(p=3).validate()
    with pytest.raises(ValueError):
        RunConfig(f=0).validate()
    with pytest.raises(ValueError):
        RunConfig(fmt="yaml").validate()


def test_unknown_command_exits_64(capsys):
    code, out, err = capture(capsys, ["frobnicate"])
    assert code == 64
    assert "usage:" in err and "unknown command" in err


def test_no_args_prints_usage(capsys):
    code, out, err = capture(capsys, [])
    assert code == 0
    assert "usage:" in out


@pytest.mark.parametrize("command", COMMANDS)
def test_usage_names_every_option(command):
    options = [s for action in _build_parser(command)._actions for s in action.option_strings]
    assert "--json" in options
    assert [s for s in options
            if not re.search(r"(?<![\w-])%s(?![\w-])" % re.escape(s), USAGE)] == []


def test_selfcheck(capsys):
    code, out, err = capture(capsys, ["selfcheck"])
    assert code == 0
    assert "selfcheck passed" in out
    assert out.count("ok:") == 6


def test_adm_table_lists_all_lengths(capsys):
    code, out, err = capture(capsys, ["adm", "--lambda", "2,1,0", "--table"])
    assert code == 0
    lens = set()
    for line in out.splitlines():
        if line.startswith("len="):
            lens.add(int(line.split()[0].split("=")[1]))
    assert lens == set(range(8))
    assert "count=63" in out


def test_adm_json_schema(capsys):
    code, out, err = capture(capsys, ["adm", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "gsp4weights/adm/1"
    assert obj["count"] == 63 == len(obj["elements"])
    assert {e["length"] for e in obj["elements"]} == set(range(8))


@pytest.mark.parametrize("argv", [["--json"], ["--table"], ["--dual", "--json"],
                                  ["--dual", "--table"]],
                         ids=["json", "table", "dual-json", "dual-table"])
def test_adm_makes_each_record_once(capsys, monkeypatch, argv):
    # length, colength and regularity are computed once per element,
    # and both formats read them
    calls = []
    real = cli.is_regular_element
    monkeypatch.setattr(cli, "is_regular_element", lambda x: calls.append(x) or real(x))
    code, out, err = capture(capsys, ["adm", "--lambda", "6,3,0"] + argv)
    assert code == 0 and err == ""
    assert len(calls) == len(set(calls)) == 8 * 36 + 16 * 18 - 8 * 9 + 4 * 6 - 2 * 3 + 1


def test_adm_bad_lambda_exits_2(capsys):
    code, out, err = capture(capsys, ["adm", "--lambda", "2,1"])
    assert code == 2 and "error:" in err
    code, out, err = capture(capsys, ["adm", "--lambda", "0,1,0"])
    assert code == 2  # not dominant


@pytest.mark.parametrize("argv, flag", [
    (["selfcheck", "--p", "3_7"], "--p"),
    (["selfcheck", "--p", " 37"], "--p"),
    (["selfcheck", "--p", "+37"], "--p"),
    (["ap", "--f", "\u0662"], "--f"),
    (["ap", "--f", "1.0"], "--f"),
    (["localmodel", "--verify-regcolone", "--seed", "0x5"], "--seed"),
    (["localmodel", "--verify-regcolone", "--draws", "1_0"], "--draws"),
    (["localmodel", "--shape", fx("mat1.json"), "--q", "\uff13\uff17"], "--q"),
    (["adm", "--lambda", "1_0,0,0"], "--lambda"),
    (["adm", "--lambda", "2,1,\u0660"], "--lambda"),
    (["adm", "--lambda", "2,1"], "--lambda"),
])
def test_integer_flags_take_ascii_integers_only(capsys, argv, flag):
    # int() would read "3_7" as 37 and Arabic-Indic or full-width digits
    # as their values
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert flag in err.splitlines()[-1]


def test_lambda_items_keep_surrounding_whitespace(capsys):
    code, spaced, _ = capture(capsys, ["adm", "--lambda", " 2 , 1,0 "])
    assert code == 0
    code, plain, _ = capture(capsys, ["adm", "--lambda", "2,1,0"])
    assert code == 0 and spaced == plain


def test_negative_seed_exits_2(capsys):
    # random.Random(-5) draws what random.Random(5) draws
    code, out, err = capture(
        capsys, ["localmodel", "--verify-regcolone", "--seed", "-5", "--draws", "1"])
    assert code == 2 and out == ""
    assert err == "error: seed must be a non-negative integer (got -5)\n"
    with pytest.raises(ValueError):
        RunConfig(seed=-1).validate()


def test_bad_prime_exits_2(capsys):
    code, out, err = capture(capsys, ["selfcheck", "--p", "6"])
    assert code == 2 and out == "" and err == "error: p must be a prime >= 5 (got 6)\n"


def test_selfcheck_at_a_61_bit_prime(capsys):
    code, out, err = capture(capsys, ["selfcheck", "--p", "2305843009213693951"])
    assert code == 0 and err == "" and "selfcheck passed" in out
    code, out, err = capture(capsys, ["selfcheck", "--p", "3317044064679887385961981"])
    assert code == 2 and out == "" and err == (
        "error: primality is decided only below 3317044064679887385961981, "
        "not for 3317044064679887385961981\n")


def test_ap_counts(capsys):
    code, out, err = capture(capsys, ["ap", "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["count"] == 20
    code, out, err = capture(capsys, ["ap", "--prime", "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["count"] == 20 and obj["flavor"] == "AP'"


def test_weights_header_echoes_depth(capsys):
    code, out, err = capture(capsys, ["weights", "--rhobar", fx("rb1.json")])
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("#") and "depth=8" in header and "kind=param" in header
    assert "count=20" in header


@pytest.mark.parametrize("extra", ([], ["--obvious"]))
def test_weights_header_f_is_the_presentations(capsys, extra):
    # --f defaults to 1; the fixture has two embeddings
    code, out, err = capture(capsys, ["weights", "--rhobar", fx("rb_f2.json")] + extra)
    assert code == 0
    assert out.splitlines()[0].split()[1:3] == ["p=37", "f=2"]
    code, out, err = capture(capsys, ["weights", "--rhobar", fx("rb_f2.json"), "--json"] + extra)
    assert code == 0 and json.loads(out)["meta"]["f"] == 2


def test_weights_obvious_count(capsys):
    code, out, err = capture(
        capsys, ["weights", "--rhobar", fx("rb1.json"), "--obvious", "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["count"] == 8
    words = [tuple(w["w"]) for w in obj["weights"]]
    assert len(set(words)) == 8  # the assignment is a bijection on W


def test_weights_fixture_p_mismatch(capsys):
    code, out, err = capture(
        capsys, ["weights", "--rhobar", fx("rb41.json"), "--p", "37"])
    assert code == 2 and "p=41" in err


def test_weights_missing_file(capsys):
    code, out, err = capture(capsys, ["weights", "--rhobar", fx("nope.json")])
    assert code == 2


def test_graph_connected_and_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    code, out, err = capture(
        capsys, ["graph", "--p", "37", "--rhobar", fx("rb1.json"),
                 "--dot", str(dot)])
    assert code == 0
    assert "connected=yes" in out.splitlines()[0]
    text = dot.read_text()
    assert text.startswith("graph weights {") and text.rstrip().endswith("}")
    assert text.count("--") >= 20  # one per edge


def test_graph_json_connected(capsys):
    code, out, err = capture(
        capsys, ["graph", "--rhobar", fx("rb1.json"), "--fmt", "json"])
    obj = json.loads(out)
    assert code == 0
    assert obj["connected"] is True and obj["components"] == 1
    assert len(obj["vertices"]) == 20


def test_graph_names_the_too_shallow_derived_type(tmp_path, capsys):
    # a 3-deep parameter: the graph's first derived type is only 2-deep, and
    # the error names that type, not the parameter
    path = tmp_path / "rb.json"
    path.write_text(json.dumps({"schema": "gsp4weights/presentation/1", "kind": "param",
                                "p": 37, "s": ["12"], "mu": [[6, 3, 0]]}))
    code, out, err = capture(capsys, ["graph", "--rhobar", str(path)])
    assert code == 2 and out == ""
    assert err.endswith(
        "error: presentation type[s=s1s2s1 mu=8,2,-2] is only 2-deep; need at least 3\n")


@pytest.mark.parametrize("argv, kind", (
    (["weights", "--rhobar"], "param"),
    (["weights", "--obvious", "--rhobar"], "param"),
    (["graph", "--rhobar"], "param"),
    (["cycles", "--tau"], "type"),
    (["cycles", "--bm", "--tau"], "type"),
    (["cycles", "--colength-one", "--tau", fx("tau1.json"), "--rhobar"], "param"),
))
def test_mu_outside_the_lowest_alcove_is_refused_by_name(tmp_path, capsys, argv, kind):
    path = _write_presentation(tmp_path, kind=kind, mu=[[60, 30, 0]])
    code, out, err = capture(capsys, argv + [path])
    assert code == 2 and out == ""
    assert err == ("error: presentation %s[s=s1s2 mu=60,30,0] has a mu outside the lowest"
                   " alcove for p=37\n" % kind)


@pytest.mark.parametrize("flags", ([], ["--bm"]))
def test_cycle_formula_refusal_names_the_shallow_weight(tmp_path, capsys, flags):
    # a 5-deep type passes the weight maps' guards, but one of its JH
    # weights is only 2-deep
    path = _write_presentation(tmp_path, kind="type", s=["121"], mu=[[13, 8, 2]])
    code, out, err = capture(capsys, ["cycles", *flags, "--tau", path])
    assert (code, out) == (2, "")
    assert err == "error: cycle formula needs a 3-deep weight; F(11,9,4) is 2-deep\n"


@pytest.mark.parametrize("mu", ([[60, 30, 0]], [[6, 3, 0]]), ids=("outside", "3-deep"))
def test_refused_graph_is_not_warned_about(tmp_path, capsys, caplog, mu):
    # the shallow-parameter warning follows a built graph, so a run that
    # refuses the parameter or a derived type warns of nothing first
    adjacency._graph_of.cache_clear()
    caplog.set_level("WARNING", logger="gsp4weights.adjacency")
    code, out, err = capture(capsys, ["graph", "--rhobar", _write_presentation(tmp_path, mu=mu)])
    assert code == 2
    assert [r for r in caplog.records if r.name == "gsp4weights.adjacency"] == []


@pytest.mark.parametrize("flags, renders", (
    ([], 0), (["--json"], 0), (["--chains"], 0), (["--fmt", "dot"], 1), (["--dot", None], 1),
))
def test_graph_renders_dot_only_when_asked(tmp_path, capsys, monkeypatch, flags, renders):
    to_dot = adjacency.WeightGraph.to_dot
    calls = []
    monkeypatch.setattr(adjacency.WeightGraph, "to_dot",
                        lambda graph: calls.append(graph) or to_dot(graph))
    flags = [str(tmp_path / "g.dot") if f is None else f for f in flags]
    code, out, err = capture(capsys, ["graph", "--rhobar", fx("rb1.json")] + flags)
    assert code == 0 and len(calls) == renders


def test_dot_format_rejected_elsewhere(capsys):
    code, out, err = capture(capsys, ["adm", "--fmt", "dot"])
    assert code == 2 and "graph" in err


def test_json_and_table_together_exit_2(capsys):
    code, out, err = capture(capsys, ["adm", "--json", "--table"])
    assert (code, out, err) == (2, "", "error: pick one of --json / --table\n")


@pytest.mark.parametrize("flags", (["--json"], ["--fmt", "json"]))
def test_selfcheck_has_no_json_output(capsys, flags):
    code, out, err = capture(capsys, ["selfcheck"] + flags)
    assert code == 2 and out == ""
    assert err == "error: --fmt json is not available for selfcheck; only for adm, ap, " \
        "weights, graph, cycles, localmodel --shape\n"


@pytest.mark.parametrize("flags", (["--json"], ["--fmt", "json"]))
def test_localmodel_verify_has_no_json_output(capsys, flags):
    code, out, err = capture(capsys, ["localmodel", "--verify-regcolone", "--draws", "1"] + flags)
    assert code == 2 and out == ""
    assert err == "error: --fmt json is not available for localmodel --verify-regcolone; " \
        "only for adm, ap, weights, graph, cycles, localmodel --shape\n"


def test_cycles_per_weight_supports(capsys):
    code, out, err = capture(
        capsys, ["cycles", "--tau", fx("tau1.json"), "--json"])
    obj = json.loads(out)
    assert code == 0 and obj["mode"] == "per-weight"
    supports = {c["support"] for c in obj["cycles"]}
    assert supports <= {1, 2}  # 2^(number of second-alcove embeddings), f=1


def test_cycles_bm_sum(capsys):
    code, out, err = capture(capsys, ["cycles", "--tau", fx("tau1.json"), "--bm"])
    assert code == 0
    assert "note: default multiplicity one" in out


def test_cycles_colength_one(capsys):
    code, out, err = capture(
        capsys, ["cycles", "--tau", fx("tau1.json"), "--colength-one",
                 "--rhobar", fx("rb1.json")])
    assert code == 0
    header = out.splitlines()[0]
    assert "cases=2" in header and "count=2" in header


def test_cycles_rejects_param_fixture(capsys):
    code, out, err = capture(capsys, ["cycles", "--tau", fx("rb1.json")])
    assert code == 2 and "type" in err


@pytest.mark.parametrize("argv", (
    ["weights", "--rhobar", fx("tau1.json")],
    ["weights", "--rhobar", fx("tau1.json"), "--obvious"],
    ["graph", "--rhobar", fx("tau1.json")],
    ["cycles", "--tau", fx("tau1.json"), "--colength-one", "--rhobar", fx("tau1.json")],
))
def test_type_fixture_as_rhobar_is_rejected(capsys, caplog, argv):
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert err == 'error: %s: fixture has kind "type", expected "param"\n' % fx("tau1.json")
    assert caplog.records == []


def test_cycles_colength_one_names_a_regular_element_outside_the_family(tmp_path, capsys):
    # w(rb1, tau) = t(-1,0,2)*s2s1s2, regular of colength one in Adm(eta)
    # but in none of the classified cases
    path = _write_presentation(tmp_path, kind="type", s=["2"], mu=[[18, 8, -3]])
    code, out, err = capture(
        capsys, ["cycles", "--tau", path, "--colength-one", "--rhobar", fx("rb1.json")])
    assert (code, out) == (2, "")
    assert err == ("error: regular colength-one element outside the classified family: "
                   "t(-1,0,2)*s2s1s2\n")


def test_cycles_colength_one_needs_rhobar(capsys):
    code, out, err = capture(
        capsys, ["cycles", "--tau", fx("tau1.json"), "--colength-one"])
    assert code == 2


def test_localmodel_shape(capsys):
    code, out, err = capture(
        capsys, ["localmodel", "--shape", fx("mat1.json"), "--q", "37"])
    assert code == 0
    assert "shape: t(1,0,1)*s2s1s2" in out and "dual_length=6" in out


def test_localmodel_shape_json(capsys):
    code, out, err = capture(
        capsys, ["localmodel", "--shape", fx("mat1.json"), "--q", "37",
                 "--json"])
    obj = json.loads(out)
    assert code == 0
    assert obj["shape"] == {"nu": [1, 0, 1], "w": "212"}
    assert obj["dual_length"] == 6


def test_localmodel_shape_needs_q(capsys):
    code, out, err = capture(capsys, ["localmodel", "--shape", fx("mat1.json")])
    assert code == 2 and "--q" in err


def _write_matrix(tmp_path, exps):
    """A diagonal matrix diag(v^e) as a gsp4weights/matrix/1 fixture."""
    rows = [[{"coeffs": {str(exps[i]): "1"} if i == j else {}} for j in range(4)]
            for i in range(4)]
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"schema": "gsp4weights/matrix/1", "rows": rows}))
    return str(path)


@pytest.mark.parametrize("exps", [(0, 1, 0, 0), (2, 0, 0, 0), (1, 1, 0, 1)])
def test_localmodel_shape_rejects_non_similitudes(capsys, tmp_path, exps):
    # diag(v^e) is a symplectic similitude exactly when e0 + e3 = e1 + e2
    path = _write_matrix(tmp_path, exps)
    code, out, err = capture(capsys, ["localmodel", "--shape", path, "--q", "37"])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % path)
    assert "not a symplectic similitude" in err


def test_localmodel_shape_singular_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps([[{"coeffs": {}}] * 4] * 4))
    code, out, err = capture(capsys, ["localmodel", "--shape", str(path), "--q", "5"])
    assert code == 2 and err == "error: %s: matrix is singular\n" % path


def _identity_rows(corner):
    """The identity matrix as fixture rows, with cell (0, 0) set to corner."""
    rows = [[{"coeffs": {"0": "1"} if i == j else {}} for j in range(4)] for i in range(4)]
    rows[0][0] = corner
    return rows


@pytest.mark.parametrize("rows, why", [
    (_identity_rows({"coeffs": [1]}), 'cell (0, 0) is not {"coeffs": {exponent: scalar}}'),
    (_identity_rows({"coeffs": {"0": True}}), 'cell (0, 0): coefficient true is not an integer or "a/b"'),
    (_identity_rows({"coeffs": {"0": 1.5}}), 'cell (0, 0): coefficient 1.5 is not an integer or "a/b"'),
    (_identity_rows({"coeffs": {"0": "1.5"}}), 'cell (0, 0): coefficient "1.5" is not an integer or "a/b"'),
    (_identity_rows({"coeffs": {"x": 1}}), 'cell (0, 0): exponent "x" is not an integer'),
    (_identity_rows({"coeffs": {"01": 1}}), 'cell (0, 0): exponent "01" is not an integer'),
    (_identity_rows({"coeffs": {"0": "1/37"}}), "cell (0, 0): denominator of 1/37 vanishes mod 37"),
    (_identity_rows({"coeffs": {"0": "1/0"}}), "cell (0, 0): Fraction(1, 0)"),
    (_identity_rows({"coeffs": {"0": "1"}})[:3], "the matrix is not a 4x4 array of cells"),
    ({"schema": "gsp4weights/matrix/1"}, "the matrix is not a 4x4 array of cells"),
], ids=["coeffs_list", "bool", "float", "float_string", "exponent_x", "exponent_01",
        "denominator_q", "denominator_0", "three_rows", "no_rows"])
def test_localmodel_shape_rejects_malformed_matrices(capsys, tmp_path, rows, why):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows))
    code, out, err = capture(capsys, ["localmodel", "--shape", str(path), "--q", "37"])
    assert (code, out, err) == (2, "", "error: %s: %s\n" % (path, why))


def test_load_matrix_reads_integer_and_fraction_coefficients(tmp_path):
    F = PrimeField(37)
    ints, strs = tmp_path / "ints.json", tmp_path / "strs.json"
    ints.write_text(json.dumps(_identity_rows({"coeffs": {"-1": -2, "2": 3}})))
    strs.write_text(json.dumps(_identity_rows({"coeffs": {"-1": "-4/2", "2": "6/2"}})))
    assert load_matrix(str(ints), F) == load_matrix(str(strs), F)


@pytest.mark.parametrize("p, why", [
    (37, "fixture has p=37 but is read over F_41"),
    ("37", 'p must be an integer, got "37"'),
    (True, "p must be an integer, got true"),
], ids=["mismatched", "string", "bool"])
def test_localmodel_shape_checks_the_declared_p(capsys, tmp_path, p, why):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"schema": "gsp4weights/matrix/1", "p": p,
                                "rows": _identity_rows({"coeffs": {"0": "1"}})}))
    code, out, err = capture(capsys, ["localmodel", "--shape", str(path), "--q", "41"])
    assert (code, out, err) == (2, "", "error: %s: %s\n" % (path, why))


def test_localmodel_shape_refuses_another_matrix_schema(capsys, tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"schema": "gsp4weights/matrix/2",
                                "rows": _identity_rows({"coeffs": {"0": "1"}})}))
    code, out, err = capture(capsys, ["localmodel", "--shape", str(path), "--q", "37"])
    assert (code, out, err) == (2, "", "error: %s: not a gsp4weights/matrix/1 fixture\n" % path)


def test_localmodel_shape_q_must_be_prime(capsys):
    code, out, err = capture(capsys, ["localmodel", "--shape", fx("mat1.json"), "--q", "9"])
    assert (code, out, err) == (2, "", "error: q must be prime\n")


def test_localmodel_shape_reads_a_matching_p(capsys, tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"schema": "gsp4weights/matrix/1", "p": 41,
                                "rows": _identity_rows({"coeffs": {"0": "1"}})}))
    code, out, err = capture(capsys, ["localmodel", "--shape", str(path), "--q", "41"])
    assert code == 0 and err == "" and "shape: e" in out


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_localmodel_rejects_fewer_than_one_draw(capsys, draws):
    code, out, err = capture(
        capsys, ["localmodel", "--verify-regcolone", "--draws", draws])
    assert code == 2 and out == ""
    assert err == "error: --draws must be at least 1, got %s\n" % draws


def test_localmodel_verify_regcolone(capsys):
    code, out, err = capture(
        capsys, ["localmodel", "--verify-regcolone", "--p", "37",
                 "--seed", "5", "--draws", "6"])
    assert code == 0
    assert "similitude+divisors over QQ: 6/6" in out
    assert "similitude+divisors over F_37: 6/6" in out
    assert "monodromy on the solved family: pass" in out
    assert "fails clause (i)" in out


def test_localmodel_needs_a_mode(capsys):
    code, out, err = capture(capsys, ["localmodel"])
    assert code == 2


def test_byte_determinism(capsys):
    for argv in (
        ["adm", "--json"],
        ["weights", "--rhobar", fx("rb1.json"), "--json"],
        ["localmodel", "--verify-regcolone", "--seed", "3", "--draws", "4"],
    ):
        code1, out1, _ = capture(capsys, list(argv))
        code2, out2, _ = capture(capsys, list(argv))
        assert code1 == code2 == 0
        assert out1 == out2


def test_presentation_roundtrip(tmp_path):
    pres = load_presentation(fx("rb1.json"))
    path = tmp_path / "copy.json"
    path.write_text(json.dumps({
        "schema": "gsp4weights/presentation/1", "kind": pres.kind, "p": pres.p,
        "s": [w.word for w in pres.s], "mu": [list(m) for m in pres.mu]}))
    again = load_presentation(str(path))
    assert again == pres
    assert isinstance(again, TamePresentation)


def test_load_presentation_rejects_junk(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError):
        load_presentation(str(path))


def _write_presentation(tmp_path, **fields):
    obj = {"schema": "gsp4weights/presentation/1", "kind": "param", "p": 37,
           "s": ["12"], "mu": [[17, 8, -1]]}
    obj.update(fields)
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("word", ["3", "abc", "1x2"])
def test_presentation_bad_word_is_user_error(capsys, tmp_path, word):
    path = _write_presentation(tmp_path, s=[word])
    with pytest.raises(ValueError, match="not 1 or 2"):
        load_presentation(path)
    code, out, err = capture(capsys, ["weights", "--rhobar", path])
    assert code == 2 and out == ""
    assert err.startswith("error: %s: " % path) and "Traceback" not in err


@pytest.mark.parametrize("fields", [
    {"p": 37.0},
    {"p": "37"},
    {"p": True},
    {"mu": [[17.9, 8, -1]]},
    {"mu": [[17, "8", -1]]},
    {"mu": [[17, 8, True]]},
    {"mu": [[17, 8]]},
    {"s": [12]},
    {"s": "1"},
], ids=["p-float", "p-string", "p-bool", "mu-float", "mu-string", "mu-bool", "mu-short",
        "s-number", "s-not-a-list"])
def test_presentation_values_are_not_coerced(capsys, tmp_path, fields):
    path = _write_presentation(tmp_path, **fields)
    with pytest.raises(ValueError, match="^%s: " % re.escape(path)):
        load_presentation(path)
    code, out, err = capture(capsys, ["weights", "--rhobar", path])
    assert code == 2 and err.startswith("error: %s: " % path)


@pytest.mark.parametrize("p", [1, 2, 4, 39, -37])
def test_presentation_p_must_be_a_prime_from_5(capsys, tmp_path, p):
    path = _write_presentation(tmp_path, p=p)
    with pytest.raises(ValueError) as exc:
        load_presentation(path)
    assert str(exc.value) == "%s: p must be a prime >= 5, got %d" % (path, p)
    # the command line compares the fixture's p with the run's first
    code, out, err = capture(capsys, ["weights", "--rhobar", path])
    assert (code, out, err) == (
        2, "", "error: %s: fixture has p=%d but the run is configured with p=37\n" % (path, p))


def test_presentation_p_too_large_to_test_names_the_file(capsys, tmp_path):
    p = 10**25 + 1
    path = _write_presentation(tmp_path, p=p)
    with pytest.raises(ValueError) as exc:
        load_presentation(path)
    assert str(exc.value) == "%s: primality is decided only below %d, not for %d" % (
        path, 3317044064679887385961981, p)
    # the command line compares the fixture's p with the run's first
    code, out, err = capture(capsys, ["weights", "--rhobar", path])
    assert (code, out, err) == (
        2, "", "error: %s: fixture has p=%d but the run is configured with p=37\n" % (path, p))


@pytest.mark.parametrize("kind", ["typ", 5, None])
def test_presentation_kind_must_be_type_or_param(capsys, tmp_path, kind):
    path = _write_presentation(tmp_path, kind=kind)
    with pytest.raises(ValueError) as exc:
        load_presentation(path)
    assert str(exc.value) == '%s: kind must be "type" or "param", got %s' % (path, json.dumps(kind))
    # the command line compares the fixture's kind with the one it reads first
    code, out, err = capture(capsys, ["weights", "--rhobar", path])
    assert (code, out, err) == (
        2, "", 'error: %s: fixture has kind %s, expected "param"\n' % (path, json.dumps(kind)))


def test_presentation_without_mu_is_malformed(capsys, tmp_path):
    path = tmp_path / "pres.json"
    path.write_text(json.dumps({"schema": "gsp4weights/presentation/1", "kind": "param",
                                "p": 37, "s": ["12"]}))
    code, out, err = capture(capsys, ["weights", "--rhobar", str(path)])
    assert (code, out, err) == (2, "", "error: %s: malformed presentation fixture\n" % path)


def test_presentation_s_and_mu_lengths_must_agree(capsys, tmp_path):
    path = _write_presentation(tmp_path, s=["12", "1"])
    code, out, err = capture(capsys, ["weights", "--rhobar", path])
    assert (code, out, err) == (2, "", "error: %s: s and mu have different lengths\n" % path)


def test_empty_presentation_is_user_error(capsys, tmp_path):
    path = _write_presentation(tmp_path, s=[], mu=[])
    code, out, err = capture(capsys, ["weights", "--rhobar", path])
    assert code == 2
    assert err == "error: %s: s and mu are empty; give one entry per embedding\n" % path


def test_shallow_parameter_warned_once_per_run(capsys, caplog):
    # a run in a fresh process starts without a memoised graph
    adjacency._graph_of.cache_clear()
    caplog.set_level("WARNING", logger="gsp4weights.adjacency")
    code, out, err = capture(capsys, ["graph", "--rhobar", fx("rb1.json"), "--chains"])
    assert code == 0
    shallow = [r.getMessage() for r in caplog.records if "below 9" in r.getMessage()]
    assert shallow == ["parameter param[s=s1s2 mu=17,8,-1] at p=37 has depth 8 below 9;"
                       " proceeding with scaled margins"]


def test_invariant_failure_prints_reproducer(capsys, monkeypatch):
    monkeypatch.setattr(weights._SlotTable, "meet", lambda *args: frozenset())
    argv = ["graph", "--rhobar", fx("rb1.json")]
    code, out, err = capture(capsys, argv)
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "invariant failure: intersection is not the expected two outer weights: []",
        "reproduce: gsp4weights " + shlex.join(argv),
    ]


def test_load_matrix_wrapped_and_bare(tmp_path):
    F = PrimeField(37)
    wrapped = load_matrix(fx("mat1.json"), F)
    with open(fx("mat1.json")) as fh:
        rows = json.load(fh)["rows"]
    bare_path = tmp_path / "bare.json"
    bare_path.write_text(json.dumps(rows))
    assert load_matrix(str(bare_path), F) == wrapped


def test_run_entry_unknown_command(capsys):
    cfg = RunConfig()
    assert run("nope", cfg, None) == 64


@pytest.mark.parametrize("flag", (["--depth", "50"], ["--radius", "9"]))
def test_removed_flags_are_rejected(capsys, flag):
    # neither flag was ever applied; they no longer exist
    code, out, err = capture(capsys, ["weights", "--rhobar", fx("rb1.json")] + flag)
    assert code == 2 and out == ""
    assert "unrecognized arguments: %s" % " ".join(flag) in err


@pytest.mark.parametrize("argv,message", (
    (["localmodel", "--shape", fx("mat1.json"), "--q", "37", "--verify-regcolone"],
     "--shape and --verify-regcolone are separate modes; give one"),
    (["localmodel", "--verify-regcolone", "--q", "5"],
     "--q is only read by --shape"),
    (["localmodel", "--shape", fx("mat1.json"), "--q", "37", "--draws", "5"],
     "--draws is only read by --verify-regcolone"),
    (["cycles", "--tau", fx("tau1.json"), "--bm", "--rhobar", fx("rb1.json")],
     "--rhobar is only read by --colength-one"),
    (["cycles", "--tau", fx("tau1.json"), "--rhobar", fx("rb1.json")],
     "--rhobar is only read by --colength-one"),
    (["cycles", "--tau", fx("tau1.json"), "--bm", "--colength-one",
      "--rhobar", fx("rb1.json")],
     "--bm and --colength-one are separate reports; give one"),
    (["graph", "--rhobar", fx("rb1.json"), "--chains", "--fmt", "dot"],
     "--chains has no dot output; use --fmt table or json"),
    (["adm", "--fmt", "table", "--json"], "--fmt table contradicts --json"),
    (["graph", "--rhobar", fx("rb1.json"), "--fmt", "dot", "--table"],
     "--fmt dot contradicts --table"),
    # the mode is settled before the common flags are checked against it
    (["localmodel", "--verify-regcolone", "--shape", fx("mat1.json"), "--q", "37", "--p", "41"],
     "--shape and --verify-regcolone are separate modes; give one"),
    (["localmodel", "--f", "2"], "localmodel needs --verify-regcolone or --shape FILE"),
))
def test_ignored_flag_combinations_are_rejected(capsys, argv, message):
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv,message", (
    (["adm", "--f", "3"], "--f is not read by adm"),
    (["adm", "--p", "41"], "--p is not read by adm"),
    (["adm", "--seed", "2", "--dual"], "--seed is not read by adm"),
    (["ap", "--p", "41"], "--p is not read by ap"),
    (["weights", "--rhobar", fx("rb_f2.json"), "--f", "2"], "--f is not read by weights"),
    (["graph", "--rhobar", fx("rb1.json"), "--seed", "1"], "--seed is not read by graph"),
    (["cycles", "--tau", fx("tau1.json"), "--f", "1"], "--f is not read by cycles"),
    (["selfcheck", "--seed", "3"], "--seed is not read by selfcheck"),
    (["localmodel", "--shape", fx("mat1.json"), "--q", "37", "--f", "4"],
     "--f is not read by localmodel --shape"),
    (["localmodel", "--shape", fx("mat1.json"), "--q", "37", "--p", "41"],
     "--p is not read by localmodel --shape"),
    (["localmodel", "--verify-regcolone", "--draws", "1", "--f", "2"],
     "--f is not read by localmodel --verify-regcolone"),
    # rejected before its value is validated or the format checked
    (["adm", "--p", "4"], "--p is not read by adm"),
    (["selfcheck", "--f", "0"], "--f is not read by selfcheck"),
    (["ap", "--seed", "1", "--fmt", "dot"], "--seed is not read by ap"),
))
def test_unread_common_flags_are_rejected(capsys, argv, message):
    # the header used to echo these values although nothing read them
    code, out, err = capture(capsys, argv)
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_format_errors_name_the_mode(capsys):
    code, out, err = capture(capsys, ["localmodel", "--shape", fx("mat1.json"), "--q", "37",
                                      "--fmt", "dot"])
    assert code == 2 and out == ""
    assert err == "error: --fmt dot is not available for localmodel --shape; only for graph\n"


def test_matching_format_flags_are_accepted(capsys):
    both = capture(capsys, ["adm", "--fmt", "json", "--json"])
    assert both == capture(capsys, ["adm", "--json"])
