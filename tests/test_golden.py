"""Byte-for-byte CLI outputs on the shipped fixtures.

Each case runs one command line through ``cli.main`` and compares its
stdout with ``tests/golden/<name>.txt``.  The golden files record the
output of the code before a refactor; a refactor that changes any byte
of them changes behaviour.  To rewrite them from the current code run

    PYTHONPATH=src python tests/test_golden.py

The f = 2 graph is left out for time; ``test_full_f2_graph_with_checks``
covers it.
"""

import contextlib
import io
import os

import pytest

from gsp4weights.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


FORMATS = {"table": [], "json": ["--json"]}
# the f = 2 JSON outputs run to hundreds of kilobytes; their serializers
# are the f = 1 ones, so the table output stands for them
TABLE = {"table": []}


def _cases():
    cases = {}

    def add(name, argv, formats=FORMATS):
        for tag, flags in formats.items():
            cases["%s-%s" % (name, tag)] = argv + flags

    add("selfcheck", ["selfcheck"], TABLE)
    add("adm", ["adm"])
    add("adm-dual", ["adm", "--dual"])
    add("adm-310", ["adm", "--lambda", "3,1,0"])
    add("adm-310-dual", ["adm", "--lambda", "3,1,0", "--dual"])
    add("ap", ["ap"])
    add("ap-prime", ["ap", "--prime"])
    add("ap-f2", ["ap", "--f", "2"], TABLE)
    add("ap-prime-f2", ["ap", "--prime", "--f", "2"], TABLE)
    params = {
        "rb1": ["--rhobar", fx("rb1.json")],
        "rb41": ["--rhobar", fx("rb41.json"), "--p", "41"],
        "rb_f2": ["--rhobar", fx("rb_f2.json")],
    }
    for name, argv in params.items():
        formats = TABLE if name == "rb_f2" else FORMATS
        add("weights-%s" % name, ["weights"] + argv, formats)
        add("weights-obvious-%s" % name, ["weights", "--obvious"] + argv)
    for name in ("rb1", "rb41"):
        argv = params[name]
        add("graph-%s" % name, ["graph"] + argv,
            dict(FORMATS, dot=["--fmt", "dot"]))
        add("graph-chains-%s" % name, ["graph", "--chains"] + argv)
    tau = ["--tau", fx("tau1.json")]
    add("cycles-tau1", ["cycles"] + tau)
    add("cycles-bm-tau1", ["cycles", "--bm"] + tau)
    add("cycles-colength-one-tau1-rb1",
        ["cycles", "--colength-one", "--rhobar", fx("rb1.json")] + tau)
    add("localmodel-shape-mat1",
        ["localmodel", "--shape", fx("mat1.json"), "--q", "37"])
    add("localmodel-verify", ["localmodel", "--verify-regcolone", "--draws", "3"], TABLE)
    add("localmodel-verify-p41-seed5",
        ["localmodel", "--verify-regcolone", "--draws", "2", "--p", "41",
         "--seed", "5"], TABLE)
    return cases


CASES = _cases()


def _stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name):
    code, out = _stdout_of(CASES[name])
    assert code == 0
    with open(os.path.join(GOLDEN, name + ".txt"), encoding="utf-8") as fh:
        expected = fh.read()
    assert out == expected


def _regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _stdout_of(argv)
        if code != 0:
            raise SystemExit("%s exited %d" % (name, code))
        with open(os.path.join(GOLDEN, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(out)
    print("wrote %d golden files to %s" % (len(CASES), GOLDEN))


if __name__ == "__main__":
    _regenerate()
