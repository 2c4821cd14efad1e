"""Golden CLI transcripts: every subcommand on the bundled models.

Each case runs ``finmeas.cli.main`` in-process in the four output modes
(text, ``--json``, ``--float`` and ``--float --json``) and compares stdout,
stderr and the exit code with ``data/cli_transcripts.json``, plus the
``--help`` text of every parser.  The file pins the output of the CLI as it
was before its report path was rewritten; re-record it only for a deliberate
change of output, with

    PYTHONPATH=src python tests/test_cli_transcripts.py
"""

import json
import os
from importlib import resources
from pathlib import Path

import pytest

from finmeas import cli

from conftest import run_main

DATA = Path(__file__).with_name("data") / "cli_transcripts.json"

DECOMP, PROC, METRIC = "decomposition", "processes", "metrics"

# (model, argv); one or more per subcommand, plus error exits
COMMANDS = [
    (DECOMP, "space --name G"),
    (DECOMP, "space --name X3"),
    (DECOMP, "measure eval --measure tri --set a,c"),
    (DECOMP, "measure eval --measure sig --set="),
    (DECOMP, "decompose jordan --measure sig"),
    (DECOMP, "decompose lebesgue --num mu_leb --den nu_leb"),
    (DECOMP, "rn --num rho --den eta"),
    (DECOMP, "integrate --function f2m1 --measure quarter"),
    (DECOMP, "integrate --function thirds --measure tri --layered"),
    (DECOMP, "integrate --function thirds --measure quarter --layered"),
    (DECOMP, "lp-norm --function f12 --measure eta --p 2"),
    (DECOMP, "lp-norm --function f12 --measure eta --p 4/2"),
    (DECOMP, "lp-norm --function f12 --measure eta --p 3"),
    (DECOMP, "lp-norm --function f12 --measure eta --p 3/2"),
    (DECOMP, "lp-norm --function f2m1 --measure quarter --p 1"),
    (DECOMP, "lp-norm --function f2m1 --measure quarter --p inf"),
    (DECOMP, "ineq hoelder --left f12 --right g31 --measure eta --p 2"),
    (DECOMP, "ineq hoelder --left f12 --right g31 --measure eta --p 3"),
    (DECOMP, "ineq hoelder --left f12 --right g31 --measure eta --p infinity"),
    (DECOMP, "ineq minkowski --left f12 --right g31 --measure eta --p 2"),
    (DECOMP, "ineq minkowski --left f12 --right f2m1 --measure quarter --p 1"),
    (DECOMP, "ineq minkowski --left f12 --right g31 --measure eta --p 5/2"),
    (DECOMP, "delta --left f12 --right g31 --measure eta"),
    (DECOMP, "delta --left f12 --right thirds --measure quarter"),
    (DECOMP, "product --left rho --right eta"),
    (DECOMP, "functional to-measure --functional lam"),
    (DECOMP, "functional dual --functional lam --measure eta --p 1"),
    (DECOMP, "functional dual --functional lam --measure eta --p 2"),
    (DECOMP, "functional dual --functional lam --measure eta --p oo"),
    (DECOMP, "functional dual --functional thirds --measure quarter --p 3"),
    (PROC, "kernel compose --left K --right K"),
    (PROC, "kernel compose --left MP --right K"),
    (PROC, "kernel lift --kernel K --measure mu2"),
    (PROC, "kernel path --kernel MP --start a --horizon 2"),
    (PROC, "kernel path --kernel MP --start a --horizon 3"),
    (PROC, "kernel path --kernel K --start b --horizon 0"),
    (PROC, "disintegrate --measure joint"),
    (PROC, "fubini --function F --left mu2 --right nu2"),
    (PROC, "logic check --kernel M --formula dia>=1/2 dia>=1 T"),
    (PROC, "logic check --kernel K --formula (dia>=1/3 T & dia>=1 T)"),
    (PROC, "logic quotient --kernel M"),
    (PROC, "logic quotient --kernel KD"),
    (PROC, "bisim mediate --left KU --right KZ"),
    (PROC, "bisim mediate --left M --right M"),
    (METRIC, "dist prohorov --left dirac_a --right nu_p --metric d2"),
    (METRIC, "dist prohorov --left w1 --right wlim --metric d3"),
    (METRIC, "dist hutchinson --left dirac_a --right dirac_b --metric d2 --gamma 1"),
    (METRIC, "dist hutchinson --left w2 --right wlim --metric d3 --gamma 1/3"),
    (METRIC, "weak-check --sequence w1,w2,w3,w4,w5,w6 --limit wlim --metric d3 "
     "--tol 0.01"),
    (METRIC, "weak-check --sequence dirac_a,dirac_b --limit dirac_a --metric d2 "
     "--tol 1e-3"),
    (METRIC, "weak-check --sequence ,w6, --limit wlim --metric d3 "
     "--tol 0.123456789012345"),
    # domain errors, exit 1
    (DECOMP, "rn --num nu_leb --den mu_leb"),
    (DECOMP, "lp-norm --function f12 --measure eta --p 1/2"),
    (PROC, "bisim mediate --left M --right KU"),
    (METRIC, "weak-check --sequence w1,w2 --limit dirac_a --metric d3 --tol 0.01"),
    # input errors, exit 2
    (DECOMP, "rn --num ghost --den eta"),
    (DECOMP, "lp-norm --function f12 --measure eta --p x"),
    (DECOMP, "measure eval --measure tri --set a,zz"),
    (PROC, "bisim mediate --left MP --right K"),
    (PROC, "logic check --kernel M --formula T & T"),
    (METRIC, "dist hutchinson --left dirac_a --right dirac_b --metric d2 --gamma 1/0"),
    # argparse errors, exit 2
    (DECOMP, "lp-norm --function f12 --measure eta"),
    (PROC, "kernel path --kernel MP --start a --horizon two"),
    (DECOMP, "space --name G --float --exact"),
]

MODES = ([], ["--json"], ["--float"], ["--float", "--json"])

HELP = [
    "",
    "space", "measure", "measure eval", "decompose", "decompose jordan",
    "decompose lebesgue", "rn", "integrate", "lp-norm", "ineq", "ineq hoelder",
    "ineq minkowski", "delta", "product", "fubini", "kernel", "kernel compose",
    "kernel lift", "kernel path", "disintegrate", "dist", "dist prohorov",
    "dist hutchinson", "weak-check", "logic", "logic check", "logic quotient",
    "bisim", "bisim mediate", "functional", "functional to-measure",
    "functional dual",
]


def _split(text):
    """argv words; a formula is everything after --formula."""
    head, sep, formula = text.partition("--formula ")
    return head.split() + ([sep.strip(), formula] if sep else [])


def cases():
    for model, text in COMMANDS:
        for mode in MODES:
            yield " ".join([model, text, *mode]), model, _split(text) + mode
    for text in HELP:
        yield f"help {text}".strip(), None, text.split() + ["--help"]


def transcript(model, argv):
    if model is not None:
        path = str(resources.files("finmeas") / "examples" / f"{model}.json")
        argv = argv + ["-m", path]
    code, out, err = run_main(argv)
    return {"stdout": out, "stderr": err, "code": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.fixture
def columns(monkeypatch):
    # argparse wraps help and usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize(
    "key, model, argv", [pytest.param(*case, id=case[0]) for case in cases()]
)
def test_transcript(key, model, argv, golden, columns):
    assert transcript(model, argv) == golden[key]


@pytest.mark.parametrize(
    "key, model, argv",
    [pytest.param(*case, id=case[0]) for case in cases() if "--json" in case[2]],
)
def test_a_json_report_renders_no_text(key, model, argv, golden, columns, monkeypatch):
    def refuse(*_):
        raise AssertionError("text rendered for a --json report")

    monkeypatch.setattr(cli, "_text", refuse)
    assert transcript(model, argv) == golden[key]


def test_every_subcommand_succeeds_in_a_transcript(golden):
    assert set(golden) == {key for key, _, _ in cases()}
    leaves = [t for t in HELP if t and not any(h.startswith(t + " ") for h in HELP)]
    assert len(leaves) == 24
    for leaf in leaves:
        assert any(
            golden[key]["code"] == 0
            for key, model, argv in cases()
            if model and " ".join(argv).startswith(leaf + " ")
        ), leaf


def record():
    """Re-record every transcript and print the keys added, changed and
    removed against the file replaced."""
    os.environ["COLUMNS"] = "80"
    found = {key: transcript(model, argv) for key, model, argv in cases()}
    old = json.loads(DATA.read_text()) if DATA.exists() else {}
    diff = {
        "added": sorted(found.keys() - old.keys()),
        "changed": sorted(k for k in found.keys() & old.keys() if found[k] != old[k]),
        "removed": sorted(old.keys() - found.keys()),
    }
    for what, keys in diff.items():
        print(f"{len(keys)} {what}")
        for key in keys:
            print(f"  {key}")
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print(f"{len(found)} transcripts written to {DATA}")


if __name__ == "__main__":
    record()
