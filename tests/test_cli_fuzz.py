"""Fuzz the CLI boundary with mutated bundled models and mutated argv.

Whatever the model file and the arguments, ``finmeas.cli.main`` must end
with exit code 0, 1 or 2, argparse's own exit counting as 2, and no
exception may escape it.  A ``--json`` run that exits 0 prints strict JSON:
no Infinity or NaN.
"""

import copy
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import run_main

MODELS = {
    name: json.loads(
        (resources.files("finmeas") / "examples" / f"{name}.json").read_text("utf-8")
    )
    for name in ("decomposition", "processes", "metrics")
}

# one command per subcommand that succeeds on its bundled model
COMMANDS = [
    ("decomposition", "space --name G"),
    ("decomposition", "measure eval --measure tri --set a,c"),
    ("decomposition", "decompose jordan --measure sig"),
    ("decomposition", "decompose lebesgue --num mu_leb --den nu_leb"),
    ("decomposition", "rn --num rho --den eta"),
    ("decomposition", "integrate --function thirds --measure quarter --layered"),
    ("decomposition", "lp-norm --function f12 --measure eta --p 2"),
    ("decomposition", "ineq hoelder --left f12 --right g31 --measure eta --p 3"),
    ("decomposition", "ineq minkowski --left f12 --right g31 --measure eta --p 2"),
    ("decomposition", "delta --left f12 --right g31 --measure eta"),
    ("decomposition", "product --left rho --right eta"),
    ("decomposition", "functional to-measure --functional lam"),
    ("decomposition", "functional dual --functional lam --measure eta --p 2"),
    ("processes", "kernel compose --left K --right K"),
    ("processes", "kernel lift --kernel K --measure mu2"),
    ("processes", "kernel path --kernel MP --start a --horizon 2"),
    ("processes", "disintegrate --measure joint"),
    ("processes", "fubini --function F --left mu2 --right nu2"),
    ("processes", "logic check --kernel M --formula T"),
    ("processes", "logic quotient --kernel M"),
    ("processes", "bisim mediate --left KU --right KZ"),
    ("metrics", "dist prohorov --left dirac_a --right nu_p --metric d2"),
    ("metrics", "dist hutchinson --left w2 --right wlim --metric d3 --gamma 1/3"),
    ("metrics", "weak-check --sequence w1,w2,w3 --limit wlim --metric d3 --tol 0.01"),
]

# values a mutation puts in a model: wrong types and odd rationals
NESTED = {"a": 1}
ODD_VALUES = [
    None, True, 0, 1.5, -1, "", "x", "1/0", "-0", "3/7", "-2", "1e340", "1e-340",
    [], {}, ["a"], ["a", "a"], NESTED,
]

# JSON text that json.dumps cannot write: nesting past the recursion limit
# and an integer literal past the digit limit; a mutation sets the marker
# and the written file carries the text in its place
RAW = {"<deep>": "[" * 100000 + "]" * 100000, "<long>": "1" * 5000}
ODD_VALUES += list(RAW)

# values a mutation puts in argv, for any flag
ODD_ARGS = ["", "x", "0", "-1", "1/0", "nan", "inf", "3/7", "-0", "a,zz", ",", "T & T"]

# more for some flags; each stays cheap to compute (no huge horizon)
FLAG_ARGS = {
    "--p": ["1/2", "1", "oo", "100000", "100001/3", "1e400", "1e300"],
    "--tol": ["1e400", "-0.5", "0.123456789012345", "1e-300"],
    "--gamma": ["1e340", "1/3"],
    "--formula": ["dia>=1/2 T", "dia>=1/0 T", "(T & T", "dia>=3/2 T"],
}


def _paths(doc, prefix=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return []
    found = []
    for key, value in items:
        found.append(prefix + (key,))
        found.extend(_paths(value, prefix + (key,)))
    return found


PATHS = {name: _paths(doc) for name, doc in MODELS.items()}


@st.composite
def cases(draw):
    model, command = draw(st.sampled_from(COMMANDS))
    argv = command.split()
    mutations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("drop", "set", "rename")),
                st.sampled_from(PATHS[model]),
                st.sampled_from(ODD_VALUES),
            ),
            max_size=3,
        )
    )
    for i in draw(st.sets(st.sampled_from(range(len(argv))), max_size=2)):
        if argv[i].startswith("--") and i + 1 < len(argv):
            odd = ODD_ARGS + FLAG_ARGS.get(argv[i], [])
            argv[i + 1] = draw(st.sampled_from(odd))
    if draw(st.booleans()):
        i = draw(st.sampled_from([i for i, w in enumerate(argv) if w.startswith("--")]))
        del argv[i : i + 2]
    argv += draw(st.sampled_from(([], ["--float"], ["--json"], ["--float", "--json"])))
    return model, mutations, argv


def _mutate(doc, mutations):
    doc = json.loads(json.dumps(doc))
    for op, path, value in mutations:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or retyped the path
        if not isinstance(parent, (dict, list)):
            continue  # a retyped path ends in a string, which indexes but is immutable
        if op == "drop":
            del parent[path[-1]]
        elif op == "set":
            # a copy: setting the shared value inside itself would make it,
            # and every later example that draws it, circular
            parent[path[-1]] = copy.deepcopy(value)
        elif isinstance(parent, dict):
            parent[f"{path[-1]}_"] = parent.pop(path[-1])
    return doc


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


BIG_F12 = [("set", ("functions", "f12", "values", "a"), "1e340")]
WEAK = ["weak-check", "--sequence", "w1,w2,w3", "--limit", "wlim", "--metric", "d3"]
LP = ["lp-norm", "--function", "f12", "--measure", "eta"]
INEQ = ["--left", "f12", "--right", "g31", "--measure", "eta"]


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cases())
@example(("decomposition", [], LP + ["--p", "100000"]))
@example(("decomposition", [], LP + ["--p", "100001/3"]))
@example(("decomposition", [], ["ineq", "hoelder", *INEQ, "--p", "100000"]))
@example(("decomposition", [], ["ineq", "minkowski", *INEQ, "--p", "100001/3"]))
@example(("decomposition", BIG_F12, LP + ["--p", "2"]))
@example(("decomposition", BIG_F12, LP + ["--p", "3"]))
@example(
    ("decomposition", BIG_F12, ["integrate", "--function", "f12", "--measure", "eta",
                                "--float"])
)
# a set retypes the points list to a string; the drop after it is skipped
@example(
    ("decomposition",
     [("set", ("spaces", "X3", "points"), "x"),
      ("drop", ("spaces", "X3", "points", 0), None)],
     ["space", "--name", "X3"])
)
@example(("decomposition", [("set", ("measures", "tri", "weights", "a"), "<deep>")],
          ["measure", "eval", "--measure", "tri", "--set", "a,c"]))
@example(("decomposition", [("set", ("spaces", "G", "points", 0), "<long>")],
          ["space", "--name", "G"]))
# the same dict set twice, the second time inside the first
@example(("decomposition", [("set", ("spaces",), NESTED), ("set", ("spaces", "a"), NESTED)],
          ["space", "--name", "G"]))
# a Hoelder bound past the largest float from two norms that fit
@example(("decomposition",
          [("set", ("functions", "f12", "values"), {"a": "1e200", "b": 0}),
           ("set", ("functions", "g31", "values"), {"a": 0, "b": "1e200"})],
          ["ineq", "hoelder", *INEQ, "--p", "3", "--json"]))
@example(("metrics", [], WEAK + ["--tol", "nan"]))
@example(("metrics", [], WEAK + ["--tol", "inf"]))
@example(("metrics", [], WEAK + ["--tol", "-1"]))
@example(("metrics", [], WEAK + ["--tol", "1e400"]))
def test_cli_exits_0_1_or_2_without_an_escaping_exception(model_file, case):
    model, mutations, argv = case
    text = json.dumps(_mutate(MODELS[model], mutations))
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker), raw)
    model_file.write_text(text, "utf-8")
    code, out, err = run_main([*argv, "-m", str(model_file)])
    assert code in (0, 1, 2)
    assert code == 0 or err.startswith(("error[", "usage: "))
    if code == 0 and "--json" in argv:
        json.loads(out, parse_constant=_refuse)


def _refuse(constant):
    raise AssertionError(f"--json output holds the non-JSON number {constant}")
