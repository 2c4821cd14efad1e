import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from importlib import resources

import pytest

from finmeas import cli
from finmeas.cli import ModelError, load_model, main, parse_model
from finmeas.rational import format_float, format_fraction
from finmeas.spaces import MeasurableSet
from conftest import run_main
from test_cli_fuzz import COMMANDS as WORKING
from test_cli_fuzz import MODELS


def model_path(name):
    return str(resources.files("finmeas") / "examples" / f"{name}.json")


DECOMP = model_path("decomposition")
PROC = model_path("processes")
METRIC = model_path("metrics")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rn_text(capsys):
    code, out, err = run(
        capsys, "rn", "-m", DECOMP, "--num", "rho", "--den", "eta"
    )
    assert code == 0 and err == ""
    assert out == "drho/deta:\n  {a}: 2/5\n  {b}: 8/5\n"


def test_json_and_text_agree(capsys):
    code, text, _ = run(
        capsys, "measure", "eval", "-m", DECOMP, "--measure", "tri", "--set", "a,c"
    )
    assert code == 0
    code, raw, _ = run(
        capsys,
        "measure", "eval", "-m", DECOMP, "--measure", "tri", "--set", "a,c",
        "--json",
    )
    assert code == 0
    payload = json.loads(raw)
    assert payload["value"] == "5/6"
    assert payload["value"] in text


def test_report_with_every_line_absent_prints_a_newline(capsys, monkeypatch):
    # a text report whose template lines all name null values is empty,
    # and prints one newline like any other report
    blank = [
        c._replace(
            handler=lambda args, *entries: {"gone": None}, text="{gone}\n{gone:set}"
        )
        if c.path == "rn" else c
        for c in cli._COMMANDS
    ]
    monkeypatch.setattr(cli, "_COMMANDS", blank)
    argv = ["rn", "-m", DECOMP, "--num", "rho", "--den", "eta"]
    assert run(capsys, *argv) == (0, "\n", "")
    assert json.loads(run(capsys, *argv, "--json")[1])["gone"] is None


def test_float_mode(capsys):
    code, out, _ = run(
        capsys,
        "dist", "prohorov",
        "-m", METRIC, "--left", "dirac_a", "--right", "nu_p", "--metric", "d2",
        "--float",
    )
    assert code == 0
    assert out.strip() == "0.5"


def test_exit_code_domain_error(capsys):
    code, out, err = run(
        capsys, "rn", "-m", DECOMP, "--num", "nu_leb", "--den", "mu_leb"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error[AbsoluteContinuityViolated]")


def test_exit_code_unknown_name(capsys):
    code, _, err = run(capsys, "rn", "-m", DECOMP, "--num", "ghost", "--den", "eta")
    assert code == 2
    assert err.startswith("error[input]")


# every model reference a command declares, as (command, dest, kind)
REFERENCES = [
    pytest.param(command, dest, kind, id=f"{command.path} --{dest}")
    for command in cli._COMMANDS
    for dest, kind in command.refs
]


def working_argv(command):
    """The bundled model and argv of the fuzz test's working command."""
    model, line = next(
        (model, line) for model, line in WORKING if line.startswith(command.path + " ")
    )
    return model, line.split()


@pytest.mark.parametrize("command, dest, kind", REFERENCES)
def test_every_model_reference_refuses_an_unknown_name(capsys, command, dest, kind):
    model, argv = working_argv(command)
    argv[argv.index(f"--{dest}") + 1] = "ghost"
    code, out, err = run(capsys, *argv, "-m", model_path(model))
    if kind == "exponent":
        assert err.startswith("error[input]: bad exponent 'ghost': ")
    else:
        noun = {"signed": "measure", "measures": "measure"}.get(kind, kind)
        assert err == f"error[input]: unknown {noun} 'ghost'\n"
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "command, dest, kind",
    [ref for ref in REFERENCES if ref.values[2] in ("measure", "signed", "measures")],
)
def test_only_signed_references_take_a_signed_measure(
    capsys, tmp_path, command, dest, kind
):
    # the named measure, negated, is signed; "signed" flags take it and
    # "measure" and "measures" flags refuse it by name
    model, argv = working_argv(command)
    at = argv.index(f"--{dest}") + 1
    doc = json.loads(json.dumps(MODELS[model]))
    entry = doc["measures"][argv[at].split(",")[0]]
    weights = {p: str(-Fraction(str(w))) for p, w in entry["weights"].items()}
    doc["measures"]["neg"] = {**entry, "weights": weights}
    argv[at] = "neg"
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *argv, "-m", str(path))
    if kind == "signed":
        assert (code, err) == (0, "") and out
    else:
        message = "measure 'neg' is signed; this command needs nonnegative weights"
        assert (code, out, err) == (2, "", f"error[input]: {message}\n")


def test_exit_code_missing_model(capsys):
    code, _, err = run(capsys, "space", "-m", "/nonexistent.json", "--name", "X3")
    assert code == 2
    assert "error[input]" in err


def test_exit_code_formula_parse(capsys):
    code, _, err = run(
        capsys,
        "logic", "check", "-m", PROC, "--kernel", "M", "--formula", "T & T",
    )
    assert code == 2
    assert err.startswith("error[input]")


def test_formula_that_ends_early_says_so(capsys):
    code, out, err = run(
        capsys, "logic", "check", "-m", PROC, "--kernel", "K", "--formula", "dia>=1"
    )
    assert (code, out, err) == (2, "", "error[input]: formula ends unexpectedly\n")


def test_exit_code_set_splitting_atom(capsys):
    code, _, err = run(
        capsys, "measure", "eval", "-m", DECOMP, "--measure", "tri", "--set", "a,zz"
    )
    assert code == 2
    assert "unknown point" in err


def test_empty_set_evaluates_to_zero(capsys):
    code, out, _ = run(
        capsys, "measure", "eval", "-m", DECOMP, "--measure", "tri", "--set", ""
    )
    assert code == 0
    assert out.strip() == "tri({}) = 0"


def test_bisim_mediate_not_bisimilar_is_domain_error(capsys):
    code, _, err = run(
        capsys, "bisim", "mediate", "-m", PROC, "--left", "M", "--right", "KU"
    )
    assert code == 1
    assert err.startswith("error[NotBisimilar]")


def test_bisim_mediate_past_the_size_limit_is_refused_at_once(capsys, tmp_path):
    # the uniform 33-state chain with itself: (33^2)^2 nonzeros
    points = [f"s{i}" for i in range(33)]
    row = {p: "1/33" for p in points}
    doc = {
        "spaces": {"S": {"points": points}},
        "kernels": {"K": {"domain": "S", "codomain": "S", "rows": {p: row for p in points}}},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    started = time.perf_counter()
    code, out, err = run(
        capsys, "bisim", "mediate", "-m", str(path), "--left", "K", "--right", "K"
    )
    assert time.perf_counter() - started < 1
    assert code == 1 and out == ""
    assert err.startswith("error[CapacityExceeded]: mediation needs 1089 and 1089")


def test_path_horizon_five_builds(capsys, monkeypatch):
    # 32 path points; refused while the limit counted atoms, 16 at most
    monkeypatch.delenv("FINMEAS_ATOM_CAP", raising=False)
    code, out, err = run(
        capsys,
        "kernel", "path", "-m", PROC, "--kernel", "MP", "--start", "a", "--horizon", "5",
    )
    assert code == 0 and err == ""
    assert out.endswith("total = 1\n")


def test_huge_path_horizon_is_refused_at_once(capsys, monkeypatch):
    monkeypatch.delenv("FINMEAS_ATOM_CAP", raising=False)
    started = time.perf_counter()
    code, out, err = run(
        capsys,
        "kernel", "path", "-m", PROC, "--kernel", "MP", "--start", "a",
        "--horizon", "1000000000",
    )
    assert time.perf_counter() - started < 1
    assert code == 1 and out == ""
    assert err.startswith("error[HorizonTooLarge]: ")


def test_logic_check_example(capsys):
    code, out, _ = run(
        capsys,
        "logic", "check", "-m", PROC, "--kernel", "M", "--formula", "dia>=1/2 T",
    )
    assert code == 0
    assert out.strip() == "[[dia>=1/2 T]] = {a,b}"


def test_hutchinson_example(capsys):
    code, out, _ = run(
        capsys,
        "dist", "hutchinson",
        "-m", METRIC, "--left", "dirac_a", "--right", "dirac_b", "--metric", "d2",
        "--gamma", "1",
    )
    assert code == 0
    assert out.splitlines()[0] == "1/2"


def test_float_witness_keeps_the_sign_of_an_underflowed_zero(capsys, tmp_path):
    """Witness values of magnitude 10^-400 print as 0 or -0 under --float;
    -0.0 == 0.0, so formatting by distinct value would print both alike."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "metrics": {"d": {"points": ["a", "b", "c"],
                          "dist": [[0, "1e-400", 1], ["1e-400", 0, 1], [1, 1, 0]]}},
        "measures": {"m": {"space": "d", "weights": {"a": 1}},
                     "n": {"space": "d", "weights": {"b": 1}}},
    }), encoding="utf-8")
    code, out, err = run(
        capsys, "dist", "hutchinson", "-m", str(path), "--left", "m", "--right", "n",
        "--metric", "d", "--gamma", "1e-400", "--float",
    )
    assert code == 0 and err == ""
    assert out == "0\nwitness: [0, -0, -0]\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"spaces": {"X": {"points": [1, 2]}}},
        {"spaces": {"X": {"points": "abc"}}},
        {
            "spaces": {"X": {"points": ["a"]}},
            "relations": {"r": {"left": "X", "right": "X", "pairs": [[["a"], "a"]]}},
        },
    ],
    ids=["integer-points", "string-points", "list-in-relation-pair"],
)
def test_model_rejects_non_string_names(capsys, tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]")


@pytest.mark.parametrize("pairs", [None, 5, {}], ids=["null", "number", "object"])
def test_model_rejects_relation_pairs_that_are_not_a_list(capsys, tmp_path, pairs):
    doc = {
        "spaces": {"X": {"points": ["a"]}},
        "relations": {"r": {"left": "X", "right": "X", "pairs": pairs}},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]: relation 'r': pairs must be a JSON list")


def test_model_rejects_duplicate_json_keys(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"spaces": {"X": {"points": ["a"]}, "X": {"points": ["b", "c"]}}}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]") and "duplicate JSON key 'X'" in err


def test_model_rejects_atom_point_outside_the_carrier(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"spaces": {"X": {"points": ["a", "b"], "atoms": [["a"], ["b", "c"]]}}}),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]") and "'c'" in err


def test_model_rejects_zero_denominator(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({
            "spaces": {"X": {"points": ["a"]}},
            "measures": {"m": {"space": "X", "weights": {"a": "1/0"}}},
        }),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]") and "zero denominator" in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_result_too_long_to_print_is_a_capacity_error(capsys, tmp_path, mode):
    # a valid 5,001-digit integral, past the interpreter's printing limit
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({
            "spaces": {"X": {"points": ["a", "b"]}},
            "measures": {"eta": {"space": "X", "weights": {"a": 1, "b": 0}}},
            "functions": {"big": {"space": "X", "values": {"a": "1e5000", "b": 0}}},
        }),
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "integrate", "-m", str(path), "--function", "big", "--measure", "eta",
        *mode,
    )
    assert code == 1 and out == ""
    assert err.startswith("error[CapacityExceeded]") and "5001 digits" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "hutchinson", "-m", METRIC, "--left", "dirac_a", "--right",
         "dirac_b", "--metric", "d2", "--gamma", "1/0"],
        ["lp-norm", "-m", DECOMP, "--function", "f12", "--measure", "eta",
         "--p", "1/0"],
        ["logic", "check", "-m", PROC, "--kernel", "M", "--formula", "dia>=1/0 T"],
    ],
    ids=["gamma", "p", "formula-threshold"],
)
def test_argv_rejects_zero_denominator(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error[input]") and "zero denominator" in err


@pytest.mark.parametrize(
    "doc",
    [
        {
            "spaces": {"X": {"points": ["a"]}},
            "measures": {"m": {"space": ["X"], "weights": {}}},
        },
        {
            "spaces": {"X": {"points": ["a"]}},
            "kernels": {"K": {"domain": {}, "codomain": "X", "rows": {}}},
        },
        {
            "spaces": {"X": {"points": ["a"]}},
            "kernels": {
                "K": {"domain": "X", "codomain": "X", "rows": {"a": {"a": "1"}},
                      "kind": ["x"]},
            },
        },
        {"spaces": {"X": {"points": ["a"]}, "P": {"product": ["X", ["X"]]}}},
    ],
    ids=["list-space", "object-domain", "list-kind", "list-product-factor"],
)
def test_model_rejects_non_string_references(capsys, tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]")


def test_model_rejects_colliding_product_labels(capsys, tmp_path):
    # join_pair_label("", "|") == join_pair_label("|", "") == "|||"
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps({"spaces": {"X": {"points": ["", "|"]}, "P": {"product": ["X", "X"]}}}),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]: space 'P'") and "points must be distinct" in err


def _write(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "rows, message",
    [
        ({"a": {"a": 1}, "z": {"a": 1}}, "kernel 'K': unknown point 'z'"),
        ({"a": {"a": 1}, "b": {"a": 1}}, "kernel 'K': points 'a' and 'b' hit the same atom"),
    ],
    ids=["unknown-row-point", "two-rows-in-one-atom"],
)
def test_kernel_row_keys_resolve_like_weights(capsys, tmp_path, rows, message):
    path = _write(tmp_path, {
        "spaces": {"X": {"points": ["a", "b"], "atoms": [["a", "b"]]}},
        "kernels": {"K": {"domain": "X", "codomain": "X", "rows": rows}},
    })
    code, out, err = run(capsys, "space", "-m", path, "--name", "X")
    assert code == 2 and out == ""
    assert err == f"error[input]: {message}\n"


@pytest.mark.parametrize(
    "section, message",
    [
        ({"kernels": {"K": {"domain": "X", "codomain": "X",
                            "rows": {"a": {"a": "-1/2", "b": 1}, "b": {"a": 1}}}}},
         "kernel 'K': measure weights must be nonnegative"),
        ({"kernels": {"L": {"domain": "X", "codomain": "X", "kind": "Markov",
                            "rows": {"a": {"a": "1/2"}, "b": {"a": 1}}}}},
         "kernel 'L': declared kind Markov is unsound, rows support only subMarkov"),
        ({"relations": {"R": {"left": "X", "right": "X", "pairs": [["a", "zz"]]}}},
         "relation 'R': unknown pair point in ['a', 'zz']"),
    ],
    ids=["negative-row-weight", "unsound-kind", "unknown-pair-point"],
)
def test_model_refuses_unsound_kernels_and_relations(capsys, tmp_path, section, message):
    path = _write(tmp_path, {"spaces": {"X": {"points": ["a", "b"]}}, **section})
    assert run(capsys, "space", "-m", path, "--name", "X") == (
        2, "", f"error[input]: {message}\n"
    )


def test_model_refuses_a_product_chain_past_the_point_limit_at_once(capsys, tmp_path):
    # P1 = A x A and each P(k+1) = Pk x Pk: P4 has 2^16 points, P5 2^32
    spaces = {"A": {"points": ["a", "b"]}, "P1": {"product": ["A", "A"]}}
    spaces.update({f"P{k + 1}": {"product": [f"P{k}", f"P{k}"]} for k in range(1, 5)})
    path = _write(tmp_path, {"spaces": spaces})
    started = time.perf_counter()
    code, out, err = run(capsys, "space", "-m", path, "--name", "A")
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert err.startswith("error[input]: space 'P5': a product of 4294967296 points")
    assert err.count("\n") == 1


def test_product_command_refuses_a_product_past_the_point_limit(capsys, tmp_path):
    # 1,025 x 1,024 points, one atom each: the limit counts points, not atoms
    left = [f"a{k}" for k in range(1025)]
    right = [f"b{k}" for k in range(1024)]
    path = _write(tmp_path, {
        "spaces": {"A": {"points": left, "atoms": [left]}, "B": {"points": right, "atoms": [right]}},
        "measures": {"mu": {"space": "A", "weights": {"a0": 1}}, "nu": {"space": "B", "weights": {"b0": 1}}},
    })
    started = time.perf_counter()
    code, out, err = run(capsys, "product", "-m", path, "--left", "mu", "--right", "nu")
    assert time.perf_counter() - started < 1
    assert code == 1 and out == ""
    assert err.startswith("error[CapacityExceeded]: a product of 1049600 points")
    assert err.count("\n") == 1


def test_model_refuses_a_product_past_the_label_byte_limit(capsys, tmp_path):
    # 1,024 labels of 65,532 + 1 + 4 bytes: 5,120 bytes past 2^26
    path = _write(tmp_path, {
        "spaces": {
            "A": {"points": ["a" * 65532]},
            "B": {"points": [f"{k:04d}" for k in range(1024)]},
            "P": {"product": ["A", "B"]},
        },
    })
    code, out, err = run(capsys, "space", "-m", path, "--name", "B")
    assert code == 2 and out == ""
    assert err == (
        "error[input]: space 'P': a product of 1024 points and 67109888 label bytes"
        " is past the limits 1048576 and 67108864\n"
    )


def test_model_products_share_one_budget(capsys, tmp_path, monkeypatch):
    # P and Q are X x X, 9 points of 3 label bytes each: either fits the
    # limits alone, together they take 18 points and 54 label bytes
    path = _write(tmp_path, {
        "spaces": {
            "X": {"points": ["a", "b", "c"]},
            "P": {"product": ["X", "X"]},
            "Q": {"product": ["X", "X"]},
        },
    })
    for limits in ((17, 54), (18, 53)):
        monkeypatch.setattr("finmeas.spaces.MAX_PRODUCT_POINTS", limits[0])
        monkeypatch.setattr("finmeas.spaces.MAX_PRODUCT_LABEL_BYTES", limits[1])
        code, out, err = run(capsys, "space", "-m", path, "--name", "X")
        assert code == 2 and out == ""
        assert err == (
            "error[input]: space 'Q': the model's products would take 18 points"
            " and 54 label bytes, past the limits {} and {}\n".format(*limits)
        )
    # totals exactly at the limits are accepted
    monkeypatch.setattr("finmeas.spaces.MAX_PRODUCT_POINTS", 18)
    monkeypatch.setattr("finmeas.spaces.MAX_PRODUCT_LABEL_BYTES", 54)
    code, out, err = run(capsys, "space", "-m", path, "--name", "Q")
    assert code == 0 and err == "" and "c|c" in out


def test_model_rejects_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes('{"spaces": {"X": {"points": ["\u00e9"]}}}'.encode("latin-1"))
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith("error[input]") and "not UTF-8" in err


@pytest.mark.parametrize(
    "text",
    [
        "[" * 200000 + "]" * 200000,
        '{"spaces": {"X": {"points": ["a"]}}, "measures": {"m": {"space": "X", '
        '"weights": {"a": ' + "[" * 200000 + "]" * 200000 + "}}}}",
        '{"spaces": {"X": {"points": [' + "1" * 5000 + "]}}}",
    ],
    ids=["deep-list", "deep-weight", "long-integer"],
)
def test_model_nested_past_the_recursion_limit_or_past_the_digit_limit(
    capsys, tmp_path, text
):
    """json.load raises RecursionError on deep nesting and a plain ValueError
    on an integer literal past the interpreter's digit limit."""
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "space", "-m", str(path), "--name", "X")
    assert code == 2 and out == ""
    assert err.startswith(f"error[input]: invalid JSON in {path}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1e400", "-0.5"])
def test_weak_check_rejects_a_non_finite_or_negative_tol(capsys, tol):
    code, out, err = run(
        capsys,
        "weak-check", "-m", METRIC, "--sequence", "w1,w2,w3", "--limit", "wlim",
        "--metric", "d3", "--tol", tol,
    )
    assert code == 2 and out == ""
    assert err.startswith("error[input]: tol must be a finite number >= 0")


@pytest.mark.parametrize(
    "sequence, expected",
    [
        (",", (2, "", "error[input]: need at least one element in the sequence\n")),
        ("w1,dirac_a", (1, "", "error[SpaceMismatch]: sequence measures must live on "
                               "the metric's space\n")),
    ],
    ids=["empty", "other-space"],
)
def test_weak_check_refuses_an_empty_or_foreign_sequence(capsys, sequence, expected):
    assert run(
        capsys, "weak-check", "-m", METRIC, "--sequence", sequence, "--limit", "wlim",
        "--metric", "d3", "--tol", "0.1",
    ) == expected


def test_weak_check_decides_a_float_tol_exactly(capsys, tmp_path):
    """The residual 1/10 + 10^-17 rounds to the float 0.1 but exceeds it."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "metrics": {"d": {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}},
        "measures": {
            "mu": {"space": "d", "weights": {
                "a": "60000000000000001/100000000000000000",
                "b": "39999999999999999/100000000000000000",
            }},
            "lim": {"space": "d", "weights": {"a": "1/2", "b": "1/2"}},
        },
    }))
    code, out, err = run(
        capsys, "weak-check", "-m", str(path), "--sequence", "mu", "--limit", "lim",
        "--metric", "d", "--tol", "0.1",
    )
    assert code == 0 and err == ""
    assert "converges = false\n" in out
    assert out.endswith("witness set: {a}\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_weak_check_decides_with_the_decimal_tol_typed(capsys, tmp_path, json_flag):
    """The residual 3/10 is within --tol 0.3, though the float 0.3 is below 3/10;
    --json still echoes the tol as the float."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "metrics": {"d": {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}},
        "measures": {
            "w": {"space": "d", "weights": {"a": 1, "b": 0}},
            "lim": {"space": "d", "weights": {"a": "7/10", "b": "3/10"}},
        },
    }))
    code, out, err = run(
        capsys, "weak-check", "-m", str(path), "--sequence", "w", "--limit", "lim",
        "--metric", "d", "--tol", "0.3", *json_flag,
    )
    assert code == 0 and err == ""
    if json_flag:
        payload = json.loads(out)
        assert payload["tol"] == 0.3 and payload["converges"] is True
        assert payload["per_atom_ok"] is payload["portmanteau_ok"] is True
    else:
        assert out.startswith(
            "converges = true\nper-atom ok = true (residual 0.3)\n"
            "portmanteau ok = true (excess 0.3)\n"
        )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["lp-norm", "--function", "f12", "--measure", "eta", "--p", "100000"],
         "lp-norm p=100000: 1.9999861371\n"),
        (["lp-norm", "--function", "f12", "--measure", "eta", "--p", "100001/3"],
         "lp-norm p=100001/3: 1.99995841202\n"),
        (["ineq", "hoelder", "--left", "f12", "--right", "g31", "--measure", "eta",
          "--p", "100000"],
         "hoelder p=100000: lhs = 5/2, rhs = 3.9999775067, holds = true\n"),
        (["ineq", "minkowski", "--left", "f12", "--right", "g31", "--measure", "eta",
          "--p", "100001/3"],
         "minkowski p=100001/3: lhs = 3.99991682403, rhs = 4.99989603004, "
         "holds = true\n"),
    ],
    ids=["lp-int", "lp-ratio", "hoelder", "minkowski"],
)
def test_lp_norms_with_a_large_exponent(capsys, argv, expected):
    assert run(capsys, *argv, "-m", DECOMP) == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--function", "big", "--measure", "eta", "--float"],
        ["lp-norm", "--function", "big", "--measure", "eta", "--p", "2"],
        ["lp-norm", "--function", "big", "--measure", "eta", "--p", "3"],
        ["lp-norm", "--function", "f12", "--measure", "eta", "--p", "1e400"],
    ],
    ids=["integrate", "lp-2", "lp-3", "huge-p"],
)
def test_values_beyond_the_float_range_are_a_domain_error(capsys, tmp_path, argv):
    doc = json.loads(open(DECOMP, encoding="utf-8").read())
    doc["functions"]["big"] = {"space": "X2", "values": {"a": "1e340", "b": 1}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, *argv, "-m", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error[FloatRange]: ") and "Traceback" not in err
    exact = run(capsys, "integrate", "--function", "big", "--measure", "eta",
                "-m", str(path))
    assert exact == (0, f"integral big deta = {Fraction(10**340 + 1, 2)}\n", "")


def _lp_model(tmp_path):
    """X2 with eta = (1/2, 1/2), g31 = (3, 1) and functions past the sqrt range
    or, P and Q, U and V, with norms past or below the float range, and Z = 0."""
    doc = json.loads(open(DECOMP, encoding="utf-8").read())
    for name, a, b in [("f", "1e200", 1), ("t", "1e-200", 0), ("F", "1e200", 0),
                       ("G", 0, "1e200"), ("H", "1.7e308", 0), ("K", 0, "1.7e308"),
                       ("P", "1e340", 0), ("Q", "1e-340", 0), ("U", "1e-400", 0),
                       ("V", "1e300", 0), ("Z", 0, 0)]:
        doc["functions"][name] = {"space": "X2", "values": {"a": a, "b": b}}
    return _write(tmp_path, doc)


@pytest.mark.parametrize(
    "argv, bounds",
    [
        (["hoelder", "--left", "f", "--right", "g31"], ["rhs = 1.58113883008e+200"]),
        (["minkowski", "--left", "f", "--right", "g31"],
         ["lhs = 7.07106781187e+199", "rhs = 7.07106781187e+199"]),
        (["hoelder", "--left", "t", "--right", "g31"], ["rhs = 1.58113883008e-200"]),
        (["minkowski", "--left", "t", "--right", "t"],
         ["lhs = 1.41421356237e-200", "rhs = 1.41421356237e-200"]),
    ],
    ids=["hoelder-big", "minkowski-big", "hoelder-tiny", "minkowski-tiny"],
)
def test_p2_bounds_past_the_sqrt_range_are_printed(capsys, tmp_path, argv, bounds):
    code, out, err = run(capsys, "ineq", *argv, "--measure", "eta", "--p", "2",
                         "-m", _lp_model(tmp_path))
    assert code == 0 and err == ""
    assert all(bound in out for bound in bounds) and out.endswith("holds = true\n")


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize(
    "argv",
    [["hoelder", "--left", "F", "--right", "G"], ["minkowski", "--left", "H", "--right", "K"]],
    ids=["hoelder", "minkowski"],
)
def test_a_bound_past_the_largest_float_is_a_domain_error(capsys, tmp_path, argv, mode):
    code, out, err = run(capsys, "ineq", *argv, "--measure", "eta", "--p", "3", *mode,
                         "-m", _lp_model(tmp_path))
    assert (code, out) == (1, "")
    assert err == f"error[FloatRange]: the {argv[0].capitalize()} bound is beyond the largest float\n"


@pytest.mark.parametrize("p", ["2", "3"])
@pytest.mark.parametrize(
    "left, right, lhs, rhs",
    [("P", "Q", "1/2", "0.5"), ("U", "V", f"1/{2 * 10**100}", "5e-101")],
    ids=["above", "below"],
)
def test_a_hoelder_bound_in_range_is_printed_when_a_factor_norm_is_not(
    capsys, tmp_path, left, right, lhs, rhs, p
):
    code, out, err = run(capsys, "ineq", "hoelder", "--left", left, "--right", right,
                         "--measure", "eta", "--p", p, "-m", _lp_model(tmp_path))
    assert (code, out, err) == (0, f"hoelder p={p}: lhs = {lhs}, rhs = {rhs}, holds = true\n", "")


@pytest.mark.parametrize(
    "right, lhs, rhs",
    [("V", f"1/{2 * 10**100}", f"1/{2 * 10**100}"), ("Z", "0", "0")],
    ids=["tiny", "zero"],
)
def test_a_hoelder_bound_at_infinity_stays_exact_when_a_factor_norm_is_out_of_range(
    capsys, tmp_path, right, lhs, rhs
):
    code, out, err = run(capsys, "ineq", "hoelder", "--left", "U", "--right", right,
                         "--measure", "eta", "--p", "infinity", "--json", "-m", _lp_model(tmp_path))
    assert (code, err) == (0, "")
    assert (json.loads(out)["lhs"], json.loads(out)["rhs"]) == (lhs, rhs)


def test_deep_formula_runs_without_recursion():
    depth = 3000
    argv = [
        sys.executable, "-m", "finmeas", "logic", "check", "-m", PROC,
        "--kernel", "M", "--formula", "dia>=1/2 " * depth + "T",
    ]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0 and "Traceback" not in done.stderr
    # the fixed point loop S_0 = X, S_{k+1} = {x : K(x)(S_k) >= 1/2}
    kernel = load_model(PROC).kernel("M")
    current = kernel.domain.full_set()
    for _ in range(depth):
        current = MeasurableSet(kernel.domain, [
            x for x in kernel.domain.points
            if kernel.row_at_point(x).eval(current) >= Fraction(1, 2)
        ])
    label = "{" + ",".join(current.sorted_points()) + "}"
    assert done.stdout == f"[[{'dia>=1/2 ' * depth}T]] = {label}\n"


def test_malformed_deep_formula_is_an_input_error(capsys):
    code, out, err = run(
        capsys,
        "logic", "check", "-m", PROC, "--kernel", "M", "--formula", "dia>=1/2 " * 3000,
    )
    assert code == 2 and out == ""
    assert err.startswith("error[input]")


def test_model_rejects_unknown_section():
    with pytest.raises(ModelError):
        parse_model({"spacess": {}})


def test_model_rejects_bad_product():
    with pytest.raises(ModelError):
        parse_model({"spaces": {"P": {"product": ["A", "B"]}}})
    with pytest.raises(ModelError):
        parse_model({"spaces": {"P": {"product": ["A"]}}})


def test_model_rejects_float_weight():
    doc = {
        "spaces": {"X": {"points": ["a"]}},
        "measures": {"m": {"space": "X", "weights": {"a": 0.5}}},
    }
    with pytest.raises(ModelError):
        parse_model(doc)


def test_model_rejects_duplicate_atom_weight():
    doc = {
        "spaces": {"X": {"points": ["a", "b"], "generator": [[]]}},
        "measures": {"m": {"space": "X", "weights": {"a": 1, "b": 2}}},
    }
    with pytest.raises(ModelError) as err:
        parse_model(doc)
    assert "same atom" in str(err.value)


def test_model_rejects_metric_name_collision():
    doc = {
        "spaces": {"X": {"points": ["a", "b"]}},
        "metrics": {"X": {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}},
    }
    with pytest.raises(ModelError):
        parse_model(doc)


def test_nested_products_resolve_in_any_order():
    doc = {
        "spaces": {
            "A": {"points": ["a", "b"]},
            "PP": {"product": ["P", "P"]},
            "P": {"product": ["A", "A"]},
        }
    }
    model = parse_model(doc)
    assert len(model.space("PP").points) == 16


def test_relation_pairs_canonicalized():
    doc = {
        "spaces": {"X": {"points": ["a", "b"]}},
        "relations": {
            "r": {"left": "X", "right": "X", "pairs": [["b", "a"], ["a", "a"], ["b", "a"]]}
        },
    }
    model = parse_model(doc)
    assert model.relations["r"][2] == (("a", "a"), ("b", "a"))


def test_cli_byte_determinism_subprocess():
    argv = [
        sys.executable, "-m", "finmeas",
        "decompose", "lebesgue", "-m", DECOMP, "--num", "mu_leb", "--den", "nu_leb",
        "--json",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def _write_shift_chain(path, n, dead_end=False):
    """A model with the n-state shift chain K: state i moves to i + 1, and
    the last state stays put, so every row has one nonzero entry; or, with
    dead_end, the last row is empty and the quotient keeps all n states."""
    points = [f"s{i}" for i in range(n)]
    rows = {p: {points[min(i + 1, n - 1)]: 1} for i, p in enumerate(points)}
    if dead_end:
        rows[points[-1]] = {}
    doc = {
        "spaces": {"S": {"points": points}},
        "kernels": {"K": {"domain": "S", "codomain": "S", "rows": rows}},
    }
    path.write_text(json.dumps(doc))


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    """A reader that stops early, as `| head -1` does, ends the command with
    exit 141 (128 + SIGPIPE, what a shell reports) and an empty stderr."""
    path = tmp_path / "chain.json"
    _write_shift_chain(path, 300)
    argv = [
        sys.executable, "-m", "finmeas", "kernel", "compose", "-m", str(path),
        "--left", "K", "--right", "K", "--json",
    ]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the report is about 1 MB, far more than a pipe buffers
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_loading_a_sparse_chain_takes_memory_linear_in_its_entries(tmp_path):
    """A 2,000-state shift chain has 2,000 nonzero entries.  Its load peaks
    near 2 MB of traced memory; storing every row dense peaked at 63 MB."""
    path = tmp_path / "chain.json"
    _write_shift_chain(path, 2000)
    tracemalloc.start()
    try:
        load_model(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_a_quotient_report_formats_each_row_and_nonzero_at_most_twice(
    capsys, tmp_path, monkeypatch
):
    """The quotient of the 300-state dead-end chain has 300 rows and 299
    nonzeros; formatting every entry of its dense rows took 90,000 calls,
    in exact text and again in --float text."""
    path = tmp_path / "chain.json"
    _write_shift_chain(path, 300, dead_end=True)
    calls = []

    def counted(value):
        calls.append(value)
        return format_fraction(value)

    monkeypatch.setattr(cli, "format_fraction", counted)
    argv = ["logic", "quotient", "-m", str(path), "--kernel", "K"]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert len(rows) == 300
    assert [w for row in rows for w in row["weights"] if w != "0"] == ["1"] * 299
    assert len(calls) <= 2 * (300 + 299)
    calls.clear()
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3 + 300
    assert len(calls) <= 2 * (300 + 299)
    floats = []

    def counted_float(value):
        floats.append(value)
        return format_float(value)

    monkeypatch.setattr(cli, "format_float", counted_float)
    code, out, err = run(capsys, *argv, "--float")
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 3 + 300
    assert len(floats) <= 2 * (300 + 299)


_TOP_USAGE = (
    "usage: finmeas [-h]\n"
    "               {space,measure,decompose,rn,integrate,lp-norm,ineq,delta,"
    "product,fubini,kernel,disintegrate,dist,weak-check,logic,bisim,functional}\n"
    "               ...\n"
)
_KERNEL_USAGE = "usage: finmeas kernel [-h] {compose,lift,path} ...\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["nope"],
            _TOP_USAGE + "finmeas: error: argument command: invalid choice: 'nope' "
            "(choose from 'space', 'measure', 'decompose', 'rn', 'integrate', "
            "'lp-norm', 'ineq', 'delta', 'product', 'fubini', 'kernel', "
            "'disintegrate', 'dist', 'weak-check', 'logic', 'bisim', 'functional')\n",
        ),
        (
            ["kernel", "nope"],
            _KERNEL_USAGE + "finmeas kernel: error: argument subcommand: invalid "
            "choice: 'nope' (choose from 'compose', 'lift', 'path')\n",
        ),
        (
            ["kernel"],
            _KERNEL_USAGE
            + "finmeas kernel: error: the following arguments are required: subcommand\n",
        ),
        (
            ["space", "--name", "G", "-m", DECOMP, "extra"],
            _TOP_USAGE + "finmeas: error: unrecognized arguments: extra\n",
        ),
    ],
    ids=["top choice", "group choice", "no subcommand", "trailing argument"],
)
def test_usage_errors_name_the_choices(monkeypatch, argv, err):
    # the top and group parsers report every choice, though a command line
    # makes only the parsers it selects
    monkeypatch.setenv("COLUMNS", "80")
    assert run_main(argv) == (2, "", err)
