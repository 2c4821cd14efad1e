import json
import subprocess
import sys
from importlib import resources

import pytest

from finmeas.cli import ModelError, load_model, main, parse_model, serialize_model


def model_path(name):
    return str(resources.files("finmeas") / "examples" / f"{name}.json")


DECOMP = model_path("decomposition")
PROC = model_path("processes")
METRIC = model_path("metrics")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_round_trip_is_a_fixpoint():
    for name in ("decomposition", "processes", "metrics"):
        model = load_model(model_path(name))
        doc = serialize_model(model)
        assert serialize_model(parse_model(doc)) == doc


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
