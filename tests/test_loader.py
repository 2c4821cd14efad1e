"""The model loader: as_ratio against as_fraction, and the objects
load_model builds against the same objects built from dense as_fraction
weights (``oracles.dense_model_sections``)."""

import json
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas import cli
from finmeas.rational import as_fraction, as_ratio

from conftest import run_main
from oracles import dense_model_sections

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()


def _outcome(parse, value):
    """(numerator, denominator), or the exception's type and message."""
    try:
        result = parse(value)
    except Exception as err:  # noqa: BLE001  the outcome is compared, not handled
        return type(err), str(err)
    assert all(type(part) is int for part in result)
    return result


def _via_fraction(value):
    value = as_fraction(value)
    return value.numerator, value.denominator


EDGES = [
    "007/010", "-0", "-0/5", "1/0", "1/00", "1/-2", "--1", "", "-", "/", "1/",
    "/2", "²", "٣", "1/٣", " 1/2", "0.25", "1e3", "+1", "1_0", "-12/18",
    "1" * (DIGIT_LIMIT + 1), "-" + "1" * (DIGIT_LIMIT + 1), "1/" + "2" * (DIGIT_LIMIT + 1),
    True, False, 0, -7, 10**40, None, 0.5, [1], Fraction(-3, 6),
]


@pytest.mark.parametrize("value", EDGES, ids=lambda value: repr(value)[:12])
def test_as_ratio_gives_as_fractions_parts_or_error(value):
    assert _outcome(as_ratio, value) == _outcome(_via_fraction, value)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="0123456789-/+ ._e²٣", max_size=8),
        st.fractions().map(str),
        st.tuples(st.integers(-999, 999), st.integers(-9, 999)).map("{0[0]}/{0[1]}".format),
        st.integers(),
        st.booleans(),
    )
)
def test_as_ratio_property(value):
    assert _outcome(as_ratio, value) == _outcome(_via_fraction, value)


def _spelling(rng, value):
    """A model-file spelling of a rational: a JSON int, or a string the
    fast path reads, or one it leaves to as_fraction."""
    n, d = value.numerator, value.denominator
    k = rng.randint(1, 4)
    return rng.choice([
        n if d == 1 else str(value),
        str(value),
        f"{n * k}/{d * k}",
        f"{n:04d}/{d}",
        f" {n}/{d} ",
        f"+{n}/{d}" if n >= 0 else f"{n}/{d}",
        f"{n}e0" if d == 1 else f"{n}/{d}",
    ])


def _random_doc(rng):
    """A model with a discrete and a grouped space, measures (some signed),
    functions, kernels between them and a line metric."""
    xs = [f"x{k}" for k in range(rng.randint(1, 9))]
    ys = [f"y{k}" for k in range(rng.randint(2, 9))]
    cut = rng.randint(1, len(ys) - 1)
    atoms = [ys[:cut], ys[cut:]] if rng.random() < 0.5 else [[y] for y in ys]
    spaces = {"X": {"points": xs}, "Y": {"points": ys, "atoms": atoms}}
    reps = {"X": [[x] for x in xs], "Y": atoms}

    def number(low):
        return Fraction(rng.randint(low, 30), rng.choice([1, 2, 3, 4, 6, 12, 35]))

    def weights(space, low=0):
        return {
            rng.choice(atom): _spelling(rng, number(low))
            for atom in reps[space]
            if rng.random() < 0.8
        }

    doc = {"spaces": spaces, "measures": {}, "functions": {}, "kernels": {}}
    for k in range(4):
        space = rng.choice("XY")
        doc["measures"][f"m{k}"] = {"space": space, "weights": weights(space, -9 * (k % 2))}
        doc["functions"][f"f{k}"] = {"space": space, "values": weights(space, -30)}
    for k, (dom, cod) in enumerate(["XY", "YX", "YY"]):
        doc["kernels"][f"K{k}"] = {
            "domain": dom,
            "codomain": cod,
            "rows": {rng.choice(atom): weights(cod) for atom in reps[dom]},
        }
    coords = rng.sample(range(40), 4)
    doc["metrics"] = {
        "d": {
            "points": ["d0", "d1", "d2", "d3"],
            "dist": [[_spelling(rng, Fraction(abs(a - b), 7)) for b in coords] for a in coords],
        }
    }
    doc["measures"]["dm"] = {
        "space": "d",
        "weights": {f"d{k}": _spelling(rng, Fraction(rng.randint(0, 5), 4)) for k in range(4)},
    }
    return doc


def _assert_loads_as_dense(doc, model):
    want = dense_model_sections(doc, model.spaces)
    assert sorted(model.measures) == sorted(want["measures"])
    for name, measure in want["measures"].items():
        got = model.measures[name]
        assert (type(got), got.space, got.form) == (type(measure), measure.space, measure.form)
    assert model.functions == want["functions"]
    assert sorted(model.kernels) == sorted(want["kernels"])
    for name, kernel in want["kernels"].items():
        got = model.kernels[name]
        assert (got.domain, got.codomain, got.kind) == (kernel.domain, kernel.codomain, kernel.kind)
        assert [row.form for row in got.rows] == [row.form for row in kernel.rows]
    for name, metric in want["metrics"].items():
        assert model.metrics[name].scaled == metric.scaled


@pytest.mark.parametrize("name", ["decomposition", "processes", "metrics"])
def test_bundled_models_load_as_the_dense_oracle_builds_them(name):
    path = resources.files("finmeas") / "examples" / f"{name}.json"
    doc = json.loads(path.read_text("utf-8"))
    _assert_loads_as_dense(doc, cli.load_model(str(path)))


def test_generated_models_load_as_the_dense_oracle_builds_them(tmp_path):
    rng = random.Random(29)
    for k in range(60):
        doc = _random_doc(rng)
        path = tmp_path / f"model{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        _assert_loads_as_dense(doc, cli.load_model(str(path)))


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"points": ["a", "b"], "dist": [[0, "x"], ["x", 0]]},
         "metric 'd': Invalid literal for Fraction: 'x'"),
        ({"points": ["a", "b"], "dist": [[0, [1]], [1, 0]]},
         "metric 'd': not a rational: [1] (floats are not exact, use 'p/q')"),
        ({"points": ["a", 1], "dist": [[0, 1], [1, 0]]},
         "metric 'd': points must be a list of strings"),
        ({"points": ["a", 1], "dist": "x"},
         "metric 'd': points must be a list of strings"),
        ({"points": ["a", "b"], "dist": ["01", "10"]},
         "metric 'd': dist must be a list of lists"),
        ({"points": ["a", "b"], "dist": "x"},
         "metric 'd': dist must be a list of lists"),
        ({"points": ["a", "b"], "dist": [[0, 1], "10"]},
         "metric 'd': dist must be a list of lists"),
        ({"points": ["a", "b"], "dist": {"a": [0, 1]}},
         "metric 'd': dist must be a list of lists"),
    ],
)
def test_bad_metric_entries_name_the_metric_once(entry, message):
    with pytest.raises(cli.ModelError) as err:
        cli.parse_model({"metrics": {"d": entry}})
    assert str(err.value) == message


@pytest.mark.parametrize("dist", [["01", "10"], "x"], ids=["strings", "string"])
def test_a_dist_of_strings_exits_2_before_any_distance(tmp_path, dist):
    # a string iterates as characters: ["01", "10"] once loaded as the 0/1 metric
    path = tmp_path / "model.json"
    doc = {
        "metrics": {"d": {"points": ["a", "b"], "dist": dist}},
        "measures": {
            "m": {"space": "d", "weights": {"a": 1}},
            "n": {"space": "d", "weights": {"b": 1}},
        },
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["dist", "hutchinson", "--left", "m", "--right", "n", "--metric", "d",
            "--gamma", "1", "-m", str(path)]
    code, out, err = run_main(argv)
    assert (code, out) == (2, "")
    assert err == "error[input]: metric 'd': dist must be a list of lists\n"
