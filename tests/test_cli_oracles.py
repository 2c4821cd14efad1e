"""The CLI's rendering of kernels and measures from their integer forms
against the dense rendering it replaced (kept in ``oracles``), in the four
output modes: text and JSON, exact and float."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas import cli
from finmeas.kernels import Kernel
from finmeas.measures import Measure, SignedMeasure
from finmeas.spaces import FiniteMeasurableSpace

from oracles import plain_dense


@st.composite
def weights(draw, n, signed):
    """n weights: zeros, and numerators over a power of 10 or of 3; an
    all-zero list is drawn often."""
    if draw(st.integers(0, 4)) == 0:
        return [Fraction(0)] * n
    base = draw(st.sampled_from([10, 3]))
    low = -10**6 if signed else 0
    return [
        Fraction(draw(st.integers(low, 10**6)), base ** draw(st.integers(0, 30)))
        if draw(st.booleans())
        else Fraction(0)
        for _ in range(n)
    ]


@st.composite
def spaces(draw):
    """A space of one to six atoms, some of them holding two points."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=6))
    atoms, k = [], 0
    for size in sizes:
        atoms.append([f"p{k + i}" for i in range(size)])
        k += size
    return FiniteMeasurableSpace([p for atom in atoms for p in atom], atoms)


@st.composite
def results(draw):
    """A kernel, a signed measure or a measure."""
    kind = draw(st.sampled_from(["kernel", "signed", "measure"]))
    codomain = draw(spaces())
    if kind == "kernel":
        domain = draw(spaces())
        rows = [
            Measure(codomain, draw(weights(len(codomain.atoms), False)))
            for _ in domain.atoms
        ]
        return Kernel(domain, codomain, rows)
    cls = SignedMeasure if kind == "signed" else Measure
    return cls(codomain, draw(weights(len(codomain.atoms), kind == "signed")))


@settings(max_examples=300, deadline=None)
@given(results())
def test_rendering_matches_the_dense_rendering(value):
    for float_mode in (False, True):
        report = {"value": value}
        got, want = cli._plain(report, float_mode), plain_dense(report, float_mode)
        assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
        assert cli._text(got["value"]) == cli._text(want["value"])
