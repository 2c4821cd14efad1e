import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas import kernels as kernels_module
from finmeas import spaces
from finmeas.errors import (
    CapacityExceeded,
    HorizonTooLarge,
    NotAtomMap,
    NotProductSpace,
    SpaceMismatch,
)
from finmeas.integrate import StepFunction, integral
from finmeas.kernels import (
    FINITE,
    MARKOV,
    MAX_PATH_STEPS,
    SUB_MARKOV,
    AtomMap,
    Kernel,
    convolve,
    cut_x,
    cut_y,
    disintegrate,
    fubini,
    identity_kernel,
    kleisli_lift,
    measure_kernel_product,
    path_marginal,
    path_measure,
    product_measure,
    pushforward,
)
from finmeas.logic_bisim import CouplingProblem, solve_coupling
from finmeas.measures import Measure, SignedMeasure
from finmeas.spaces import (
    MAX_PRODUCT_LABEL_BYTES,
    FiniteMeasurableSpace,
    product_size,
    product_space,
    sigma_from_generator,
)

from conftest import (
    kernel_from_matrix,
    rand_kernel,
    rand_measure,
    rand_probability,
    rand_space,
)

S = FiniteMeasurableSpace.discrete("ab")
K = kernel_from_matrix(S, S, [[Fraction(1, 2), Fraction(1, 2)], [0, 1]])


def test_kind_inference_and_validation():
    assert K.kind == MARKOV
    sub = kernel_from_matrix(S, S, [[Fraction(1, 2), 0], [0, 1]])
    assert sub.kind == SUB_MARKOV
    fin = kernel_from_matrix(S, S, [[2, 0], [0, 1]])
    assert fin.kind == FINITE
    with pytest.raises(ValueError):
        kernel_from_matrix(S, S, [[2, 0], [0, 1]], kind=MARKOV)
    with pytest.raises(ValueError):
        kernel_from_matrix(S, S, [[Fraction(1, 2), 0], [0, 1]], kind=MARKOV)


def test_kernel_rows_must_be_nonnegative():
    # a signed row of mass 1 used to pass as Markov, and dia>=1 T then
    # held at both points
    signed = SignedMeasure(S, [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError, match="nonnegative"):
        Kernel(S, S, [signed, Measure(S, [0, 1])])


def test_convolution_example():
    square = convolve(K, K)
    assert square.rows[0].weights == (Fraction(1, 4), Fraction(3, 4))
    assert square.rows[1].weights == (0, 1)
    assert square.kind == MARKOV


def test_convolution_requires_chained_spaces():
    other = FiniteMeasurableSpace.discrete("xyz")
    L = rand_kernel(random.Random(1), other, S)
    # the right kernel runs first, so its codomain must match the left domain
    with pytest.raises(SpaceMismatch):
        convolve(L, K)
    composed = convolve(K, L)
    assert composed.domain == other and composed.codomain == S
    assert convolve(L, rand_kernel(random.Random(2), S, other)).domain == S


def test_identity_is_neutral():
    rng = random.Random(3)
    for _ in range(20):
        dom = rand_space(rng, 4)
        cod = rand_space(rng, 4)
        L = rand_kernel(rng, dom, cod, kind=rng.choice([MARKOV, SUB_MARKOV]))
        assert convolve(L, identity_kernel(dom)) == L
        assert convolve(identity_kernel(cod), L) == L


def test_kleisli_lift_example():
    point_rows = kernel_from_matrix(S, S, [[1, 0], [0, 1]])
    mu = Measure(S, [Fraction(1, 2), Fraction(1, 2)])
    assert kleisli_lift(point_rows, mu).weights == (Fraction(1, 2), Fraction(1, 2))
    assert kleisli_lift(K, mu).weights == (Fraction(1, 4), Fraction(3, 4))


def test_measure_kernel_product_example():
    mu = Measure(S, [Fraction(1, 2), Fraction(1, 2)])
    joint = measure_kernel_product(mu, K)
    assert joint.space.factors == (S, S)
    assert joint.weights == (
        Fraction(1, 4),
        Fraction(1, 4),
        0,
        Fraction(1, 2),
    )


def test_product_measure_example():
    mu = Measure(S, [Fraction(1, 2), Fraction(1, 2)])
    nu = Measure(S, [Fraction(1, 3), Fraction(2, 3)])
    assert product_measure(mu, nu).weights == (
        Fraction(1, 6),
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(1, 3),
    )


def test_cuts_and_fubini():
    rng = random.Random(5)
    for _ in range(30):
        left = rand_space(rng, 4)
        right = rand_space(rng, 4)
        prod = product_space(left, right)
        f = StepFunction(
            prod, [Fraction(rng.randint(-4, 4)) for _ in prod.atoms]
        )
        mu = rand_measure(rng, left)
        nu = rand_measure(rng, right)
        direct, xy, yx = fubini(f, mu, nu)
        assert direct == xy == yx
        i = rng.randrange(len(left.atoms))
        j = rng.randrange(len(right.atoms))
        assert cut_x(f, i).space == right
        assert cut_y(f, j).space == left
        nr = len(right.atoms)
        assert cut_x(f, i).values == f.values[i * nr : (i + 1) * nr]


def test_fubini_splits_a_flat_product_once():
    # the prefix of a three-factor space is built once per call, not once
    # per section; the iterated integrals still equal those over cut_x and
    # cut_y
    a, b, c = (
        FiniteMeasurableSpace.discrete([p + "0", p + "1", p + "2"]) for p in "abc"
    )
    prefix = product_space(a, b)
    values = [Fraction(k % 5, 1 + k % 2) for k in range(27)]
    f = StepFunction(product_space(a, b, c), values)
    mu = Measure(prefix, [Fraction(k % 4, 40) for k in range(9)])
    nu = Measure(c, [Fraction(1, 2), 0, Fraction(1, 3)])
    with mock.patch.object(kernels_module, "product_space", wraps=product_space) as spy:
        direct, xy, yx = fubini(f, mu, nu)
    assert [call.args for call in spy.call_args_list].count((a, b)) == 1
    inner_x = StepFunction(prefix, [integral(cut_x(f, i), nu) for i in range(9)])
    inner_y = StepFunction(c, [integral(cut_y(f, j), mu) for j in range(3)])
    assert direct == xy == yx == integral(inner_x, mu) == integral(inner_y, nu)


def test_fubini_rejects_mismatched_function():
    f = StepFunction(S, [1, 2])
    mu = Measure(S, [1, 0])
    with pytest.raises(SpaceMismatch):
        fubini(f, mu, mu)
    with pytest.raises(NotProductSpace):
        cut_x(f, 0)


def test_atom_map_and_pushforward():
    three = FiniteMeasurableSpace.discrete("abc")
    two = FiniteMeasurableSpace.discrete("uv")
    h = AtomMap(three, two, {"a": "u", "b": "u", "c": "v"})
    mu = Measure(three, [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)])
    assert pushforward(h, mu).weights == (Fraction(1, 2), Fraction(1, 2))
    g = StepFunction(two, [3, 7])
    assert h.compose_function(g).values == (3, 3, 7)
    # mapping must be constant on atoms of the domain
    coarse = sigma_from_generator("abc", [{"a", "b"}])
    with pytest.raises(NotAtomMap):
        AtomMap(coarse, two, {"a": "u", "b": "v", "c": "v"})


def test_pushforward_change_of_variables():
    rng = random.Random(7)
    for _ in range(30):
        dom = rand_space(rng, 5)
        cod = rand_space(rng, 3)
        mapping = {}
        for atom in dom.atoms:
            target = rng.choice(cod.atoms)
            for p in atom:
                mapping[p] = target[0]
        h = AtomMap(dom, cod, mapping)
        mu = rand_measure(rng, dom)
        g = StepFunction(cod, [Fraction(rng.randint(-3, 3)) for _ in cod.atoms])
        assert integral(g, pushforward(h, mu)) == integral(
            h.compose_function(g), mu
        )


def test_path_measure_example_and_cap():
    t_space = FiniteMeasurableSpace.discrete("t")
    step = product_space(t_space, S)
    M = kernel_from_matrix(
        S, step, [[Fraction(1, 2), Fraction(1, 2)], [0, 1]]
    )
    two_steps = path_measure(M, "a", 2)
    label = two_steps.space.points[1]
    assert two_steps.weights[1] == Fraction(1, 4)
    assert label == "t||a|t||b"
    assert sum(two_steps.weights) == 1
    assert path_measure(M, "a", 5).total() == 1
    with pytest.raises(CapacityExceeded):
        path_measure(M, "a", 20)  # 2^20 points of 99 label bytes each
    with pytest.raises(ValueError):
        path_measure(M, "a", 0)
    with pytest.raises(SpaceMismatch):
        path_measure(K, "a", 1)


def _two_state_chain():
    """(|T|, |S|) = (1, 2): from a, stay or move to b at 1/2; b stays."""
    step = product_space(FiniteMeasurableSpace.discrete("t"), S)
    return kernel_from_matrix(S, step, [[Fraction(1, 2), Fraction(1, 2)], [0, 1]])


def _one_atom_chain(s_points):
    """The chain on a single-atom S that observes t and stays in its atom."""
    s_space = FiniteMeasurableSpace(s_points, [s_points])
    step = product_space(FiniteMeasurableSpace.discrete("t"), s_space)
    return kernel_from_matrix(s_space, step, [[1]])


def test_path_measure_counts_points_not_atoms(monkeypatch):
    monkeypatch.delenv("FINMEAS_ATOM_CAP", raising=False)
    kernel = _one_atom_chain([f"s{k}" for k in range(300)])
    assert len(path_measure(kernel, "s0", 1).space.points) == 300
    # 90,000 points in one atom
    assert path_measure(kernel, "s0", 2).space.n_atoms == 1
    with pytest.raises(CapacityExceeded, match="a product of 27000000 points"):
        path_measure(kernel, "s0", 3)


def test_path_measure_bounds_label_bytes(monkeypatch):
    monkeypatch.delenv("FINMEAS_ATOM_CAP", raising=False)
    kernel = _one_atom_chain(["s"])
    # the one path's label is its steps, each escaped once, joined by bars
    label = path_measure(kernel, "s", MAX_PATH_STEPS).space.points[0]
    assert label == "|".join(["t||s"] * MAX_PATH_STEPS)
    with pytest.raises(HorizonTooLarge, match="horizon 65 is past the limit of 64"):
        path_measure(kernel, "s", MAX_PATH_STEPS + 1)
    # a step label "t||" + m bytes, escaped, takes h (m + 4) - 1 bytes at
    # horizon h: 2^26 + 5 at horizon 5 for m + 4 = (2^26 + 1) / 5 + 1
    long_chain = _one_atom_chain(["s" * ((MAX_PRODUCT_LABEL_BYTES + 1) // 5 - 3)])
    with pytest.raises(CapacityExceeded, match="1 points and 67108869 label bytes"):
        path_measure(long_chain, long_chain.domain.points[0], 5)
    # the step limit comes before the product limits
    with pytest.raises(HorizonTooLarge):
        path_measure(_two_state_chain(), "a", MAX_PATH_STEPS + 1)


def test_path_measure_builds_sixteen_steps_of_two_states():
    # (|T|, |S|) = (1, 2): 2^16 paths at horizon 16, labels 16 steps long
    measure = path_measure(_two_state_chain(), "a", 16)
    assert len(measure.space.points) == 1 << 16
    assert measure.space.points[-1] == "|".join(["t||b"] * 16)
    assert measure.total() == 1
    # 2^20 points are within the limit, their 99-byte labels are not
    with pytest.raises(
        CapacityExceeded, match="a product of 1048576 points and 103809024 label bytes"
    ):
        path_measure(_two_state_chain(), "a", 20)


def test_path_measure_builds_one_product_space(monkeypatch):
    calls = []

    def counting(*factors):
        calls.append(len(factors))
        return product_space(*factors)

    monkeypatch.setattr(kernels_module, "product_space", counting)
    measure = path_measure(_two_state_chain(), "a", 5)
    assert calls == [5]
    assert measure.space.factors == (_two_state_chain().codomain,) * 5


def test_path_measure_refuses_a_huge_horizon_at_once(monkeypatch):
    monkeypatch.delenv("FINMEAS_ATOM_CAP", raising=False)
    kernel = _one_atom_chain(["s"])
    started = time.perf_counter()
    with pytest.raises(HorizonTooLarge):
        path_measure(kernel, "s", 10**9)
    assert time.perf_counter() - started < 1


def test_path_space_limits_are_inclusive(monkeypatch):
    """Paths obey the product limits, each taken at the limit and one past
    it (the same path space against the limit lowered by one)."""
    # 32 points in one atom: 2^20 paths at horizon 4
    points = _one_atom_chain([f"s{k}" for k in range(32)])
    # a step label "t||" + m bytes, escaped, takes 5 (m + 4) - 1 bytes at
    # horizon 5: 2^26 for m + 4 = (2^26 + 1) / 5
    labels = _one_atom_chain(["s" * ((MAX_PRODUCT_LABEL_BYTES + 1) // 5 - 4)])
    for kernel, horizon, limit, k in [
        (points, 4, "MAX_PRODUCT_POINTS", 0),
        (labels, 5, "MAX_PRODUCT_LABEL_BYTES", 1),
    ]:
        start = kernel.domain.points[0]
        space = path_measure(kernel, start, horizon).space
        size = product_size(*space.factors)
        assert size[k] == getattr(spaces, limit) and space.n_atoms == 1
        monkeypatch.setattr(spaces, limit, size[k] - 1)
        with pytest.raises(CapacityExceeded, match=f"a product of {size[0]} points"):
            path_measure(kernel, start, horizon)
        monkeypatch.undo()


def _listed(space):
    return "points" in vars(space)


def test_product_builders_leave_the_product_unlisted():
    """The six library functions that build a product work on row-major
    atom indices and never list its points or atoms."""
    mu = Measure(S, [Fraction(1, 3), Fraction(2, 3)])
    paths = path_measure(_two_state_chain(), "a", 5)
    joint = measure_kernel_product(mu, K)
    problem = CouplingProblem(mu, mu, [(0, 0), (1, 1)])
    results = [
        paths,
        path_marginal(paths),
        product_measure(mu, mu),
        joint,
        solve_coupling(problem),
    ]
    marginal, kernel, null_fibers = disintegrate(joint)
    assert (marginal, null_fibers) == (mu, ())
    # a product whose factor is an unlisted product is counted and built
    # from its factors; products of equal factors compare without listing
    nested = product_measure(paths, mu)
    size = product_size(*nested.space.factors)
    shorter = path_measure(_two_state_chain(), "a", 4)
    assert results[1] == shorter
    assert [_listed(m.space) for m in results + [nested, shorter]] == [False] * 7
    labels = nested.space.points
    assert size == (len(labels), sum(len(p.encode()) for p in labels))
    # a factor label that starts with a bar can collide: listed at once
    assert _listed(product_space(S, FiniteMeasurableSpace.discrete(["|x"])))


def test_sparse_path_measure_costs_its_nonzero_paths():
    """(|T|, |S|, h) = (2, 4, 5) with two nonzeros per kernel row: 32
    nonzero paths in a 32,768-point path space that is never listed."""
    states = FiniteMeasurableSpace.discrete("0123")
    step = product_space(FiniteMeasurableSpace.discrete("xy"), states)
    kernel = Kernel(states, step, [
        Measure.from_atom_weights(step, {2 * i: (1, 2), (2 * i + 3) % 8: (1, 2)})
        for i in range(4)
    ])
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        measure = path_measure(kernel, "0", 5)
        best = min(best, time.perf_counter() - started)
    assert len(measure.form[1]) == 32 and measure.space.n_atoms == 1 << 15
    assert best < 0.005


# labels with bars, doubled bars and a two-byte character; no label begins
# or ends with a bar, so product labels stay distinct
LABELS = st.text(alphabet="a|é", max_size=4).map(lambda body: "x" + body + "y")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(LABELS, min_size=1, max_size=2, unique=True),
    st.lists(LABELS, min_size=1, max_size=3, unique=True),
    st.integers(1, 5),
)
def test_path_space_size_matches_the_built_labels(t_points, s_points, horizon):
    t_space = FiniteMeasurableSpace.discrete(t_points)
    step = product_space(t_space, FiniteMeasurableSpace.discrete(s_points))
    escaped = [p.replace("|", "||") for p in step.points]
    nested = step
    for h in range(1, horizon + 1):
        space = product_space(*[step] * h)
        size = sum(len(p.encode()) for p in space.points)
        assert product_size(*[step] * h) == (len(space.points), size)
        if h > 1:
            # each path label is its steps, escaped once, joined by bars
            assert space.points[0] == "|".join([escaped[0]] * h)
            assert space.points[-1] == "|".join([escaped[-1]] * h)
            nested = product_space(nested, step)
        # the nested build of earlier versions: its labels are no shorter,
        # so every path space it accepted is still accepted
        assert size <= sum(len(p.encode()) for p in nested.points)


def test_path_projectivity_small():
    rng = random.Random(11)
    t_space = FiniteMeasurableSpace.discrete("t")
    step = product_space(t_space, S)
    for _ in range(20):
        M = rand_kernel(rng, S, step, kind=MARKOV)
        for horizon in (1, 2, 3):
            longer = path_measure(M, "a", horizon + 1)
            assert path_marginal(longer) == path_measure(M, "a", horizon)


def test_disintegrate_example():
    cd = FiniteMeasurableSpace.discrete("cd")
    prod = product_space(S, cd)
    joint = Measure(
        prod, [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), 0]
    )
    marginal, conditional, null_fibers = disintegrate(joint)
    assert marginal.weights == (Fraction(1, 2), Fraction(1, 2))
    assert conditional.rows[0].weights == (Fraction(1, 2), Fraction(1, 2))
    assert conditional.rows[1].weights == (1, 0)
    assert conditional.kind == MARKOV
    assert null_fibers == ()


def test_disintegrate_null_fiber_gives_submarkov():
    cd = FiniteMeasurableSpace.discrete("cd")
    prod = product_space(S, cd)
    joint = Measure(prod, [Fraction(1, 2), Fraction(1, 2), 0, 0])
    marginal, conditional, null_fibers = disintegrate(joint)
    assert null_fibers == (("b",),)
    assert conditional.kind == SUB_MARKOV
    assert conditional.rows[1].total() == 0


def test_disintegrate_reconstructs_joint():
    rng = random.Random(13)
    for _ in range(40):
        left = rand_space(rng, 4)
        right = rand_space(rng, 4)
        prod = product_space(left, right)
        joint = rand_probability(rng, prod)
        marginal, conditional, _ = disintegrate(joint)
        assert measure_kernel_product(marginal, conditional) == joint


def test_convolving_a_long_shift_chain_costs_its_nonzeros():
    """The 8,000-state dead-end shift chain composed with itself; summing
    each row into a dense accumulator took about 3 s."""
    space = FiniteMeasurableSpace.discrete([f"s{i}" for i in range(8000)])
    rows = [Measure.from_ints(space, 1, [i + 1], [1]) for i in range(7999)]
    chain = Kernel(space, space, rows + [Measure.zero(space)])
    started = time.perf_counter()
    square = convolve(chain, chain)
    assert time.perf_counter() - started < 1
    assert [row.form[1] for row in square.rows[7997:]] == [(7999,), (), ()]


_AB = spaces.FiniteMeasurableSpace.discrete("ab")
_XY = spaces.FiniteMeasurableSpace.discrete("xy")
_HALVES_AB = Measure(_AB, [Fraction(1, 2)] * 2)
_HALVES_XY = Measure(_XY, [Fraction(1, 2)] * 2)
_K_AB = Kernel(_AB, _AB, [_HALVES_AB] * 2)
_MAP = AtomMap(_AB, _XY, {"a": "x", "b": "y"})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Kernel(_AB, _AB, [_HALVES_AB]), ValueError, "expected 2 rows, got 1"),
        (lambda: Kernel(_AB, _AB, [_HALVES_AB, _HALVES_XY]), SpaceMismatch,
         "kernel row lives on the wrong codomain"),
        (lambda: Kernel(_AB, _AB, [_HALVES_AB] * 2, "stochastic"), ValueError,
         "unknown kernel kind 'stochastic'"),
        (lambda: kleisli_lift(_K_AB, _HALVES_XY), SpaceMismatch,
         "measure lives on a different space than the domain"),
        (lambda: measure_kernel_product(_HALVES_XY, _K_AB), SpaceMismatch,
         "measure lives on a different space than the domain"),
        (lambda: pushforward(_MAP, _HALVES_XY), SpaceMismatch,
         "measure lives on a different space than the map domain"),
        (lambda: AtomMap(_AB, _XY, {"a": "x"}), NotAtomMap,
         "map not defined at point 'b'"),
        (lambda: _MAP.compose_function(StepFunction(_AB, [1, 2])), SpaceMismatch,
         "function lives on a different space"),
        (lambda: pushforward({"a": "x", "b": "y"}, _HALVES_AB), TypeError,
         "wrap the point map in AtomMap(domain, codomain, mapping)"),
        # the fiber over a carries +1 and -1: its mass is 0, its weights are not
        (lambda: disintegrate(SignedMeasure(product_space(_AB, _XY), [1, -1, 1, 0])),
         ValueError, "joint has a zero-mass fiber with nonzero weights"),
    ],
    ids=[
        "row-count", "row-codomain", "unknown-kind", "lift-space", "product-space",
        "pushforward-space", "map-missing-point", "compose-space", "pushforward-dict",
        "cancelling-fiber",
    ],
)
def test_kernel_and_map_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
