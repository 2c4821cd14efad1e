import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finmeas.errors import (
    CapacityExceeded,
    EmptyCarrier,
    GeneratorNotPiSystem,
    SpaceMismatch,
)
from finmeas import spaces
from finmeas.measures import Measure
from finmeas.spaces import (
    FiniteMeasurableSpace,
    MeasurableSet,
    Partition,
    check_pi_system_uniqueness,
    join_pair_label,
    product_size,
    product_space,
    sigma_from_generator,
)

from conftest import rand_generator_sets, sigma_closure_bruteforce
from oracles import generated_equivalence, pi_system_witness_scan, split_pair_label


def test_atom_order_follows_least_point():
    space = FiniteMeasurableSpace("abcd", [("c", "d"), ("b",), ("a",)])
    assert space.atoms == (("a",), ("b",), ("c", "d"))


def test_generator_example():
    space = sigma_from_generator("abc", [{"a", "b"}])
    assert space.atoms == (("a", "b"), ("c",))
    fine = sigma_from_generator("abc", [{"a"}, {"a", "b"}])
    assert fine.atoms == (("a",), ("b",), ("c",))


def test_empty_carrier_rejected():
    with pytest.raises(EmptyCarrier):
        FiniteMeasurableSpace.discrete(())
    with pytest.raises(EmptyCarrier):
        sigma_from_generator((), [])


def test_generator_set_must_be_subset():
    with pytest.raises(ValueError):
        sigma_from_generator("ab", [{"a", "z"}])


def test_measurable_set_rejects_split_atom():
    space = sigma_from_generator("abc", [{"a", "b"}])
    with pytest.raises(ValueError):
        MeasurableSet(space, ["a"])
    whole = MeasurableSet(space, ["a", "b"])
    assert whole.atom_indices == (0,)


def test_set_algebra():
    space = FiniteMeasurableSpace.discrete("abc")
    s = MeasurableSet(space, ["a", "b"])
    t = MeasurableSet(space, ["b", "c"])
    assert s.intersection(t).sorted_points() == ["b"]
    assert s.union(t).sorted_points() == ["a", "b", "c"]
    assert s.complement().sorted_points() == ["c"]
    assert "a" in s and "c" not in s


def test_measurable_sets_enumeration_and_cap():
    space = sigma_from_generator("abcd", [{"a", "b"}])
    assert space.atoms == (("a", "b"), ("c", "d"))
    sets = list(space.measurable_sets())
    assert len(sets) == 4
    assert sets[0].members == frozenset()
    big = FiniteMeasurableSpace.discrete([f"p{k:02d}" for k in range(17)])
    with pytest.raises(CapacityExceeded, match="17 atoms exceed"):
        next(big.measurable_sets())


def test_pair_label_escaping():
    # round trip holds for labels that do not begin or end with a bar,
    # which covers user labels and every nested product label
    for pair in (("a", "b"), ("a|b", "c"), ("t|a", "t|b"), ("x||y", "u|v")):
        assert split_pair_label(join_pair_label(*pair)) == pair
    nested = join_pair_label(join_pair_label("t", "a"), join_pair_label("t", "b"))
    assert split_pair_label(nested) == ("t|a", "t|b")
    with pytest.raises(ValueError):
        split_pair_label("no separator")


def test_product_space_row_major():
    left = sigma_from_generator("ab", [{"a"}])
    right = sigma_from_generator("cde", [{"c"}])
    prod = product_space(left, right)
    assert len(prod.atoms) == 4
    assert prod.factors == (left, right)
    # rectangle (left atom 1) x (right atom 0) is atom 1 * 2 + 0
    k = 1 * len(prod.factors[1].atoms) + 0
    assert k == 2
    assert prod.atoms[k] == (join_pair_label("b", "c"),)
    plain = FiniteMeasurableSpace(prod.points, prod.atoms)
    assert plain == prod
    assert plain.factors is None


def test_partition_refinement():
    space = sigma_from_generator("abcd", [{"a", "b"}])
    part = Partition(space, [("a", "b"), ("c", "d")])
    assert part.refines_atoms
    assert part.block_index_of_point("d") == 1
    assert part.block_atom_indices(1) == (1,)
    splitter = Partition(space, [("a", "c"), ("b", "d")])
    assert not splitter.refines_atoms


def test_partition_validates_blocks_like_atoms():
    space = sigma_from_generator("abcd", [{"a", "b"}])
    part = Partition(space, [("d", "c", "d"), ("b", "a")])
    assert part.blocks == (("a", "b"), ("c", "d"))
    for blocks in (
        [("a", "b"), ("c", "d"), ()],  # empty block
        [("a", "b"), ("b", "c", "d")],  # overlapping blocks
        [("a", "b"), ("c",)],  # d is not covered
        [("a", "b"), ("c", "d", "e")],  # e is not a point
    ):
        with pytest.raises(ValueError):
            Partition(space, blocks)


def test_generated_equivalence_blocks_are_atoms():
    part = generated_equivalence("abcd", [{"a", "b"}, {"b"}])
    assert part.blocks == (("a",), ("b",), ("c", "d"))


def test_generator_space_costs_its_input_not_points_times_sets():
    # 8,000 points, each its own generator set: one pass over the sets
    points = [f"p{k}" for k in range(8000)]
    started = time.perf_counter()
    space = sigma_from_generator(points, [{p} for p in points])
    assert time.perf_counter() - started < 0.5
    assert len(space.atoms) == 8000


def test_product_limits_are_inclusive(monkeypatch):
    x = FiniteMeasurableSpace.discrete(["a", "b|", "é"])
    points, size = product_size(x, x, x)
    assert points == 27
    monkeypatch.setattr(spaces, "MAX_PRODUCT_POINTS", points)
    monkeypatch.setattr(spaces, "MAX_PRODUCT_LABEL_BYTES", size)
    assert len(product_space(x, x, x).points) == points
    assert product_space(x) is x
    monkeypatch.setattr(spaces, "MAX_PRODUCT_LABEL_BYTES", size - 1)
    with pytest.raises(CapacityExceeded, match=f"27 points and {size} label bytes"):
        product_space(x, x, x)
    monkeypatch.setattr(spaces, "MAX_PRODUCT_LABEL_BYTES", size)
    monkeypatch.setattr(spaces, "MAX_PRODUCT_POINTS", points - 1)
    with pytest.raises(CapacityExceeded, match="past the limits 26 and"):
        product_space(x, x, x)


def test_pi_system_uniqueness_requires_closure():
    space = FiniteMeasurableSpace.discrete("abc")
    mu = Measure(space, [1, 1, 1])
    full = space.full_set()
    a_b = MeasurableSet(space, ["a", "b"])
    b_c = MeasurableSet(space, ["b", "c"])
    with pytest.raises(GeneratorNotPiSystem):
        check_pi_system_uniqueness(space, mu, mu, [a_b, b_c])
    with pytest.raises(GeneratorNotPiSystem):
        check_pi_system_uniqueness(space, mu, mu, [a_b])
    b = MeasurableSet(space, ["b"])
    ok, witness = check_pi_system_uniqueness(space, mu, mu, [full, a_b, b_c, b])
    assert ok and witness is None


def test_pi_system_uniqueness_witness_on_coarse_generator():
    space = FiniteMeasurableSpace.discrete("ab")
    mu = Measure(space, [1, 0])
    nu = Measure(space, [0, 1])
    ok, witness = check_pi_system_uniqueness(space, mu, nu, [space.full_set()])
    assert not ok
    assert witness.sorted_points() in (["a"], ["b"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pi_system_witness_matches_mask_scan(data):
    n = data.draw(st.integers(1, 8))
    points = [f"p{k}" for k in range(n)]
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    atoms = [
        tuple(p for p, b in zip(points, labels) if b == block)
        for block in sorted(set(labels))
    ]
    space = FiniteMeasurableSpace(points, atoms)
    weights = st.lists(
        st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1]),
        min_size=len(atoms), max_size=len(atoms),
    )
    mu = Measure(space, data.draw(weights))
    nu = Measure(space, data.draw(weights)) if data.draw(st.booleans()) else mu
    got = check_pi_system_uniqueness(space, mu, nu, [space.full_set()])
    assert got == pi_system_witness_scan(space, mu, nu)


def test_pi_system_uniqueness_past_the_atom_cap():
    space = FiniteMeasurableSpace.discrete([f"p{k:02d}" for k in range(40)])
    mu = Measure(space, [1] * 40)
    nu = Measure(space, [1] * 37 + [2, 1, 2])
    full = space.full_set()
    assert check_pi_system_uniqueness(space, mu, mu, [full]) == (True, None)
    ok, witness = check_pi_system_uniqueness(space, mu, nu, [full])
    assert not ok and witness.sorted_points() == ["p37"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_sigma_generation_matches_bruteforce(seed):
    rng = random.Random(seed)
    points = tuple(f"p{k}" for k in range(rng.randint(1, 5)))
    family = rand_generator_sets(rng, points)
    space = sigma_from_generator(points, family)
    closure = sigma_closure_bruteforce(points, family)
    assert {s.members for s in space.measurable_sets()} == closure


_AB = FiniteMeasurableSpace.discrete("ab")
_XY = FiniteMeasurableSpace.discrete("xy")
_HALVES = Measure(_AB, [Fraction(1, 2)] * 2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MeasurableSet(_AB, "a").union(MeasurableSet(_XY, "x")), SpaceMismatch,
         "sets live on different spaces"),
        (lambda: MeasurableSet(_AB, "a").intersection(MeasurableSet(_XY, "x")),
         SpaceMismatch, "sets live on different spaces"),
        (lambda: check_pi_system_uniqueness(
            _AB, _HALVES, _HALVES, [_AB.full_set(), MeasurableSet(_XY, "x")]),
         SpaceMismatch, "generator sets live on a different space"),
        (lambda: check_pi_system_uniqueness(
            _AB, _HALVES, Measure.dirac(_XY, "x"), [_AB.full_set()]),
         SpaceMismatch, "measures live on a different space"),
        (lambda: spaces.FiniteMetric.from_points("ab", [[0, 1]]), ValueError,
         "distance matrix must be 2x2"),
        (lambda: spaces.FiniteMetric.from_points("ab", [[0, 1], [1]]), ValueError,
         "distance matrix must be 2x2"),
    ],
    ids=["union", "intersection", "pi-generator", "pi-measure", "short-matrix",
         "short-row"],
)
def test_cross_space_and_shape_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
