"""The one-pass space constructor, the escape-once product space and the
generator grouping against the constructor, the label-by-label product and
the grouping they replaced (kept in ``oracles``)."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finmeas.spaces import (
    FiniteMeasurableSpace,
    _membership_groups,
    product_size,
    product_space,
)

from oracles import membership_groups_scan, product_space_reference, space_reference

# labels over an alphabet with the escape character, so points include
# "", "|", "||", "a|", "|b" and the like
LABELS = st.text(alphabet="ab|", max_size=4)
POOL = ["", "a", "b", "|", "||", "a|b", "|a", "b||"]


def fields(space):
    """What a space holds, its hash, and whether it equals, both ways, the
    space built from its points and atoms.  The atom count is read first:
    a product counts its atoms before it lists them."""
    n_atoms = space.n_atoms
    plain = FiniteMeasurableSpace(space.points, space.atoms)
    return (
        n_atoms,
        space.points,
        space.atoms,
        space.factors,
        space._index,
        space._atom_of,
        hash(space),
        space == plain,
        plain == space,
    )


def outcome(build, *args):
    """The fields of the space built, or the type and message of the error
    that building it raised: listing a built space must not raise."""
    try:
        space = build(*args)
    except Exception as err:
        return type(err), str(err)
    return fields(space)


@st.composite
def valid_spaces(draw, max_points=5, labels=LABELS):
    """Distinct labels dealt into atoms: singletons, multi-point atoms given
    in any order, with a point repeated inside its atom now and then, as
    tuples, lists or sets."""
    points = draw(st.lists(labels, min_size=1, max_size=max_points, unique=True))
    owners = draw(
        st.lists(st.integers(0, len(points) - 1), min_size=len(points), max_size=len(points))
    )
    atoms = {}
    for p, owner in zip(points, owners):
        atoms.setdefault(owner, []).append(p)
    atoms = [draw(st.permutations(a)) for a in atoms.values()]
    atoms = draw(st.permutations(atoms))
    if draw(st.booleans()):
        atoms = [a + a[:1] for a in atoms]
    wrap = draw(st.sampled_from([tuple, list, set]))
    return points, [wrap(a) for a in atoms]


@st.composite
def any_cases(draw, unknown=False):
    """Points that may repeat or be empty, and atoms that may overlap, miss
    points, be empty or (when unknown) name points outside the carrier."""
    points = draw(st.lists(st.sampled_from(POOL), max_size=5))
    names = POOL if unknown or not points else points
    atoms = draw(st.lists(st.lists(st.sampled_from(names), max_size=3), max_size=4))
    return points, atoms


@settings(max_examples=300, deadline=None)
@given(valid_spaces())
def test_one_pass_constructor_equals_reference(case):
    points, atoms = case
    assert fields(FiniteMeasurableSpace(points, atoms)) == fields(
        space_reference(points, atoms)
    )


@settings(max_examples=300, deadline=None)
@given(any_cases())
@example(([], []))
@example((["a", "b", "a"], [["a"], ["b"]]))
@example((["a", "b"], [["a", "b"], ["b"]]))
@example((["a", "b", "|"], [["a"], ["b"]]))
@example((["a", "b"], [["a"], [], ["b"]]))
def test_invalid_inputs_raise_as_before(case):
    points, atoms = case
    assert outcome(FiniteMeasurableSpace, points, atoms) == outcome(
        space_reference, points, atoms
    )


@settings(max_examples=300, deadline=None)
@given(any_cases(unknown=True))
@example((["a", "b"], [["a"], ["b", "||"]]))
def test_unknown_atom_point_is_a_value_error(case):
    """The earlier constructor raised KeyError from its sort key on the
    first atom naming a point outside the carrier; the one-pass constructor
    raises ValueError naming that atom's first such point.  Every other
    outcome is unchanged."""
    points, atoms = case
    expected = outcome(space_reference, points, atoms)
    result = outcome(FiniteMeasurableSpace, points, atoms)
    if expected[0] is not KeyError:
        assert result == expected
        return
    bad_atom = next(a for a in atoms if any(p not in points for p in a))
    first_unknown = next(p for p in bad_atom if p not in points)
    assert result == (ValueError, f"atom point {first_unknown!r} is not in points")


@settings(max_examples=300, deadline=None)
@given(valid_spaces(max_points=4), valid_spaces(max_points=4), valid_spaces(max_points=3))
def test_product_labels_equal_reference(a, b, c):
    """Flat and nested products, in both associations: the same labels,
    atoms and factors as the label-by-label product.  Labels that start or
    end with '|' can collide (join_pair_label("", "|") and
    join_pair_label("|", "") are both "|||"); both then refuse the product
    with the same error."""
    x = FiniteMeasurableSpace(*a)
    y = FiniteMeasurableSpace(*b)
    z = FiniteMeasurableSpace(*c)
    for new, old in [
        (lambda: product_space(x, y), lambda: product_space_reference(x, y)),
        (
            lambda: product_space(product_space(x, y), z),
            lambda: product_space_reference(product_space_reference(x, y), z),
        ),
        (
            lambda: product_space(x, product_space(y, z)),
            lambda: product_space_reference(x, product_space_reference(y, z)),
        ),
    ]:
        assert outcome(new) == outcome(old)


# labels over 'a', '|' and a two-byte character, with and without the
# bars at either end that let two-factor labels collide
WIDE_LABELS = st.text(alphabet="a|é", max_size=4)
# none empty and none beginning or ending with a bar: flat and nested
# product labels stay distinct
SPLIT_LABELS = st.text(alphabet="a|é", min_size=1, max_size=3).filter(
    lambda label: not label.startswith("|") and not label.endswith("|")
)


@settings(max_examples=300, deadline=None)
@given(
    valid_spaces(max_points=4, labels=WIDE_LABELS),
    valid_spaces(max_points=4, labels=WIDE_LABELS),
)
def test_two_factor_labels_are_unchanged(a, b):
    x = FiniteMeasurableSpace(*a)
    y = FiniteMeasurableSpace(*b)
    assert outcome(product_space, x, y) == outcome(product_space_reference, x, y)


@settings(max_examples=300, deadline=None)
@given(
    valid_spaces(max_points=3, labels=SPLIT_LABELS),
    valid_spaces(max_points=3, labels=SPLIT_LABELS),
    valid_spaces(max_points=3, labels=SPLIT_LABELS),
)
def test_flat_product_has_the_nested_atoms_in_order(a, b, c):
    """A three-factor product labels each point by its three components,
    each escaped once, and has the rectangles of the nested product as its
    atoms, in the same order."""
    x, y, z = (FiniteMeasurableSpace(*case) for case in (a, b, c))
    flat = product_space(x, y, z)
    nested = product_space(product_space(x, y), z)
    assert flat.factors == (x, y, z)
    assert product_space(x) is x
    assert flat.points == tuple(
        "|".join(part.replace("|", "||") for part in (p, q, r))
        for p in x.points
        for q in y.points
        for r in z.points
    )
    rename = dict(zip(flat.points, nested.points))
    assert [tuple(map(rename.get, atom)) for atom in flat.atoms] == list(nested.atoms)


@settings(max_examples=300, deadline=None)
@given(st.lists(valid_spaces(max_points=4, labels=WIDE_LABELS), min_size=1, max_size=3))
def test_product_size_counts_the_built_labels(cases):
    """Points and label bytes in closed form, for one to three factors with
    empty labels, bars and a two-byte character.  A product whose labels
    collide (join_pair_label("", "|") == join_pair_label("|", "")) is
    refused, so it has no labels to count."""
    factors = [FiniteMeasurableSpace(*case) for case in cases]
    try:
        space = product_space(*factors)
    except ValueError as err:
        assume(str(err) != "points must be distinct")
        raise
    size = sum(len(p.encode()) for p in space.points)
    assert product_size(*factors) == (len(space.points), size)
    # a factor that is itself a product is counted from its own factors
    try:
        nested = product_space(product_space(*factors), factors[0])
    except ValueError as err:
        assert str(err) == "points must be distinct"
    else:
        counted = product_size(nested.factors[0], factors[0])
        size = sum(len(p.encode()) for p in nested.points)
        assert counted == (len(nested.points), size)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(POOL), min_size=1, max_size=6, unique=True).flatmap(
        lambda points: st.tuples(
            st.permutations(points),
            st.lists(st.frozensets(st.sampled_from(points)), max_size=5),
        )
    )
)
def test_generator_grouping_equals_the_membership_vectors(case):
    """Grouping by the indices of the sets that hold a point gives the
    groups of the membership vectors, in the same order."""
    points, family = case
    assert _membership_groups(points, family) == membership_groups_scan(points, family)
