import pytest
from hypothesis import given, settings, strategies as st

from mfhess.rootdata import (CartanMatrix, NonFiniteType, UnsupportedType,
                             build_root_system, cartan_matrix_for_label, dual_partition)

# Hand-enumerated positive root tables (coordinates over the simple roots).
KNOWN_ROOTS = {
    "A1": {(1,)},
    "A2": {(1, 0), (0, 1), (1, 1)},
    "A3": {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)},
    "B2": {(1, 0), (0, 1), (1, 1), (1, 2)},
    "C2": {(1, 0), (0, 1), (1, 1), (2, 1)},
    "A1xA1": {(1, 0), (0, 1)},
    "G2": {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)},
}

LABELS = ["A1", "A2", "A3", "B2", "C2", "A1xA1"]


def build(label):
    return build_root_system(CartanMatrix.from_rows(cartan_matrix_for_label(label)))


@pytest.mark.parametrize("label", list(KNOWN_ROOTS))
def test_positive_roots_match_hand_enumeration(label):
    rs = build(label)
    assert set(rs.positive_roots) == KNOWN_ROOTS[label]


def test_a1_counts():
    rs = build("A1")
    assert rs.num_positive == 1 and rs.rank + rs.num_positive == 2
    assert rs.degrees == (2,) and rs.layer_dims == (1, 1)


def test_a2_counts(helpers):
    rs = build("A2")
    assert rs.num_positive == 3
    assert sorted(rs.heights) == [1, 1, 2]
    assert rs.coxeter_number == 3
    d, m, r = helpers.degrees_and_layers(rs)
    assert d == (2, 3) and r == (2, 2, 1) and sum(d) == 5 == rs.rank + rs.num_positive
    assert m == (1, 2)


def test_b2_counts(helpers):
    rs = build("B2")
    assert rs.num_positive == 4
    assert sorted(rs.heights) == [1, 1, 2, 3]
    assert rs.coxeter_number == 4
    d, _, r = helpers.degrees_and_layers(rs)
    assert d == (2, 4) and sum(r) == 6 == rs.rank + rs.num_positive


@pytest.mark.parametrize("label", LABELS)
def test_degree_layer_duality(label):
    rs = build(label)
    b = rs.rank + rs.num_positive
    assert sum(rs.degrees) == b
    assert sum(rs.layer_dims) == b
    assert tuple(dual_partition(rs.degrees)) == rs.layer_dims
    assert tuple(sorted(dual_partition(rs.layer_dims))) == rs.degrees
    assert list(rs.layer_dims) == sorted(rs.layer_dims, reverse=True)
    assert list(rs.degrees) == sorted(rs.degrees)
    assert rs.layer_dims[0] == rs.rank
    assert rs.coxeter_number == max(rs.degrees) == 1 + max(rs.heights)
    assert rs.exponents == tuple(d - 1 for d in rs.degrees)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_dual_partition_involution(parts):
    parts = tuple(sorted(parts, reverse=True))
    assert tuple(sorted(dual_partition(dual_partition(parts)), reverse=True)) == parts
    assert sum(dual_partition(parts)) == sum(parts)


def test_affine_matrix_rejected():
    cm = CartanMatrix.from_rows([[2, -2], [-2, 2]])
    with pytest.raises(NonFiniteType):
        build_root_system(cm)


def test_invalid_matrices_rejected():
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[1]])
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[2, 1], [-1, 2]])
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[2, 0], [-1, 2]])
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[2, -1], [-1, 2], [0, 0]])
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([[2, -1.5], [-1, 2]])   # int() would truncate to A2
    with pytest.raises(ValueError):
        CartanMatrix.from_rows([])


def test_unknown_label():
    with pytest.raises(UnsupportedType):
        cartan_matrix_for_label("E8")


def test_product_label_block_diagonal():
    rows = cartan_matrix_for_label("A1xB2")
    assert rows == [[2, 0, 0], [0, 2, -1], [0, -2, 2]]
    rs = build_root_system(CartanMatrix.from_rows(rows))
    assert rs.num_positive == 5 and rs.degrees == (2, 2, 4)


def test_root_norms():
    rs = build("B2")
    norms = {r: rs.root_norm(r) for r in rs.positive_roots}
    assert norms[(0, 1)] == 2       # short simple root
    assert norms[(1, 0)] == 4       # long simple root
    assert norms[(1, 1)] == 2
    assert norms[(1, 2)] == 4


# every label and G2, and inline B3, C3, A4, D4, F4 and E6
ROOT_DATA_TYPES = LABELS + ["G2", "B3", "C3", "A4", "D4", "F4", "E6"]


@pytest.mark.parametrize("label", ROOT_DATA_TYPES)
def test_root_data_are_ints_and_match_the_fraction_reference(algebras, reference_roots, label):
    """The symmetrizer and every root norm are ints equal to their Fraction
    routes; a finite type has d_i in 1, 2, 3 with smallest 1."""
    rs = algebras(label).rs
    assert rs.symmetrizer == tuple(reference_roots.symmetrizer(rs.cartan.entries))
    assert {type(d) for d in rs.symmetrizer} == {int} and min(rs.symmetrizer) == 1
    assert set(rs.symmetrizer) <= {1, 2, 3}
    norms, want = [rs.root_norm(r) for r in rs.positive_roots], reference_roots.resolver(rs).norm
    assert norms == [want[r] for r in rs.positive_roots]
    assert {type(v) for v in norms} == {int}
