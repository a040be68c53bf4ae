import pytest

from mfhess import linalg
from mfhess.argshift import gradient_span
from mfhess.liealgebra import DimensionMismatch, is_regular, ut_action, validate_algebra
from mfhess.rational import rat, factorial_rat
from mfhess.rootdata import FLAGGED_LABELS, SUPPORTED_LABELS

EXPECTED_DIMS = {"A1": 3, "A2": 8, "A1xA1": 6, "B2": 10, "A3": 15}
EXPECTED_MODULES = {"A1": [3], "A2": [3, 5], "A1xA1": [3, 3], "B2": [3, 7],
                    "A3": [3, 5, 7]}


@pytest.mark.parametrize("label", list(EXPECTED_DIMS))
def test_dimension(bundles, label):
    B = bundles(label)
    assert B.L.dim == EXPECTED_DIMS[label]
    assert B.L.dim == B.L.rank + 2 * B.L.n


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_exhaustive_identities(bundles, label):
    assert validate_algebra(bundles(label).L) == []


def test_killing_values_sl2(bundles):
    L = bundles("A1").L
    e, h, f = L.basis_vector(0), L.basis_vector(1), L.basis_vector(2)
    assert L.killing_pair(e, f) == rat(4)
    assert L.killing_pair(h, h) == rat(8)
    assert L.killing_pair(e, e) == 0 and L.killing_pair(e, h) == 0
    assert linalg.rank(L.killing) == 3


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_killing_pairs_opposite_roots(bundles, label):
    L = bundles(label).L
    for i in range(L.n):
        for j in range(L.dim):
            val = L.killing[L.pos_indices[i]][j]
            if j == L.neg_indices[i]:
                assert val != 0
            else:
                assert val == 0


def test_bracket_antisymmetry_and_dimension_check(bundles):
    L = bundles("A2").L
    x = L.basis_vector(0)
    assert not any(L.bracket(x, x))
    with pytest.raises(DimensionMismatch):
        L.bracket(x, [rat(1)] * 3)


@pytest.mark.parametrize("label", list(EXPECTED_DIMS))
def test_principal_triple_relations(bundles, label):
    B = bundles(label)
    L, tri = B.L, B.triple
    assert L.bracket(tri.w, tri.f) == linalg.vec_scale(tri.f, rat(-2))
    assert L.bracket(tri.w, tri.e) == linalg.vec_scale(tri.e, rat(2))
    assert L.bracket(tri.e, tri.f) == tri.w
    assert L.killing_pair(tri.e1, tri.f) == rat(1)
    # every simple root takes value 2 on w
    from mfhess.argshift import root_values
    vals = root_values(L, tri.w)
    for r, v in zip(B.rs.positive_roots, vals):
        if sum(r) == 1:
            assert v == rat(2)


@pytest.mark.parametrize("label", list(EXPECTED_MODULES))
def test_principal_decomposition_shapes(bundles, label):
    B = bundles(label)
    dec = B.decomp
    assert [len(m) for m in dec.modules] == EXPECTED_MODULES[label]
    assert sorted(2 * m + 1 for m in dec.exponents) == sorted(EXPECTED_MODULES[label])
    assert sorted(dec.exponents) == list(B.rs.exponents)
    # Cartan representatives live in the Cartan subalgebra
    for z in dec.cartan_reps:
        assert B.L.supported_in(z, B.L.cartan_indices)
    # chains form a basis of the lower Borel
    flat = [v for ch in dec.chains for v in ch]
    assert linalg.rank(flat) == B.rs.b
    bminus = [B.L.basis_vector(i) for i in B.L.bminus_indices]
    assert linalg.same_span(flat, bminus)


def test_regularity(bundles):
    B = bundles("A2")
    L, tri = B.L, B.triple
    assert not is_regular(L, L.zero())
    assert is_regular(L, tri.w)
    assert is_regular(L, tri.e1)
    # a simple root vector is not regular in rank >= 2
    assert not is_regular(L, L.basis_vector(L.pos_indices[0]))
    assert L.centralizer_dim(tri.w) == L.rank


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_lowering_expansion_interpolated(bundles, label):
    """Coefficients of t in the lowering flow match the chains over factorials."""
    B = bundles(label)
    L, tri, dec = B.L, B.triple, B.decomp
    h = B.rs.coxeter_number
    nodes = list(range(h + 1))
    for j, chain in enumerate(dec.chains):
        m = dec.exponents[j]
        z = dec.cartan_reps[j]
        values = [ut_action(L, tri, t, z) for t in nodes]
        coeffs = linalg.vandermonde_solve(nodes, values)
        for k in range(h + 1):
            if k <= m:
                want = [c / factorial_rat(k) for c in chain[k]]
            else:
                want = [rat(0)] * L.dim
            assert coeffs[k] == want


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_lowering_orbit_spans_module_slice(bundles, label):
    """d_j distinct flow times span the lower half of the j-th module."""
    B = bundles(label)
    L, tri, dec = B.L, B.triple, B.decomp
    for j, chain in enumerate(dec.chains):
        m = dec.exponents[j]
        ts = list(range(m + 1))
        vecs = [ut_action(L, tri, t, dec.cartan_reps[j]) for t in ts]
        assert linalg.rank(vecs) == m + 1
        assert linalg.same_span(vecs, chain)


def line_points(B, ts):
    """The points w + t f of the line through w in the f direction."""
    return [linalg.vec_add(B.triple.w, linalg.vec_scale(B.triple.f, rat(t))) for t in ts]


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_vandermonde_span_full_and_single(bundles, label):
    B = bundles(label)
    L = B.L
    h = B.rs.coxeter_number
    dim_full, basis = gradient_span(B.ctx, B.inv.polys, line_points(B, range(h)))
    assert dim_full == B.rs.b
    bminus = [L.basis_vector(i) for i in L.bminus_indices]
    assert linalg.same_span(basis, bminus)
    # a single point of the line only yields the Cartan of that point
    dim_one, basis_one = gradient_span(B.ctx, B.inv.polys, line_points(B, [0]))
    assert dim_one == L.rank
    cartan = [L.basis_vector(i) for i in L.cartan_indices]
    assert linalg.same_span(basis_one, cartan)


def test_vandermonde_span_a1_two_points(bundles):
    B = bundles("A1")
    dim, _ = gradient_span(B.ctx, B.inv.polys, line_points(B, [0, 1]))
    assert dim == 2 == B.rs.b


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4"))
def test_killing_matrix_equals_dense_trace(algebras, reference_killing, label):
    L = algebras(label)
    assert L.killing == reference_killing(L)
