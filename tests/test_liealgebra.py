import hashlib
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mfhess import linalg, liealgebra
from mfhess.argshift import gradient_span
from mfhess.liealgebra import (ConstructionFailure, DimensionMismatch, LieAlgebra,
                               SingularSystem, cartan_from_root_values, chevalley_algebra,
                               exp_ad_nilpotent, is_regular, principal_decomposition,
                               principal_triple, signature_hash, validate_algebra)
from mfhess.rational import canonical, clear, cleared, combine, over, rat
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


def test_killing_values_sl2(bundles, helpers):
    L = bundles("A1").L
    e, h, f = L.basis_vector(0), L.basis_vector(1), L.basis_vector(2)
    assert helpers.killing_pair(L, e, f) == rat(4)
    assert helpers.killing_pair(L, h, h) == rat(8)
    assert helpers.killing_pair(L, e, e) == 0 and helpers.killing_pair(L, e, h) == 0
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
    x = (L.basis_vector(0), 1)
    assert not any(L.int_bracket(x, x)[0])
    with pytest.raises(DimensionMismatch):
        L.int_bracket(x, ([1] * 3, 1))


@pytest.mark.parametrize("label", list(EXPECTED_DIMS))
def test_principal_triple_relations(bundles, label):
    """w, e, f and e1 are canonical points of ints, and the S-triple
    relations hold on the integer cores."""
    B = bundles(label)
    L, tri = B.L, B.triple
    for nums, den in (tri.w, tri.e, tri.f, tri.e1):
        assert canonical(nums, den) == (nums, den) and type(nums) is tuple
        assert all(type(c) is int for c in nums) and type(den) is int
    (fn, fd), (en, ed) = tri.f, tri.e
    assert canonical(*L.int_bracket(tri.w, tri.f)) == canonical([-2 * c for c in fn], fd)
    assert canonical(*L.int_bracket(tri.w, tri.e)) == canonical([2 * c for c in en], ed)
    assert canonical(*L.int_bracket(tri.e, tri.f)) == tri.w
    num, den = L.int_killing_pair(tri.e1, tri.f)
    assert num == den
    # every simple root takes value 2 on w
    from mfhess.argshift import root_values
    vals = root_values(L, tri.w[0])
    for r, v in zip(B.rs.positive_roots, vals):
        if sum(r) == 1:
            assert v == 2 * tri.w[1]


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "D4"])
def test_principal_w_is_the_cartan_element_with_root_values_two(algebras, monkeypatch,
                                                                 label):
    """principal_triple takes w from cartan_from_root_values, which turns a
    failed solve into SingularSystem."""
    L = algebras(label)
    assert principal_triple(L).w == cartan_from_root_values(L, [2] * L.rank)

    def singular(*args):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(linalg, "solve", singular)
    with pytest.raises(SingularSystem, match="singular"):
        cartan_from_root_values(L, [1] * L.rank)
    with pytest.raises(SingularSystem):
        principal_triple(L)


@pytest.mark.parametrize("label", list(EXPECTED_MODULES))
def test_principal_decomposition_shapes(bundles, label):
    B = bundles(label)
    dec = B.decomp
    assert [len(m) for m in dec.modules] == EXPECTED_MODULES[label]
    assert sorted(2 * m + 1 for m in dec.exponents) == sorted(EXPECTED_MODULES[label])
    assert sorted(dec.exponents) == list(B.rs.exponents)
    # Cartan representatives live in the Cartan subalgebra
    for chain in dec.chains:
        assert B.L.supported_in(chain[0][0], B.L.cartan_indices)
    # chains form a basis of the lower Borel
    flat = [v for ch in dec.chains for v, _ in ch]
    assert linalg.rank(flat) == B.rs.rank + B.rs.num_positive
    bminus = [B.L.basis_vector(i) for i in B.L.bminus_indices]
    assert linalg.same_span(flat, bminus)


def test_regularity(bundles):
    B = bundles("A2")
    L, tri = B.L, B.triple
    assert not is_regular(L, cleared(L.zero()))
    assert is_regular(L, tri.w)
    assert is_regular(L, tri.e1)
    # a simple root vector is not regular in rank >= 2
    assert not is_regular(L, cleared(L.basis_vector(L.pos_indices[0])))
    assert L.centralizer_dim(tri.w) == L.rank


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_lowering_expansion_interpolated(bundles, helpers, label):
    """Coefficients of t in the lowering flow match the chains over factorials."""
    B = bundles(label)
    L, tri, dec = B.L, B.triple, B.decomp
    h = B.rs.coxeter_number
    nodes = list(range(h + 1))
    for j, chain in enumerate(dec.chains):
        m = dec.exponents[j]
        z = over(*chain[0])
        values = [helpers.ut_action(L, tri, t, z) for t in nodes]
        rows, den = linalg.inverse([[t ** k for k in range(len(nodes))] for t in nodes])
        coeffs = helpers.mat_mul([over(row, den) for row in rows], values)
        for k in range(h + 1):
            if k <= m:
                want = [c / helpers.factorial_rat(k) for c in over(*chain[k])]
            else:
                want = [rat(0)] * L.dim
            assert coeffs[k] == want


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_lowering_orbit_spans_module_slice(bundles, helpers, label):
    """d_j distinct flow times span the lower half of the j-th module."""
    B = bundles(label)
    L, tri, dec = B.L, B.triple, B.decomp
    for j, chain in enumerate(dec.chains):
        m = dec.exponents[j]
        ts = list(range(m + 1))
        vecs = [clear(helpers.ut_action(L, tri, t, over(*chain[0])))[0] for t in ts]
        assert linalg.rank(vecs) == m + 1
        assert linalg.same_span(vecs, [v for v, _ in chain])


def line_points(B, ts):
    """The cleared points w + t f of the line through w in the f direction."""
    return [combine(B.triple.w, B.triple.f, t) for t in ts]


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_vandermonde_span_full_and_single(bundles, label):
    B = bundles(label)
    L = B.L
    h = B.rs.coxeter_number
    dim_full, rows = gradient_span(B.ctx, B.inv.compiled, line_points(B, range(h)))
    assert dim_full == B.rs.rank + B.rs.num_positive
    bminus = [L.basis_vector(i) for i in L.bminus_indices]
    assert linalg.same_span(rows, bminus)
    # a single point of the line only yields the Cartan of that point
    dim_one, rows_one = gradient_span(B.ctx, B.inv.compiled, line_points(B, [0]))
    assert dim_one == L.rank
    cartan = [L.basis_vector(i) for i in L.cartan_indices]
    assert linalg.same_span(rows_one, cartan)


def test_vandermonde_span_a1_two_points(bundles):
    B = bundles("A1")
    dim, _ = gradient_span(B.ctx, B.inv.compiled, line_points(B, [0, 1]))
    assert dim == 2 == B.rs.rank + B.rs.num_positive


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4"))
def test_killing_matrix_equals_dense_trace(algebras, reference_killing, label):
    L = algebras(label)
    assert L.killing == reference_killing(L)


def _special_vectors(L):
    tri = principal_triple(L)
    return ([L.zero()] + [L.basis_vector(i) for i in range(L.dim)]
            + [over(*v) for v in (tri.e, tri.f, tri.e1)])


@st.composite
def _lie_vectors(draw, L, specials):
    """A basis vector, zero, e, f or e1, or a vector mixing zeros, ints and
    fractions with denominators up to 10^6."""
    if draw(st.booleans()):
        return draw(st.sampled_from(specials))
    entry = st.one_of(st.just(rat(0)), st.integers(-4, 4),
                      st.fractions(min_value=-50, max_value=50, max_denominator=10**6))
    return draw(st.lists(entry, min_size=L.dim, max_size=L.dim))


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_integer_lie_layer_matches_fraction_reference(algebras, reference_lie, label):
    """The integer cores on rational vectors cleared once, divided back,
    equal the Fraction reference that reads L.table and L.killing, as
    Fractions; a vector of ints, as basis_vector and zero give, is taken by
    rational.clear as it is."""
    L = algebras(label)
    specials = _special_vectors(L)
    exact = type(rat(0))
    assert all(clear(v)[0] is v for v in specials[:L.dim + 1])

    @settings(max_examples=60, deadline=None)
    @given(x=_lie_vectors(L, specials), y=_lie_vectors(L, specials))
    def check(x, y):
        br = over(*L.int_bracket(clear(x), clear(y)))
        assert br == reference_lie.bracket(L, x, y)
        rows, den = L.int_ad(clear(x))
        adx = [over(row, den) for row in rows]
        assert adx == reference_lie.ad(L, x)
        kp = rat(*L.int_killing_pair(clear(x), clear(y)))
        assert kp == reference_lie.killing_pair(L, x, y)
        assert all(type(c) is exact for c in br + [c for row in adx for c in row] + [kp])

    check()


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_integer_cores_match_fraction_reference(algebras, reference_lie, label):
    """int_bracket, int_ad and int_killing_pair on cleared vectors, divided
    back, equal the Fraction reference, over positive denominators; a cleared
    input that is not reduced (numerators and denominator times k) gives the
    same rationals."""
    L = algebras(label)
    specials = _special_vectors(L)

    @settings(max_examples=60, deadline=None)
    @given(x=_lie_vectors(L, specials), y=_lie_vectors(L, specials),
           k=st.integers(1, 10 ** 6))
    def check(x, y, k):
        xc, yc = clear(x), clear(y)
        for a in (xc, ([k * v for v in xc[0]], k * xc[1])):
            nums, den = L.int_bracket(a, yc)
            assert den > 0 and over(nums, den) == reference_lie.bracket(L, x, y)
            rows, den = L.int_ad(a)
            assert den > 0 and [over(r, den) for r in rows] == reference_lie.ad(L, x)
            num, den = L.int_killing_pair(a, yc)
            assert den > 0 and rat(num, den) == reference_lie.killing_pair(L, x, y)

    check()


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "B3"])
def test_exp_ad_nilpotent_matches_fraction_series(algebras, reference_lie, label):
    """The integer series equals the Fraction series for z in the lower and
    in the upper nilradical, as canonical points of ints; a zero z returns
    v, and a z that is not ad-nilpotent raises."""
    L = algebras(label)
    rng = random.Random(f"exp:{label}")
    for block in (L.nminus_indices, L.n_indices):
        for _ in range(4):
            z = L.zero()
            for i in block:
                z[i] = rat(rng.randint(-3, 3), rng.randint(1, 2))
            v = [rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(L.dim)]
            got = exp_ad_nilpotent(L, cleared(z), cleared(v))
            assert got == cleared(reference_lie.exp(L, z, v))
            assert all(type(c) is int for c in got[0]) and type(got[1]) is int
    v = [rat(k + 1, 2) for k in range(L.dim)]
    assert exp_ad_nilpotent(L, cleared(L.zero()), cleared(v)) == cleared(v)
    h = L.basis_vector(L.cartan_indices[0])
    # a root vector on which h acts by a nonzero scalar: the series never ends
    e = next(L.basis_vector(i) for i in L.pos_indices
             if any(L.int_bracket((h, 1), (L.basis_vector(i), 1))[0]))
    with pytest.raises(ValueError, match="did not terminate"):
        exp_ad_nilpotent(L, cleared(h), cleared(e))
    with pytest.raises(ValueError, match="did not terminate"):
        reference_lie.exp(L, h, e)


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4"))
def test_validate_algebra_matches_reference(algebras, reference_lie, label):
    L = algebras(label)
    assert validate_algebra(L) == reference_lie.validate(L) == []


def _planted(L, kind):
    """L with one entry changed through dataclasses.replace: in the table a
    positive pair's sign flipped, a Cartan-root entry dropped or [e_a, e_-a]
    doubled or negated; in the Killing form a Cartan diagonal entry doubled, or the
    entry (e_a, e_-a) of e_a's row doubled."""
    table, killing = dict(L.table), [list(row) for row in L.killing]
    if kind == "flipped":
        key = min(k for k in table if k[0] in L.pos_indices and k[1] in L.pos_indices)
        table[key] = {c: -v for c, v in table[key].items()}
    elif kind == "dropped":
        del table[min(k for k in table if k[0] in L.cartan_indices)]
    elif kind in ("doubled", "negated"):
        key = (L.pos_indices[0], L.neg_indices[0])
        table[key] = {c: (2 if kind == "doubled" else -1) * v for c, v in table[key].items()}
    else:
        i, j = ((L.cartan_indices[0],) * 2 if kind == "killing_diagonal"
                else (L.pos_indices[0], L.neg_indices[0]))
        killing[i][j] *= 2
    return replace(L, table=table, killing=killing)


@pytest.mark.parametrize("kind", ["flipped", "dropped", "doubled", "killing_diagonal",
                                  "killing_root_pair"])
@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_validate_algebra_matches_reference_on_planted_tables(algebras, reference_lie,
                                                              label, kind):
    bad = _planted(algebras(label), kind)
    got = validate_algebra(bad)
    assert got and got == reference_lie.validate(bad)


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4"))
def test_signature_hash_is_computed_once_per_algebra(algebras, reference_lie, monkeypatch,
                                                     label):
    """signature_hash gives the hash it gave when computed on every call,
    and hashes once per algebra; a copy with a changed table hashes anew."""
    L = algebras(label)
    want = reference_lie.signature(L)
    key = min(L.table)
    table = dict(L.table)
    table[key] = {c: 2 * v for c, v in table[key].items()}
    planted = replace(L, table=table)
    want_planted = reference_lie.signature(planted)
    fresh = replace(L)
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda blob: calls.append(blob) or sha256(blob))
    assert [signature_hash(fresh) for _ in range(3)] == [want] * 3
    assert len(calls) == 1
    assert signature_hash(planted) == want_planted != want
    assert len(calls) == 2


ALL_TYPES = SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4")
# signature_hash of each type, as the Fraction resolver gave it
SIGNATURES = {"A1": "43a1dd1ec2245b20", "A2": "54ab8b434ea5cc65", "A3": "3b87ee32dc206b44",
              "B2": "f62a571e95ddaaf7", "C2": "c2e0a393dc1e33b3", "A1xA1": "22b131cff1f8aaae",
              "G2": "d0cbcac002d115ec", "B3": "5aac79134ba624ba", "C3": "d4512941370d00b7",
              "A4": "be9f8ccb73feb44d", "D4": "b894036444703c49", "F4": "ce231aa70ab76c71",
              "E6": "7a311df38c1fea9c"}


@pytest.mark.parametrize("label", ALL_TYPES + ("F4", "E6"))
def test_structure_constants_match_the_fraction_route(algebras, reference_roots,
                                                      reference_lie, reference_killing, label):
    """L.table equals the table of the Fraction resolver and Fraction coroots,
    and signature_hash the hash of that table, recorded in SIGNATURES; up
    to rank 4 the Killing matrix equals the Fraction trace form too."""
    L = algebras(label)
    table = reference_roots.table(L)
    assert L.table == table
    assert signature_hash(L) == SIGNATURES[label] == \
        reference_lie.signature(SimpleNamespace(rs=L.rs, table=table))
    if L.rank <= 4 and label != "F4":
        assert L.killing == reference_killing(L)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_principal_triple_and_decomposition_match_fraction_reference(algebras,
                                                                     reference_principal,
                                                                     label):
    """principal_triple, cartan_from_root_values and principal_decomposition
    on integers equal cleared(...) of their Fraction references, every
    module and chain vector included."""
    L = algebras(label)
    tri = principal_triple(L)
    ref = reference_principal.triple(L)
    assert (tri.w, tri.e, tri.f, tri.e1) == tuple(map(cleared, (ref.w, ref.e, ref.f, ref.e1)))
    for values in ([2] * L.rank, list(range(1, L.rank + 1)), [0] + [1] * (L.rank - 1)):
        assert (cartan_from_root_values(L, values)
                == cleared(reference_principal.cartan(L, values)))
    dec = principal_decomposition(L, tri)
    want = reference_principal.decomposition(L, ref)
    assert dec.exponents == want.exponents
    assert dec.modules == [[cleared(v) for v in mod] for mod in want.modules]
    assert dec.chains == [[cleared(v) for v in ch] for ch in want.chains]


@pytest.mark.parametrize("label", ALL_TYPES)
def test_chevalley_algebra_stores_ints_and_builds_each_table_once(algebras, monkeypatch,
                                                                  label):
    """The structure constants and the Killing entries are ints, __post_init__
    runs once per build and builds the Killing matrix then, and the tables
    built once equal those that __post_init__ rebuilds through
    dataclasses.replace, which keeps the Killing matrix it is given."""
    rs = algebras(label).rs
    calls, traces = [], []
    original, killing_matrix = LieAlgebra.__post_init__, liealgebra._killing_matrix
    monkeypatch.setattr(LieAlgebra, "__post_init__",
                        lambda self: calls.append(self) or original(self))
    monkeypatch.setattr(liealgebra, "_killing_matrix",
                        lambda L: traces.append(L) or killing_matrix(L))
    L = chevalley_algebra(rs)
    assert len(calls) == 1 and calls[0] is L and traces == [L]
    assert {type(v) for row in L.table.values() for v in row.values()} == {int}
    assert {type(c) for row in L.killing for c in row} == {int}
    rebuilt = replace(L)
    assert len(calls) == 2 and traces == [L]
    assert (rebuilt.int_table, rebuilt.int_killing) == (L.int_table, L.int_killing)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_integer_tables_match_reference(algebras, reference_int_tables, label):
    """int_table[a][b] lists [e_a, e_b] for every pair with a nonzero bracket
    and int_killing[i] the nonzero entries of Killing row i, as ints over no
    scale."""
    L = algebras(label)
    table, killing = reference_int_tables(L)
    assert {(a, b): dict(row) for a, col in enumerate(L.int_table)
            for b, row in col.items()} == table
    assert [dict(row) for row in L.int_killing] == killing
    assert {type(v) for col in L.int_table for row in col.values() for _, v in row} == {int}
    assert {type(c) for row in L.int_killing for _, c in row} == {int}


@pytest.mark.parametrize("label", ALL_TYPES)
def test_non_integer_entries_are_refused(algebras, label):
    """A Fraction, even a whole one, a float or a bool planted through
    dataclasses.replace in the table or in the Killing matrix raises
    ConstructionFailure naming which one; the integer defects of _planted
    build and still fail check 2."""
    L = algebras(label)
    key = min(L.table)
    i = L.cartan_indices[0]
    for plant in (rat, lambda v: rat(v, 10007), float, bool):
        table = dict(L.table)
        table[key] = {c: plant(v) for c, v in table[key].items()}
        with pytest.raises(ConstructionFailure, match="^table"):
            replace(L, table=table)
        killing = [list(row) for row in L.killing]
        killing[i][i] = plant(killing[i][i])
        with pytest.raises(ConstructionFailure, match="^killing"):
            replace(L, killing=killing)
    kinds = ["dropped", "doubled", "killing_diagonal", "killing_root_pair"]
    if any(a in L.pos_indices and b in L.pos_indices for a, b in L.table):
        kinds.append("flipped")     # A1 and A1xA1 bracket no two positive roots
    for kind in kinds:
        assert validate_algebra(_planted(L, kind)), kind
