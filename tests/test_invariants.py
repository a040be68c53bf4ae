import hashlib
import io
import json
import math
import random
from dataclasses import replace

import pytest

from mfhess import invariants, linalg, polyring
from mfhess.invariants import (InvariantFamily, WrongDimension, decomposable_products,
                               invariant_generators, invariant_space_dimension, load_family,
                               matrix_images_type_A, meets_solver_conditions, save_family,
                               trace_oracle_type_A, zero_weight_exponents,
                               _zero_weight_monomials, _degree_combinations)
from mfhess.liealgebra import is_regular
from mfhess.polyring import GradientContext, Poly, coefficient_rows, gradient, poisson_bracket
from mfhess.rational import clear, cleared, over, rat
from mfhess.rootdata import FLAGGED_LABELS, SUPPORTED_LABELS, UnsupportedType

# sha256 of the compact JSON of Poly.to_payload() of each solved generator:
# the generators fix the family and every report byte, so a change to the
# solver must reproduce them exactly
INVARIANT_DIGESTS = {
    "B3": ["9d5572ddbcfcf9ee9b6c5f25b2b9c8d1973d06afb276f29fbdccd3315cdadbbb",
           "4833440501e60e9b4e403c25dc59025d8bc4cdf98289dda85727415063506ba9",
           "ed3973fef55b0ae0561cce1b3604e0c2adb94c2b97d2c9abd954d9e6134eeeea"],
    "C3": ["66e036c50b7d6542e06cc8841bd7d83d8acebc8dece74f34cb66c9408e04c1dd",
           "8473816ba6a70b7d5a7fe21eac07e5ed8d34292f87de9fdff7dfaff35b858148",
           "47a375c9068176249d538d2a737db7ca100b7ee0beda9c903616d3b36160b3d7"],
    "A4": ["2865be99d620a405a5a321d21fc019b17204a6c6b8cfcd55e92d93ec7c03dc3c",
           "fe8ec1a1561a566086c135c2db96aeb878ea12518d9975c9e8b6f8ace429e119",
           "d9bc15b6ecaa136a4aaf08e78d3f356e391feb24d186f3a330ca9b73ef7103da",
           "0415aba48b857ec44fb1247e539cffd91d8671b94acb71ebc183c88aa62adf1a"],
    "D4": ["ada4ee99efabb91057324eb3371eebfa4ef2d3da29f08d5c2f1766b923331837",
           "465623dea6e91b61f33ed4c2a5a03169bdf049ee13e5e0a95d450b152bde46f8",
           "6bdff3276ae59cf761db2f58f9a5f2eda3656a93a112a1f41b121f77bf2da565",
           "a533d66eaee69cde9de3017dbf61c56311251017d9b7e04a89e36457ad0664c7"],
}


def coeff_rows(polys, L, d):
    return coefficient_rows(polys, zero_weight_exponents(L, d))


# every label and G2, B3, C3 and A4 at all their degrees; D4 at degrees 2 and 4
DEGREE_CASES = ([pytest.param(label, None, id=label) for label in
                 SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4")]
                + [pytest.param("D4", (2, 4), id="D4")])


@pytest.mark.parametrize("label, degrees", DEGREE_CASES)
def test_zero_weight_enumeration_matches_filter(algebras, reference_zero_weight, label,
                                                degrees):
    L = algebras(label)
    for d in degrees or (0, 1) + tuple(sorted(set(L.rs.degrees))):
        assert zero_weight_exponents(L, d) == reference_zero_weight(L, d), d


@pytest.mark.parametrize("label, degrees", DEGREE_CASES)
def test_packed_enumeration_matches_tuple_route(algebras, reference_packed_enumeration,
                                                label, degrees):
    """The (packed, support) pairs of the root-pair join equal the exponent
    tuples of the reach-table recursion over every variable, packed
    afterwards, in the same order, at every degree up to the top one."""
    L = algebras(label)
    for d in degrees or range(max(L.rs.degrees) + 1):
        assert _zero_weight_monomials(L, d) == reference_packed_enumeration(L, d), d


@pytest.mark.parametrize("label, degrees", DEGREE_CASES)
def test_positive_multisets_are_exactly_those_that_close(algebras, reference_multisets, label,
                                                         degrees):
    """The table keeps a multiset of a roots and weight lam exactly when
    a + m(lam) <= d, and each entry's packed int, size and weight are its
    support's."""
    L = algebras(label)
    for d in degrees or range(max(L.rs.degrees) + 1):
        unit, _ = polyring._packing(L.dim, d)
        got: dict = {}
        for weight, by_size in invariants._positive_multisets(L, d, unit).items():
            for size, entries in by_size.items():
                for packed, support in entries:
                    assert sum(e for _, e in support) == size
                    assert packed == sum(e * unit[k] for k, e in support)
                    assert weight == tuple(sum(e * L.weights[k][j] for k, e in support)
                                           for j in range(L.rank))
                    got.setdefault((weight, size), []).append(support)
        assert {key: sorted(v) for key, v in got.items()} == reference_multisets(L, d), d


def _planted_weights(L, defect):
    weights = list(L.weights)
    if defect == "mirror":
        # two negative root vectors trade weights
        a, b = L.neg_indices[0], L.neg_indices[1]
        weights[a], weights[b] = weights[b], weights[a]
    elif defect == "cartan":
        weights[L.cartan_indices[0]] = L.weights[L.pos_indices[0]]
    elif defect == "positive":
        p, q = L.pos_indices[0], L.neg_indices[0]
        weights[p], weights[q] = weights[q], weights[p]
    return replace(L, weights=tuple(weights))


@pytest.mark.parametrize("defect", ["mirror", "cartan", "positive", "order"])
@pytest.mark.parametrize("label", ["A2", "B2"])
def test_enumeration_rejects_unpaired_roots(algebras, label, defect):
    """An algebra whose basis does not split into positive roots, Cartan and
    their mirrors raises UnpairedRoots instead of enumerating, and so does
    the solve that reads it."""
    L = algebras(label)
    if defect == "order":
        bad = replace(L, pos_indices=L.pos_indices[::-1], neg_indices=L.neg_indices[::-1])
    else:
        bad = _planted_weights(L, defect)
    for d in (0, 2):
        with pytest.raises(invariants.UnpairedRoots):
            _zero_weight_monomials(bad, d)
    with pytest.raises(invariants.UnpairedRoots):
        invariant_generators(bad)


def _rational(kernel):
    basis, den = kernel
    return [over(row, den) for row in basis]


@pytest.mark.parametrize("label, degrees", DEGREE_CASES)
def test_raising_equations_have_the_two_sided_kernel(algebras, reference_equations, label,
                                                     degrees):
    """The l raising operators' equations and the 2l simple root vectors'
    equations have the same canonical kernel basis at every invariant
    degree."""
    L = algebras(label)
    ctx = GradientContext(L)
    tables = invariants._action_tables(L)
    for d in degrees or sorted(set(L.rs.degrees)):
        monos = zero_weight_exponents(L, d)
        unit, _ = polyring._packing(L.dim, d)
        ours = invariants._equations(tables, _zero_weight_monomials(L, d), unit)
        theirs = reference_equations.equations(L, ctx, monos)
        assert len(theirs) == 2 * len(ours), d
        assert (_rational(linalg.sparse_kernel(ours, len(monos)))
                == _rational(linalg.sparse_kernel(theirs, len(monos)))), d


@pytest.mark.parametrize("label", SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4"))
def test_action_tables_are_negated_coordinate_brackets(algebras, reference_equations, label):
    """Row k of ad z is -{(z, .), x_k} for every raising operator z: the
    integer rows of int_ad equal the negated reference forms entry for
    entry."""
    L = algebras(label)
    ctx = GradientContext(L)
    vectors = invariants.simple_root_vectors(L)
    assert vectors == reference_equations.vectors(L)[:L.rank]
    for z, table in zip(vectors, invariants._action_tables(L)):
        ref = reference_equations.forms(L, ctx, z)
        assert table == [None if f is None else [(j, -c) for j, c in f] for f in ref]


EQUATION_TYPES = SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4", "D4")


@pytest.mark.parametrize("label", EQUATION_TYPES)
def test_equations_match_the_per_monomial_route(algebras, reference_derivation, label):
    """_derivation on the whole monomial list writes the rows that one
    derivation list per monomial merges into, operator by operator, at
    every invariant degree, each row with its columns ascending."""
    L = algebras(label)
    tables = invariants._action_tables(L)
    for d in sorted(set(L.rs.degrees)):
        monos = _zero_weight_monomials(L, d)
        unit, _ = polyring._packing(L.dim, d)
        for i, table in enumerate(tables):
            ours = invariants._equations([table], monos, unit)
            assert ours == reference_derivation.equations([table], monos, unit), (d, i)
            assert all(list(row) == sorted(row) for row in ours), (d, i)


@pytest.mark.parametrize("label", ["B3", "C3", "A4"])
def test_invariant_systems_have_primitive_pivot_rows(algebras, label):
    """Each type's degree-2 system has a fresh row that no pivot reduces and
    that has content ({0: 2, 14: -2} on B3 and C3); every pivot row of
    _echelon is primitive, that one included, at every degree."""
    L = algebras(label)
    tables = invariants._action_tables(L)
    for d in sorted(set(L.rs.degrees)):
        monos = _zero_weight_monomials(L, d)
        unit, _ = polyring._packing(L.dim, d)
        pivots = linalg._echelon(invariants._equations(tables, monos, unit))
        assert all(math.gcd(*q.values()) == 1 for q in pivots.values()), d


def _planted_families(L, fam):
    """The solved family, a rescaled copy, and copies planted with a defect
    that each condition of meets_solver_conditions must see."""
    n = L.dim
    polys, degrees = list(fam.polys), fam.degrees
    x0x1 = Poly.coordinate(n, 0) * Poly.coordinate(n, 1)
    h = Poly.coordinate(n, L.cartan_indices[0])
    heights = [sum(r) for r in L.rs.positive_roots]
    lowest = Poly.coordinate(n, L.neg_indices[heights.index(max(heights))])
    out = {
        "solved": fam,
        "rescaled": InvariantFamily([p.scale(rat(-2, 3)) for p in polys], degrees),
        "x0*x1 on the quadratic": InvariantFamily([polys[0] + x0x1] + polys[1:], degrees),
        "lowest root squared": InvariantFamily([polys[0] + lowest * lowest] + polys[1:],
                                               degrees),
        "Cartan power on the top": InvariantFamily(polys[:-1] + [polys[-1] + h ** degrees[-1]],
                                                   degrees),
        "wrong degrees": InvariantFamily(polys, degrees[:-1] + (degrees[-1] + 1,)),
        "inhomogeneous": InvariantFamily([polys[0] + h] + polys[1:], degrees),
    }
    if degrees[-1] % 2 == 0 and degrees[-1] > 2:
        out["decomposable top"] = InvariantFamily(
            polys[:-1] + [polys[0] ** (degrees[-1] // 2)], degrees)
    return out


@pytest.mark.parametrize("label", EQUATION_TYPES)
def test_solver_conditions_match_the_image_route(algebras, reference_derivation, label):
    """meets_solver_conditions gives the verdict of the per-term image loop
    on the solved family and on every planted family, the tampered A2 cache
    family (x0*x1 on the quadratic) among them."""
    L = algebras(label)
    fam = invariant_generators(L)
    verdicts = {name: meets_solver_conditions(L, f)
                for name, f in _planted_families(L, fam).items()}
    assert verdicts == {name: reference_derivation.conditions(L, f)
                        for name, f in _planted_families(L, fam).items()}
    assert verdicts["solved"] and verdicts["rescaled"]
    assert not any(v for name, v in verdicts.items() if name not in ("solved", "rescaled"))


def test_solver_conditions_reject_raising_killed_term_of_nonzero_weight(bundles):
    """x_9 of B2 is the coordinate of the lowest root vector, of weight
    (-1, -2): every raising operator kills x_9^2, so only the zero-weight
    test rejects a quadratic generator with x_9^2 added."""
    B = bundles("B2")
    quad, quartic = B.inv.polys
    x9 = Poly.coordinate(B.L.dim, 9)
    assert B.L.weights[9] == (-1, -2)
    tables = invariants._action_tables(B.L)
    assert all(table[9] is None for table in tables)
    assert not meets_solver_conditions(B.L, InvariantFamily([quad + x9 * x9, quartic], (2, 4)))


@pytest.mark.parametrize("label", sorted(INVARIANT_DIGESTS))
def test_rank_three_and_four_invariants_are_pinned(algebras, label):
    L = algebras(label)
    fam = invariant_generators(L)
    digests = [hashlib.sha256(json.dumps(p.to_payload(), separators=(",", ":")).encode())
               .hexdigest() for p in fam.polys]
    assert digests == INVARIANT_DIGESTS[label]


def test_degrees_match_root_data(bundles):
    for label in ("A1", "A2", "A1xA1", "B2", "A3"):
        B = bundles(label)
        assert B.inv.degrees == B.rs.degrees
        for p, d in zip(B.inv.polys, B.inv.degrees):
            assert p.is_homogeneous() and p.degree() == d


def test_a1_generator_is_killing_quadratic(bundles):
    B = bundles("A1")
    L = B.L
    n = L.dim
    killing_quad = Poly.zero(n)
    for a in range(n):
        for b in range(n):
            if L.killing[a][b]:
                killing_quad = killing_quad + \
                    (Poly.coordinate(n, a) * Poly.coordinate(n, b)).scale(L.killing[a][b])
    rows = coeff_rows([B.inv.polys[0], killing_quad], L, 2)
    assert linalg.rank(rows) == 1  # proportional


def test_invariant_space_dimensions():
    assert invariant_space_dimension((2, 3), 2) == 1
    assert invariant_space_dimension((2, 3), 3) == 1
    assert invariant_space_dimension((2, 3), 6) == 2   # I1^3 and I2^2
    assert invariant_space_dimension((2, 2), 2) == 2
    assert invariant_space_dimension((2, 3, 4), 4) == 2


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_full_invariance_all_generators(bundles, helpers, label):
    B = bundles(label)
    L = B.L
    for z_idx in range(L.dim):
        lz = helpers.linear_functional(B.ctx, L.basis_vector(z_idx))
        for p in B.inv.polys:
            assert poisson_bracket(B.ctx, lz, p).is_zero()


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_gradient_rank_characterizes_regularity(bundles, label):
    B = bundles(label)
    L = B.L
    rng = random.Random(f"rank-criterion:{label}")
    found = 0
    while found < 10:
        x = [rat(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(L.dim)]
        if not is_regular(L, cleared(x)):
            continue
        found += 1
        grads = [gradient(B.ctx, p, x) for p in B.inv.polys]
        assert linalg.rank([clear(g)[0] for g in grads]) == L.rank
        cent, kden = linalg.kernel(L.int_ad(cleared(x))[0], L.dim)
        assert len(cent) == L.rank
        for g in grads:
            assert linalg.rank(cent) == linalg.rank(cent + [clear(g)[0]])
            for k in cent:
                assert not any(L.int_bracket(clear(g), (k, kden))[0])
    # singular points: the origin and a simple root vector
    for x in (L.zero(), L.basis_vector(L.pos_indices[0])):
        assert not is_regular(L, cleared(x))
        grads = [gradient(B.ctx, p, x) for p in B.inv.polys]
        assert linalg.rank([clear(g)[0] for g in grads]) < L.rank


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_trace_oracle_spans_match_solver(bundles, rank):
    B = bundles(f"A{rank}")
    oracle = trace_oracle_type_A(B.L)
    assert oracle.degrees == B.inv.degrees
    fam = B.inv
    for d in sorted(set(fam.degrees)):
        lower = [p for p, dd in zip(fam.polys, fam.degrees) if dd < d]
        lower_degs = [dd for dd in fam.degrees if dd < d]
        dec = []
        for combo in _degree_combinations(list(lower_degs), d):
            prod = lower[combo[0]]
            for gi in combo[1:]:
                prod = prod * lower[gi]
            dec.append(prod)
        sol = [p for p, dd in zip(fam.polys, fam.degrees) if dd == d]
        orc = [p for p, dd in zip(oracle.polys, oracle.degrees) if dd == d]
        left = coeff_rows(dec + sol, B.L, d)
        right = coeff_rows(dec + orc, B.L, d)
        assert linalg.same_span(left, right)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4"])
def test_trace_oracle_matches_the_fraction_products(algebras, reference_trace, label):
    """The trace powers built on the integer images equal tr(x^k) by Poly
    products of the dense Fraction images, and every image entry is an
    int."""
    L = algebras(label)
    assert trace_oracle_type_A(L).polys == reference_trace(L)
    assert {type(v) for img in matrix_images_type_A(L) for v in img.values()} == {int}


def test_trace_oracle_degree_two_is_killing_line(bundles):
    B = bundles("A1")
    oracle = trace_oracle_type_A(B.L)
    rows = coeff_rows([oracle.polys[0], B.inv.polys[0]], B.L, 2)
    assert linalg.rank(rows) == 1


def test_trace_vanishes_identically(bundles):
    B = bundles("A2")
    images = matrix_images_type_A(B.L)
    n = B.L.dim
    tr = Poly.zero(n)
    for c in range(n):
        diag = sum((images[c].get((i, i), 0) for i in range(3)), rat(0))
        if diag:
            tr = tr + Poly.coordinate(n, c).scale(diag)
    assert tr.is_zero()


def test_trace_oracle_rejects_non_type_a(bundles):
    B = bundles("B2")
    with pytest.raises(UnsupportedType):
        matrix_images_type_A(B.L)


def test_cache_round_trip(tmp_path, bundles):
    B = bundles("A2")
    path = save_family(str(tmp_path), "A2", B.L, B.inv)
    loaded = load_family(str(tmp_path), "A2", B.L)
    assert loaded is not None
    assert loaded.degrees == B.inv.degrees
    assert loaded.polys == B.inv.polys
    assert path.endswith(".json")


def test_solver_conditions_reject_altered_families(bundles):
    B = bundles("B2")
    quad, quartic = B.inv.polys
    n = B.L.dim
    x0x1 = Poly.coordinate(n, 0) * Poly.coordinate(n, 1)
    assert meets_solver_conditions(B.L, B.inv)
    altered = {
        "wrong degrees": InvariantFamily([quad, quartic], (2, 2)),
        "inhomogeneous": InvariantFamily([quad + Poly.coordinate(n, 0), quartic], (2, 4)),
        "not invariant": InvariantFamily([quad + x0x1, quartic], (2, 4)),
        "decomposable": InvariantFamily([quad, quad * quad], (2, 4)),
    }
    for name, fam in altered.items():
        assert not meets_solver_conditions(B.L, fam), name


def test_cache_miss_on_missing_file(tmp_path, bundles):
    B = bundles("A1")
    assert load_family(str(tmp_path), "A1", B.L) is None


SELECTION_LABELS = SUPPORTED_LABELS + FLAGGED_LABELS + ("B3", "C3", "A4")


@pytest.mark.parametrize("label", SELECTION_LABELS)
def test_selection_matches_full_vector_scan(algebras, reference_select, monkeypatch, label):
    L = algebras(label)
    calls = []
    original = invariants._new_kernel_vectors

    def recorded(kernel, decomposables, d):
        out = original(kernel, decomposables, d)
        calls.append((_rational(kernel), d, out))
        return out

    monkeypatch.setattr(invariants, "_new_kernel_vectors", recorded)
    fam = invariant_generators(L)
    assert [d for _, d, _ in calls] == sorted(set(L.rs.degrees))
    for kernel, d, kept in calls:
        assert kept == reference_select(kernel, fam.polys, fam.degrees, d,
                                        zero_weight_exponents(L, d)), d


@pytest.mark.parametrize("label", SELECTION_LABELS)
def test_integer_solve_matches_rational_route(algebras, reference_generators, label):
    """The integer kernel, selection and normalization give the generators
    of the rational route, and at each degree the integer kernel divides
    back to the rational kernel and selects the same vectors."""
    L = algebras(label)
    fam = invariant_generators(L)
    assert fam.polys == reference_generators.solve(L)
    tables = invariants._action_tables(L)
    for d in sorted(set(L.rs.degrees)):
        monos = _zero_weight_monomials(L, d)
        unit, width = polyring._packing(L.dim, d)
        kernel = linalg.sparse_kernel(invariants._equations(tables, monos, unit), len(monos))
        basis, den = kernel
        assert den > 0 and all(type(v) is int for row in basis for v in row)
        rational = reference_generators.kernel(invariants._equations(tables, monos, unit),
                                               len(monos))
        assert _rational(kernel) == rational, d
        lower = [(p, dd) for p, dd in zip(fam.polys, fam.degrees) if dd < d]
        columns = {e: col for col, (e, _) in enumerate(monos)}
        decomposables = [{columns[e]: c for e, c in prod.items() if c} for _, prod in
                         invariants._packed_products([p for p, _ in lower],
                                                     [dd for _, dd in lower], d, unit)]
        kept = invariants._new_kernel_vectors(kernel, decomposables, d)
        assert kept == reference_generators.select(rational, decomposables, d), d
        tuples = zero_weight_exponents(L, d)
        for i in kept:
            assert (invariants._normalize_generator(basis[i], monos, L.dim, width)
                    == reference_generators.normalize(rational[i], tuples, L.dim)), (d, i)


@pytest.mark.parametrize("label", ["A1xA1", "A2", "B2", "A3", "G2"])
def test_packed_products_equal_poly_products(bundles, reference_products, label):
    fam = bundles(label).inv
    for d in range(2, max(fam.degrees) + 3):
        assert (decomposable_products(fam.polys, fam.degrees, d)
                == reference_products(fam.polys, fam.degrees, d)), d


def test_products_of_scaled_generators_keep_their_coefficients(bundles):
    quad, quartic = bundles("B2").inv.polys
    a, b = quad.scale(rat(2, 3)), quartic.scale(rat(-5, 7))
    assert decomposable_products([a, b], (2, 4), 6) == [a * a * a, a * b]


def _plant_in_quadratic(monkeypatch, term):
    original = invariants._normalize_generator

    def planted(*args):
        p = original(*args)
        return p + term if p.degree() == 2 else p

    monkeypatch.setattr(invariants, "_normalize_generator", planted)


def test_certificate_rejects_non_invariant_lower_generator(algebras, monkeypatch):
    L = algebras("B2")
    h = Poly.coordinate(L.dim, L.cartan_indices[0])
    # h^2 has weight zero, so the products land in the degree-4 columns
    _plant_in_quadratic(monkeypatch, h * h)
    with pytest.raises(WrongDimension, match="not invariant"):
        invariant_generators(L)


def test_certificate_rejects_lower_generator_of_nonzero_weight(algebras, monkeypatch):
    L = algebras("B2")
    _plant_in_quadratic(monkeypatch, Poly.coordinate(L.dim, 0) * Poly.coordinate(L.dim, 1))
    with pytest.raises(WrongDimension, match="nonzero weight"):
        invariant_generators(L)


def test_solver_conditions_reject_fractional_non_invariant_term(bundles):
    B = bundles("B2")
    quad, quartic = B.inv.polys
    n = B.L.dim
    h = Poly.coordinate(n, B.L.cartan_indices[0])
    scaled = InvariantFamily([quad.scale(rat(1, 3)), quartic.scale(rat(-2, 7))], (2, 4))
    assert meets_solver_conditions(B.L, scaled)
    for term in ((h * h).scale(rat(1, 3)), (Poly.coordinate(n, 0) * h).scale(rat(-5, 2))):
        fam = InvariantFamily([quad.scale(rat(1, 3)) + term, quartic], (2, 4))
        assert not meets_solver_conditions(B.L, fam), term


def test_cache_with_malformed_exponents_is_a_miss(tmp_path, bundles, malformed_exponents):
    B = bundles("A2")
    path = save_family(str(tmp_path), "A2", B.L, B.inv)
    with open(path) as fh:
        payload = json.load(fh)
    malformed_exponents(payload["polys"][0])
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert load_family(str(tmp_path), "A2", B.L) is None


@pytest.mark.parametrize("corruption", ["1/0", "-3/0", "0/0", "repeated term"])
def test_cache_with_a_zero_denominator_is_a_miss(tmp_path, bundles, corruption):
    """A zero denominator, or a term written twice with its own coefficient
    (a file that would otherwise load as the same polynomials)."""
    B = bundles("A2")
    path = save_family(str(tmp_path), "A2", B.L, B.inv)
    with open(path) as fh:
        payload = json.load(fh)
    if corruption == "repeated term":
        payload["polys"][1].append(payload["polys"][1][0])
    else:
        payload["polys"][1][-1][1] = corruption
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert load_family(str(tmp_path), "A2", B.L) is None


def test_cache_file_bytes_are_compact_sorted_json(tmp_path, bundles):
    B = bundles("B2")
    path = save_family(str(tmp_path), "B2", B.L, B.inv)
    with open(path, "rb") as fh:
        written = fh.read()
    payload = json.loads(written)
    assert written == json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    streamed = io.StringIO()
    json.dump(payload, streamed, sort_keys=True, separators=(",", ":"))
    assert written == streamed.getvalue().encode()


@pytest.mark.parametrize("label", ["A1", "A2", "A3"])
def test_sparse_images_match_dense_reference(algebras, reference_images, label):
    """Each sparse image holds exactly the nonzero entries of the dense
    image: one for a root vector, two for a Cartan element."""
    L = algebras(label)
    size = L.rank + 1
    dense = reference_images(L)
    sparse = matrix_images_type_A(L)
    for c, (s, d) in enumerate(zip(sparse, dense)):
        assert s == {(i, j): d[i][j] for i in range(size) for j in range(size) if d[i][j]}
        assert len(s) == (2 if c in L.cartan_indices else 1)


def test_sparse_images_check_every_basis_pair(algebras):
    """A doubled [h_1, e] entry is not used to build any image, so only the
    homomorphism check over every basis pair can see it."""
    L = algebras("A3")
    table = dict(L.table)
    key = max(k for k in table if k[0] == L.cartan_indices[0])
    table[key] = {c: 2 * v for c, v in table[key].items()}
    with pytest.raises(UnsupportedType, match="bracket check"):
        matrix_images_type_A(replace(L, table=table))
