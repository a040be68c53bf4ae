import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from mfhess import linalg
from mfhess.rational import clear, cleared, over, rat, to_rat

frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# entries with denominators up to 10^6, zero about a third of the time
wide_frac = st.one_of(st.just(0), st.just(0),
                      st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                   max_denominator=10 ** 6))


def mat(rows):
    return [[to_rat(v) for v in row] for row in rows]


def ints(rows):
    """Each row as ints, times the LCM of its denominators (rational.clear):
    the rows that linalg takes, with the same rank, span and kernel."""
    return [clear(row)[0] for row in mat(rows)]


def int_rows(rows):
    """Sparse rows, each times the LCM of its denominators."""
    return [dict(zip(r, clear(list(r.values()))[0])) for r in rows]


def test_rref_rank_kernel(helpers):
    m = ints([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(m) == 2
    ker, den = linalg.kernel(m, 3)
    assert len(ker) == 1 and den > 0
    for row in m:
        assert helpers.dot(row, ker[0]) == 0


def test_solve_and_inverse(helpers):
    a = ints([[2, 1], [1, 3]])
    x = over(*linalg.solve(a, [1, 2]))
    assert helpers.mat_vec(a, x) == [rat(1), rat(2)]
    rows, den = linalg.inverse(a)
    assert (rows, den) == ([[3, -1], [-1, 2]], 5)
    assert helpers.mat_mul(a, [over(row, den) for row in rows]) == helpers.identity(2)
    assert linalg.det([[2, 1], [1, 3]]) == 5


def test_solve_inconsistent():
    a = ints([[1, 1], [1, 1]])
    try:
        linalg.solve(a, [0, 1])
        assert False, "expected ValueError"
    except ValueError:
        pass


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inverse_round_trip(helpers, rows):
    """The integer rows of inverse over den are the Fraction inverse, and den
    the LCM of its denominators."""
    m = ints(rows)
    if not linalg.det(m):
        return
    inv, den = linalg.inverse(m)
    assert helpers.mat_mul(m, [over(row, den) for row in inv]) == helpers.identity(3)
    want = helpers.inverse(m)
    assert [over(row, den) for row in inv] == want
    assert den == math.lcm(*(c.denominator for row in want for c in row))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(frac, min_size=4, max_size=4), min_size=2, max_size=4))
def test_kernel_annihilates(helpers, rows):
    m = ints(rows)
    ker, _ = linalg.kernel(m, 4)
    assert len(ker) == 4 - linalg.rank(m)
    for v in ker:
        for row in m:
            assert helpers.dot(row, v) == 0


def test_span_helpers(helpers):
    v1 = [1, 0, 1]
    v2 = [0, 1, 0]
    assert linalg.rank([v1, v2, helpers.vec_add(v1, v2)]) == 2
    assert linalg.rank([v1, v2]) == linalg.rank([v1, v2, helpers.vec_add(v1, v2)])
    assert linalg.rank([v1, v2]) != linalg.rank([v1, v2, [0, 0, 1]])
    assert linalg.same_span([v1, v2], [helpers.vec_add(v1, v2), v2])


nonzero_int = st.integers(min_value=-9, max_value=9).filter(bool)
nonzero_wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                            max_denominator=10 ** 6).filter(bool).map(to_rat)


@st.composite
def sparse_systems(draw):
    """(rows, ncols): sparse rows over a few columns, so that reductions fill
    columns that become pivots later.  Rows are empty, all-int, mixed int and
    rational (denominators up to 10^6), duplicates, proportional to an
    earlier row (the factor may be negative) or combinations of two."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["zero", "int", "mixed", "duplicate",
                                     "proportional", "combination"]))
        if kind in ("duplicate", "proportional", "combination") and not rows:
            kind = "zero"
        if kind == "zero":
            rows.append({})
        elif kind in ("int", "mixed"):
            entry = nonzero_int if kind == "int" else st.one_of(nonzero_int, nonzero_wide)
            cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1, unique=True))
            rows.append({c: draw(entry) for c in cols})
        elif kind == "duplicate":
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "proportional":
            f = to_rat(draw(frac.filter(bool)))
            rows.append({c: f * v for c, v in draw(st.sampled_from(rows)).items()})
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            f, g = to_rat(draw(frac)), to_rat(draw(frac))
            row = {c: f * a.get(c, 0) + g * b.get(c, 0) for c in sorted(set(a) | set(b))}
            rows.append({c: v for c, v in row.items() if v})
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
@example(([], 3))
@example(([{}, {}], 2))
# the reduction of the second row fills column 3, the pivot of the third
@example(([{0: 1, 3: 1}, {0: 1, 1: 1}, {3: 1, 4: 2}], 5))
@example(([{0: -2, 1: 4}, {0: 1, 1: -2}, {0: rat(-3, 7), 1: rat(6, 7)}], 3))
@example(([{0: rat(1, 999999), 1: rat(-1, 10 ** 6)}, {0: 3, 2: rat(7, 10 ** 6)}], 3))
# rational rows, the third the sum of the first two
@example(([{0: rat(1), 2: rat(2)}, {1: rat(1), 3: rat(3)},
           {0: rat(1), 1: rat(1), 2: rat(2), 3: rat(3)}], 4))
def test_sparse_kernel_matches_rational_elimination(reference_kernel, system):
    """The integer rows of sparse_kernel over its positive denominator divide
    back to the rational kernel; sparse_kernel takes the rows cleared, and
    takes them over, so it gets copies."""
    rows, ncols = system
    basis, den = linalg.sparse_kernel(int_rows(rows), ncols)
    assert den > 0 and all(type(v) is int for row in basis for v in row)
    assert [over(row, den) for row in basis] == reference_kernel(rows, ncols)
    assert linalg.kernel([[r.get(j, 0) for j in range(ncols)] for r in int_rows(rows)],
                         ncols) == (basis, den)


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
@example(([{0: 2, 1: -2}], 2), random.Random(0))
@example(([{0: 1, 1: 1}, {0: 2, 1: 6}], 3), random.Random(1))
@example(([{1: 4, 2: -6}, {0: 3, 1: 2}], 3), random.Random(2))
def test_pivot_rows_are_primitive_and_the_kernel_ignores_row_order(system, rnd):
    """Every pivot row of _echelon is primitive, a fresh row that no pivot
    reduced included, so sparse_kernel returns the same (basis, den) for
    every permutation of its rows."""
    rows, ncols = system
    rows = int_rows(rows)
    pivots = linalg._echelon([dict(r) for r in rows])
    assert all(math.gcd(*q.values()) == 1 for q in pivots.values())
    want = linalg.sparse_kernel([dict(r) for r in rows], ncols)
    shuffled = [dict(r) for r in rows]
    rnd.shuffle(shuffled)
    assert linalg.sparse_kernel(shuffled, ncols) == want


def test_a_fresh_pivot_row_loses_its_content():
    assert linalg._echelon([{0: 2, 14: -2}]) == {0: {0: 1, 14: -1}}
    assert linalg.sparse_kernel([{0: 2, 1: -2}], 2) == ([[1, 1]], 1)


@settings(max_examples=200, deadline=None)
@given(sparse_systems())
def test_rows_that_vanish_are_released(system):
    """_echelon sets each row that reduces to zero to None in its list;
    every other row is a pivot row or was empty from the start."""
    rows, ncols = system
    work = int_rows(rows)
    pivots = linalg._echelon(work)
    held = {id(q) for q in pivots.values()}
    assert all(r is None or id(r) in held or not r for r in work)
    nonzero = sum(1 for r in rows if any(r.values()))
    assert sum(r is None for r in work) == nonzero - len(pivots)


def test_vandermonde_solve(helpers):
    # values of 1 + 2t + 3t^2 componentwise
    nodes = [0, 1, 2]
    values = [[to_rat(1 + 2 * t + 3 * t * t)] for t in nodes]
    rows, den = linalg.inverse([[t ** k for k in range(len(nodes))] for t in nodes])
    coeffs = helpers.mat_mul([over(row, den) for row in rows], values)
    assert [c[0] for c in coeffs] == [rat(1), rat(2), rat(3)]


def greedy_independent(vectors):
    """Reference scan: keep each vector that raises the rank of those kept."""
    kept = []
    for i, v in enumerate(vectors):
        if linalg.rank([vectors[j] for j in kept] + [v]) > len(kept):
            kept.append(i)
    return kept


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_independent_subset_matches_greedy_scan(data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    vectors = ints(data.draw(st.lists(st.lists(small, min_size=dim, max_size=dim),
                                      min_size=1, max_size=6)))
    # repeated and zero vectors make sure dependencies occur
    repeats = data.draw(st.lists(st.integers(0, len(vectors) - 1), max_size=3))
    vectors += [vectors[i] for i in repeats] + [[0] * dim]
    order = data.draw(st.permutations(range(len(vectors))))
    vectors = [vectors[i] for i in order]
    assert linalg.independent_subset(vectors) == greedy_independent(vectors)
    assert linalg.independent_subset([]) == []


@st.composite
def rank_matrices(draw):
    """Wide, tall or square matrices; some rows repeat or combine others,
    some are zero, and the all-zero matrix is drawn too."""
    nrows = draw(st.integers(min_value=1, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * ncols)
        elif kind == "random":
            rows.append(draw(st.lists(wide_frac, min_size=ncols, max_size=ncols)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(frac), draw(frac)
            rows.append([s * u + t * v for u, v in zip(a, b)])
    return [[to_rat(v) for v in row] for row in rows]


@settings(max_examples=120, deadline=None)
@given(rank_matrices())
def test_integer_rank_matches_rref(reference_echelon, m):
    """The rank of the cleared rows and of their transpose is the RREF pivot
    count of the rational matrix."""
    assert linalg.rank(ints(m)) == len(reference_echelon(m)[1])
    assert linalg.rank(linalg.transpose(ints(m))) == len(reference_echelon(m)[1])


def rref_span(rref, m):
    rows, pivots = rref(m)
    return rows[:len(pivots)]


def raised(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def as_kind(m, kind):
    """m as drawn (rational), as integer rows (each row times the LCM of its
    denominators), or as integer rows with every odd column over j + 1;
    linalg takes the integer kind alone."""
    if kind == "rational":
        return m
    ints = [clear(row)[0] for row in m]
    if kind == "integer":
        return ints
    return [[rat(v, j + 1) if j % 2 else v for j, v in enumerate(row)] for row in ints]


@settings(max_examples=120, deadline=None)
@given(rank_matrices().map(lambda m: (m, len(m[0]))),
       st.sampled_from(["rational", "integer", "mixed"]))
@example(([], 3), "rational")
@example((mat([[1, 2], [2, 4]]), 2), "integer")
@example((mat([[1, 1], [1, 1]]), 2), "rational")
@example((mat([[2, 1], [1, 3]]), 2), "mixed")
def test_basis_routines_match_rref(reference_echelon, reference_kernel, reference_principal,
                                   case, kind):
    """Every routine that returns a basis equals its answer read from the
    rational RREF, kernel, solve and inverse as the cleared vectors of that
    answer: the empty system has the identity kernel, and no independent
    vector; [[1, 2], [2, 4]] has no inverse, and [[1, 1], [1, 1]] x = (1, 0)
    no solution.  A matrix with a rational entry raises TypeError in each
    routine, and its rows are cleared first."""
    m, ncols = case
    m = as_kind(m, kind)
    if any(type(v) is not int for row in m for v in row):
        for fn in (linalg.rank, linalg.independent_subset, lambda m: linalg.kernel(m, ncols),
                   lambda m: linalg.same_span(m, m), lambda m: linalg.solve(m, [0] * len(m))):
            with pytest.raises(TypeError):
                fn(m)
        m = [clear(row)[0] for row in m]
    rref = reference_echelon
    basis, den = linalg.kernel(m, ncols)
    assert den > 0 and [over(v, den) for v in basis] == \
        reference_kernel([dict(enumerate(row)) for row in m], ncols)
    assert linalg.independent_subset(m) == rref(linalg.transpose(m))[1]
    for other in (m[::-1], m[1:]):
        assert linalg.same_span(m, other) == (rref_span(rref, m) == rref_span(rref, other))
    if not m:
        return
    for rhs in ([sum(row) for row in m], [int(i == 0) for i in range(len(m))]):
        want = raised(reference_principal.solve, m, rhs)
        assert raised(linalg.solve, m, rhs) == (want if want is ValueError else cleared(want))
    k = min(len(m), ncols)
    block = [row[:k] for row in m[:k]]
    want = raised(reference_principal.inverse, block)
    got = raised(linalg.inverse, block)
    assert got == want if want is ValueError else [over(row, got[1]) for row in got[0]] == want


def test_integer_rank_edge_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank(ints([[0, 0, 0], [0, 0, 0]])) == 0
    assert linalg.rank(ints([[0], [0], [5]])) == 1
    assert linalg.rank(ints([["-1/999999", "1/1000000", 0]])) == 1
    big = rat(10 ** 6 - 1, 10 ** 6)
    assert linalg.rank(ints([[big, 1], [big * 3, 3]])) == 1


@pytest.mark.parametrize("plant", [rat, lambda v: rat(v, 7), float, bool],
                         ids=["whole", "seventh", "float", "bool"])
def test_a_planted_non_int_entry_raises_type_error(plant):
    """A Fraction, even a whole one, a float or a bool planted in a matrix
    handed to rank or sparse_kernel raises TypeError; it is never cleared
    or coerced."""
    m = [[1, 2, 0], [0, 3, 1]]
    m[1][1] = plant(m[1][1])
    with pytest.raises(TypeError, match="int entries only"):
        linalg.rank(m)
    with pytest.raises(TypeError, match="int entries only"):
        linalg.sparse_kernel([dict(enumerate(row)) for row in m], 3)


@st.composite
def scaled_integer_rows(draw):
    """Integer rows and one positive scale per row, up to 10^6."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols),
                         min_size=0, max_size=6))
    dens = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(rows), max_size=len(rows)))
    return rows, dens


@settings(max_examples=150, deadline=None)
@given(scaled_integer_rows())
@example(([[0, 0], [0, 0]], [1, 7]))
@example(([[2, 4], [1, 2], [3, 7]], [5, 10 ** 6, 3]))
def test_rank_takes_integer_rows_as_they_are(reference_echelon, case):
    """The rank of integer rows equals the RREF pivot count of the same rows
    over positive denominators; rows over denominators, or that mix ints
    and rationals, are refused, and their cleared rows have the RREF rank."""
    rows, dens = case
    fractions = [[rat(v, d) for v in row] for row, d in zip(rows, dens)]
    assert linalg.rank(rows) == len(reference_echelon(fractions)[1])
    mixed = [[rat(v, d) if j % 2 else v for j, v in enumerate(row)]
             for row, d in zip(rows, dens)]
    for m in (fractions, mixed):
        if any(type(v) is not int for row in m for v in row):
            with pytest.raises(TypeError):
                linalg.rank(m)
        assert linalg.rank(ints(m)) == len(reference_echelon(mat(m))[1])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(wide_frac, min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[0, 1], [1, 0]])
@example([[0, 0], [1, 0]])
def test_det_matches_rational_elimination(reference_witness, rows):
    """The fraction-free determinant of integer rows equals Gaussian
    elimination in Fractions, on the integer numerators of rational rows
    (over the product of the row scales) and on integers."""
    m = mat(rows)
    cleared_rows = [clear(row) for row in m]
    got = linalg.det([nums for nums, _ in cleared_rows])
    assert type(got) is int
    assert rat(got, math.prod(den for _, den in cleared_rows)) == reference_witness.det(m)
    ints = [[int(v * 10 ** 6) for v in row] for row in m]
    assert linalg.det(ints) == reference_witness.det(mat(ints))
