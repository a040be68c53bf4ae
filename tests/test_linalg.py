from hypothesis import given, settings, strategies as st

from mfhess import linalg
from mfhess.rational import rat, to_rat

frac = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def mat(rows):
    return [[to_rat(v) for v in row] for row in rows]


def test_rref_rank_kernel():
    m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(m) == 2
    ker = linalg.kernel(m, 3)
    assert len(ker) == 1
    for row in m:
        assert linalg.dot(row, ker[0]) == 0


def test_solve_and_inverse():
    a = mat([[2, 1], [1, 3]])
    x = linalg.solve(a, [to_rat(1), to_rat(2)])
    assert linalg.mat_vec(a, x) == [rat(1), rat(2)]
    ainv = linalg.inverse(a)
    assert linalg.mat_mul(a, ainv) == linalg.identity(2)
    assert linalg.det(a) == rat(5)


def test_solve_inconsistent():
    a = mat([[1, 1], [1, 1]])
    try:
        linalg.solve(a, [to_rat(0), to_rat(1)])
        assert False, "expected ValueError"
    except ValueError:
        pass


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(frac, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inverse_round_trip(rows):
    m = mat(rows)
    if linalg.det(m) == 0:
        return
    assert linalg.mat_mul(m, linalg.inverse(m)) == linalg.identity(3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(frac, min_size=4, max_size=4), min_size=2, max_size=4))
def test_kernel_annihilates(rows):
    m = mat(rows)
    ker = linalg.kernel(m, 4)
    assert len(ker) == 4 - linalg.rank(m)
    for v in ker:
        for row in m:
            assert linalg.dot(row, v) == 0


def test_span_helpers():
    v1 = [rat(1), rat(0), rat(1)]
    v2 = [rat(0), rat(1), rat(0)]
    assert linalg.rank([v1, v2, linalg.vec_add(v1, v2)]) == 2
    assert linalg.in_span(linalg.vec_add(v1, v2), [v1, v2])
    assert not linalg.in_span([rat(0), rat(0), rat(1)], [v1, v2])
    assert linalg.same_span([v1, v2], [linalg.vec_add(v1, v2), v2])


def test_sparse_kernel_matches_dense():
    rows = [[1, 0, 2, 0], [0, 1, 0, 3], [1, 1, 2, 3]]
    dense = linalg.kernel(mat(rows), 4)
    sparse_rows = [{j: to_rat(v) for j, v in enumerate(r) if v} for r in rows]
    sparse = linalg.sparse_kernel(sparse_rows, 4)
    assert linalg.same_span(dense, sparse)
    assert len(sparse) == len(dense)


def test_vandermonde_solve():
    # values of 1 + 2t + 3t^2 componentwise
    nodes = [0, 1, 2]
    values = [[to_rat(1 + 2 * t + 3 * t * t)] for t in nodes]
    coeffs = linalg.vandermonde_solve(nodes, values)
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
    vectors = mat(data.draw(st.lists(st.lists(small, min_size=dim, max_size=dim),
                                     min_size=1, max_size=6)))
    # repeated and zero vectors make sure dependencies occur
    repeats = data.draw(st.lists(st.integers(0, len(vectors) - 1), max_size=3))
    vectors += [vectors[i] for i in repeats] + [[rat(0)] * dim]
    order = data.draw(st.permutations(range(len(vectors))))
    vectors = [vectors[i] for i in order]
    assert linalg.independent_subset(vectors) == greedy_independent(vectors)
    assert linalg.independent_subset([]) == []
