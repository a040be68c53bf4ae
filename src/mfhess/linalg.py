"""Exact rational linear algebra.

Dense routines operate on lists of lists of rationals and are meant for
matrices up to a few dozen rows (adjoint matrices, Gram matrices, gradient
stacks).  The sparse kernel routine handles the larger graded systems that
appear when solving for invariant polynomials; rows there are dicts mapping
column index to coefficient.

Pivot choices are deterministic so that every derived basis is reproducible.
"""

from __future__ import annotations

from .rational import R0, R1, to_rat


def zeros(n: int) -> list:
    return [R0] * n


def vec_add(u: list, v: list) -> list:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: list, v: list) -> list:
    return [a - b for a, b in zip(u, v)]


def vec_scale(u: list, c) -> list:
    return [c * a for a in u]


def vec_is_zero(u: list) -> bool:
    return all(not a for a in u)


def dot(u: list, v: list):
    s = R0
    for a, b in zip(u, v):
        if a and b:
            s = s + a * b
    return s


def mat_vec(m: list, v: list) -> list:
    return [dot(row, v) for row in m]


def mat_mul(a: list, b: list) -> list:
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def transpose(m: list) -> list:
    return [list(col) for col in zip(*m)]


def identity(n: int) -> list:
    return [[R1 if i == j else R0 for j in range(n)] for i in range(n)]


def rref(mat: list) -> tuple[list, list]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Pivot rule: leftmost column, first row with a nonzero entry.
    """
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = R1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(mat: list) -> int:
    if not mat:
        return 0
    return len(rref(mat)[1])


def kernel(mat: list, ncols: int | None = None) -> list:
    """Basis of the right kernel of mat (rows = equations)."""
    if not mat:
        return [[R1 if i == j else R0 for j in range(ncols)] for i in range(ncols)] if ncols else []
    n = ncols if ncols is not None else len(mat[0])
    rows, pivots = rref(mat)
    pivset = set(pivots)
    basis = []
    for free in range(n):
        if free in pivset:
            continue
        v = zeros(n)
        v[free] = R1
        for r, p in enumerate(pivots):
            v[p] = -rows[r][free]
        basis.append(v)
    return basis


def inverse(mat: list) -> list:
    n = len(mat)
    aug = [list(row) + [R1 if i == j else R0 for j in range(n)] for i, row in enumerate(mat)]
    rows, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def det(mat: list):
    n = len(mat)
    rows = [list(r) for r in mat]
    sign = R1
    out = R1
    for c in range(n):
        sel = None
        for i in range(c, n):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            return R0
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            sign = -sign
        piv = rows[c][c]
        out = out * piv
        inv = R1 / piv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out * sign


def solve(mat: list, rhs: list) -> list:
    """One exact solution of mat*x = rhs; raises ValueError if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    n = len(mat[0])
    rows, pivots = rref(aug)
    for row in rows:
        if not any(row[:n]) and row[n]:
            raise ValueError("inconsistent linear system")
    x = zeros(n)
    for r, p in enumerate(pivots):
        if p < n:
            x[p] = rows[r][n]
    return x


def span_basis(vectors: list) -> list:
    """Canonical (RREF) basis of the span of the given vectors."""
    if not vectors:
        return []
    rows, pivots = rref(vectors)
    return rows[: len(pivots)]


def independent_subset(vectors: list) -> list:
    """Indices of the vectors kept by a left-to-right greedy independence scan.

    Vector i is kept exactly when it is outside the span of vectors 0..i-1,
    which makes the kept indices the pivot columns of one RREF of the matrix
    whose columns are the vectors.
    """
    return rref(transpose(vectors))[1]


def in_span(v: list, basis: list) -> bool:
    if vec_is_zero(v):
        return True
    if not basis:
        return False
    return rank(basis) == rank(basis + [v])


def same_span(a: list, b: list) -> bool:
    return span_basis(a) == span_basis(b)


def vandermonde_solve(nodes: list, values: list) -> list:
    """Coefficient vectors c_k with sum_k c_k t^k = value(t) at each node.

    values[i] is the vector observed at nodes[i]; returns len(nodes)
    coefficient vectors (degree < number of nodes).
    """
    k = len(nodes)
    vmat = [[to_rat(t) ** j for j in range(k)] for t in nodes]
    vinv = inverse(vmat)
    dimv = len(values[0])
    coeffs = []
    for j in range(k):
        coeffs.append([dot(vinv[j], [values[i][c] for i in range(k)]) for c in range(dimv)])
    return coeffs


def sparse_kernel(rows: list, ncols: int) -> list:
    """Right kernel for sparse rows (dicts col->coeff); deterministic RREF.

    Columns are eliminated in ascending index order; among candidate rows the
    sparsest (then first-inserted) is chosen as pivot.
    """
    work = [dict(r) for r in rows if r]
    pivot_of_col: dict[int, dict] = {}

    def eliminate(row: dict):
        # reduce row against existing pivots
        for c in sorted(row):
            if c in pivot_of_col and row.get(c):
                piv = pivot_of_col[c]
                f = row[c]
                for cc, val in piv.items():
                    nv = row.get(cc, R0) - f * val
                    if nv:
                        row[cc] = nv
                    elif cc in row:
                        del row[cc]
        return row

    order = sorted(range(len(work)), key=lambda i: (len(work[i]), i))
    for idx in order:
        row = eliminate(work[idx])
        if not row:
            continue
        c0 = min(row)
        inv = R1 / row[c0]
        row = {c: v * inv for c, v in row.items()}
        # clear c0 from previously chosen pivot rows
        for pc, prow in list(pivot_of_col.items()):
            if c0 in prow:
                f = prow[c0]
                for cc, val in row.items():
                    nv = prow.get(cc, R0) - f * val
                    if nv:
                        prow[cc] = nv
                    elif cc in prow:
                        del prow[cc]
        pivot_of_col[c0] = row
    pivcols = set(pivot_of_col)
    basis = []
    for free in range(ncols):
        if free in pivcols:
            continue
        v = zeros(ncols)
        v[free] = R1
        for pc, prow in pivot_of_col.items():
            coeff = prow.get(free)
            if coeff:
                v[pc] = -coeff
        basis.append(v)
    return basis

