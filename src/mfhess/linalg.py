"""Exact rational linear algebra.

Dense routines operate on lists of lists of rationals and are meant for
matrices up to a few dozen rows (adjoint matrices, Gram matrices, gradient
stacks).  The sparse kernel routine handles the larger graded systems that
appear when solving for invariant polynomials; rows there are dicts mapping
column index to coefficient.

Pivot choices are deterministic so that every derived basis is reproducible.

rank, det and sparse_kernel work on integers: each row is scaled by the LCM
of its denominators (rank and det take a row of ints as it is) and
eliminated without fractions (integer row operations, each result divided by
its content; det by Bareiss's exact divisions).  sparse_kernel forms one
rational per kernel entry at the end and returns the canonical basis that
rational elimination returns.  The dense routines that return a basis
(rref, kernel, span_basis, independent_subset, solve, inverse) stay
rational, because the basis they return is the canonical reduced one.
"""

from __future__ import annotations

import math

from .rational import R0, R1, rat, to_rat


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


def _integer_row(row) -> tuple:
    """(ints, den): the row times den, the LCM of its denominators; a row of
    ints as it is, with den 1."""
    if all(type(c) is int for c in row):
        return row, 1
    den = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (den // c.denominator) for c in row], den


def rank(mat: list) -> int:
    """Exact rank by fraction-free elimination.

    Rows of ints (the numerators the integer cores return) are taken as they
    are; a rational row is scaled by the LCM of its denominators.  A positive
    scale of a row leaves the rank unchanged.  Each step takes the last
    remaining row as pivot row, at its first nonzero column c, and replaces
    every other row r with a nonzero at c by (p/g) r - (r_c/g) pivot,
    g = gcd(p, r_c), divided by its content.  These operations keep the row
    space over Q, so the number of steps is the rank.
    """
    rows = [row for row, _ in map(_integer_row, mat) if any(row)]
    out = 0
    while rows:
        piv = rows.pop()
        c = next(j for j, a in enumerate(piv) if a)
        p = piv[c]
        rest = []
        for row in rows:
            a = row[c]
            if a:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                row = [pg * u - ag * v for u, v in zip(row, piv)]
                g = math.gcd(*row)
                if not g:
                    continue
                if g > 1:
                    row = [u // g for u in row]
            rest.append(row)
        rows = rest
        out += 1
    return out


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
    """Exact determinant by fraction-free elimination (Bareiss 1968) on the
    integer-scaled rows, divided back by the product of the row scales.

    Step k replaces each entry below and right of the pivot by
    (p a_ij - a_ik a_kj) / p_prev, an exact integer division; the last
    pivot is the determinant of the integer matrix.  A row swap flips the
    sign.
    """
    n = len(mat)
    if not n:
        return R1
    rows, scale = [], 1
    for row in mat:
        ints, den = _integer_row(row)
        rows.append(list(ints))
        scale *= den
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            sel = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if sel is None:
                return R0
            rows[k], rows[sel] = rows[sel], rows[k]
            sign = -sign
        p = rows[k][k]
        for i in range(k + 1, n):
            a = rows[i][k]
            rows[i] = [0] * (k + 1) + [(p * rows[i][j] - a * rows[k][j]) // prev
                                       for j in range(k + 1, n)]
        prev = p
    return rat(sign * rows[n - 1][n - 1], scale)


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
    """Right kernel of sparse rows (dicts col -> int or rational; zero
    entries are ignored): the canonical basis, a 1 on each free column and
    zeros on the other free columns.

    Fraction-free elimination on the integer-scaled rows.  Rows are taken
    with the highest lowest column first, then sparsest first, then in input
    order: a new pivot then mostly sits below the columns of the earlier
    pivot rows, so few of them need clearing.  Each row is reduced against
    the pivot rows at the pivot columns it holds; its lowest column c0
    becomes a pivot and is cleared from the earlier pivot rows that hold it,
    found through a column index rather than a scan.  So every pivot row is
    zero at every other pivot column.  Each reduction is one integer row
    operation and a division by the content (_reduce_at): every row stays
    primitive and proportional to the row that rational elimination holds
    at the same step.  The only rationals formed are the kernel entries
    -q[free] / q[pc] of each pivot row q.

    The row order sets only the cost.  A reduced row is zero at every pivot
    column, so its lowest column is a new leading column of the row space;
    the pivots end as the leading columns of the row space in any order.
    """
    work = [{j: c for j, c in zip(r, _integer_row(r.values())[0]) if c} for r in rows]
    order = sorted(range(len(work)), key=lambda i: (-min(work[i], default=0), len(work[i]), i))
    pivots: dict[int, dict] = {}
    holders: dict[int, set] = {}    # column -> pivots whose rows are nonzero there
    for idx in order:
        row = work[idx]
        for c in sorted(row):
            if c in pivots and c in row:
                _reduce_at(row, pivots[c], c)
        if not row:
            continue
        c0 = min(row)
        for pc in holders.pop(c0, ()):
            prow = pivots[pc]
            _reduce_at(prow, row, c0)
            # the reduction changes prow only at the columns of row
            for j in row:
                if j in prow:
                    holders.setdefault(j, set()).add(pc)
                elif j in holders:
                    holders[j].discard(pc)
        pivots[c0] = row
        for j in row:
            holders.setdefault(j, set()).add(c0)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = zeros(ncols)
        v[free] = R1
        for pc in holders.get(free, ()):
            v[pc] = rat(-pivots[pc][free], pivots[pc][pc])
        basis.append(v)
    return basis


def _reduce_at(row: dict, piv: dict, c: int) -> None:
    """In place, row := ((p/g) row - (a/g) piv) / content, a = row[c],
    p = piv[c], g = gcd(a, p): zero at c, and proportional to
    row - (a/p) piv."""
    a, p = row[c], piv[c]
    g = math.gcd(a, p)
    s, t = p // g, a // g
    if s != 1:
        for j in row:
            row[j] *= s
    for j, v in piv.items():
        nv = row.get(j, 0) - t * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
