"""Exact linear algebra on integers.

Dense routines operate on lists of rows and are meant for matrices up to
a few dozen rows (adjoint matrices, Gram matrices, gradient stacks).  The
sparse kernel routine handles the larger graded systems that appear when
solving for invariant polynomials; rows there are dicts mapping column
index to coefficient.

Pivot choices are deterministic so that every derived basis is reproducible.

Every routine takes ints only: rank and _echelon raise TypeError on any
other entry, read in one type pass (a caller clears a rational row first;
a positive scale of a row changes no rank, span or kernel).  Every
elimination is fraction-free: integer row operations, each result divided
by its content, and Bareiss's exact divisions for det.  kernel,
sparse_kernel, independent_subset, solve and inverse read one reduced
echelon form (_echelon), so each returns the canonical answer of rational
elimination as integer numerators over one positive denominator.  inverse
is the package's only matrix inverse (the Gram inverse, the chart frame).
"""

from __future__ import annotations

import math
from itertools import chain

_INT = {int}


def _ints_only(values) -> None:
    if not {*map(type, values)} <= _INT:     # no bool, read at C level
        raise TypeError("linalg takes int entries only")


def transpose(m: list) -> list:
    return [list(col) for col in zip(*m)]


def rank(mat: list) -> int:
    """Exact rank of a matrix of ints by fraction-free elimination.

    Each step takes the last remaining row as pivot row, at its first
    nonzero column c, and replaces every other row r with a nonzero at c by
    (p/g) r - (r_c/g) pivot, g = gcd(p, r_c), divided by its content.  These
    operations keep the row space over Q, so the number of steps is the
    rank.
    """
    _ints_only(chain.from_iterable(mat))
    rows = [row for row in mat if any(row)]
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


def kernel(mat: list, ncols: int | None = None) -> tuple:
    """The canonical basis of the right kernel of the dense mat (rows =
    equations) as sparse_kernel returns it, (basis, den); ncols defaults to
    the length of the first row."""
    n = ncols if ncols is not None else (len(mat[0]) if mat else 0)
    return sparse_kernel([dict(enumerate(row)) for row in mat], n)


def inverse(mat: list) -> tuple:
    """The inverse of an integer matrix as (rows, den): row pc is pivot row
    q of the reduced echelon form of [mat | I] at the columns of I over
    q[pc], and den the LCM of the pivots; q is primitive and zero at the
    other columns of mat, so den is the LCM of the reduced denominators of
    the inverse.  ValueError if mat is singular."""
    n = len(mat)
    pivots = _dense_echelon([list(row) + [int(i == j) for j in range(n)]
                             for i, row in enumerate(mat)])
    if sorted(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    den = math.lcm(*(q[pc] for pc, q in pivots.items()))
    return [[q.get(j, 0) * (den // q[pc]) for j in range(n, 2 * n)]
            for pc, q in sorted(pivots.items())], den


def det(mat: list) -> int:
    """The determinant of an integer matrix by fraction-free elimination
    (Bareiss 1968).

    Step k replaces each entry below and right of the pivot by
    (p a_ij - a_ik a_kj) / p_prev, an exact integer division; the last
    pivot is the determinant.  A row swap flips the sign.
    """
    n = len(mat)
    if not n:
        return 1
    rows = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            sel = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if sel is None:
                return 0
            rows[k], rows[sel] = rows[sel], rows[k]
            sign = -sign
        p = rows[k][k]
        for i in range(k + 1, n):
            a = rows[i][k]
            rows[i] = [0] * (k + 1) + [(p * rows[i][j] - a * rows[k][j]) // prev
                                       for j in range(k + 1, n)]
        prev = p
    return sign * rows[n - 1][n - 1]


def solve(mat: list, rhs: list) -> tuple:
    """One exact solution of mat*x = rhs, 0 on the free variables, as a
    canonical cleared vector: x[pc] = q[n] / q[pc] for each pivot row q of
    the reduced echelon form of [mat | rhs], over the LCM of the pivots.
    Raises ValueError if the system is inconsistent."""
    n = len(mat[0])
    pivots = _dense_echelon([list(row) + [b] for row, b in zip(mat, rhs)])
    if n in pivots:
        raise ValueError("inconsistent linear system")
    den = math.lcm(*(q[pc] for pc, q in pivots.items()))
    x = [0] * n
    for pc, q in pivots.items():
        if n in q:
            x[pc] = q[n] * (den // q[pc])
    g = math.gcd(den, *x)
    return tuple(v // g for v in x), den // g


def independent_subset(vectors: list) -> list:
    """Indices of the vectors kept by a left-to-right greedy independence scan.

    Vector i is kept exactly when it is outside the span of vectors 0..i-1,
    which makes the kept indices the pivot columns of the reduced echelon
    form of the matrix whose columns are the vectors.
    """
    return sorted(_dense_echelon(transpose(vectors)))


def same_span(a: list, b: list) -> bool:
    """Whether a and b span the same space, on integers: each pivot row of
    _echelon is primitive and fixed up to sign by the span, so the echelon
    forms agree, once every pivot is made positive, exactly when the
    reduced echelon bases of the two spans do."""
    return _signed_echelon(a) == _signed_echelon(b)


def _signed_echelon(vectors: list) -> dict:
    return {pc: q if q[pc] > 0 else {j: -c for j, c in q.items()}
            for pc, q in _dense_echelon(vectors).items()}


def _dense_echelon(mat: list) -> dict:
    return _echelon([dict(enumerate(row)) for row in mat])


def sparse_kernel(rows: list, ncols: int) -> tuple:
    """Right kernel of sparse rows (dicts col -> int; zero entries are
    ignored), on integers: (basis, den), basis[i] holding the
    integer numerators over the one positive denominator den of the i-th
    vector of the canonical basis, which has a 1 on its free column, zeros
    on the other free columns and -q[free] / q[pc] on the pivot column pc of
    each pivot row q of _echelon.  den is the LCM of the pivots |q[pc]|.
    The rows are taken over, not copied: _echelon reduces them in place."""
    pivots = _echelon(rows)
    den = 1
    for pc, q in pivots.items():
        den = math.lcm(den, q[pc])
    basis = {free: [0] * ncols for free in range(ncols) if free not in pivots}
    for free, v in basis.items():
        v[free] = den
    for pc, q in pivots.items():
        m = den // q[pc]
        for j, c in q.items():
            if j in basis:
                basis[j][pc] = -c * m
    return list(basis.values()), den


def _echelon(rows: list) -> dict:
    """The reduced echelon form of sparse rows (dicts col -> int; zero
    entries are ignored), as {pivot column: pivot row}: each pivot row a
    primitive integer row, zero at every other pivot column and
    proportional to the row of the rational reduced echelon form.

    Rows are taken with the highest lowest column first, then sparsest
    first, then in input order: a new pivot then mostly sits below the
    columns of the earlier pivot rows, so few of them need clearing.  Each
    row is reduced against the pivot rows at the pivot columns it holds;
    its lowest column c0 becomes a pivot and is cleared from the earlier
    pivot rows that hold it, found through a column index rather than a
    scan.  So every pivot row is zero at every other pivot column.  Each
    reduction is one integer row operation (_reduce_at), and the content is
    divided out (_primitive) only where a row becomes a pivot and where a
    pivot row is reduced: every pivot row is primitive and proportional to
    the row that rational elimination holds at the same step, so it is
    fixed up to sign by the row space, and sparse_kernel's (basis, den) by
    the rows in any order.

    The row order sets only the cost.  A reduced row is zero at every pivot
    column, so its lowest column is a new leading column of the row space;
    the pivots end as the leading columns of the row space in any order.

    The rows are the caller's fresh dicts, taken over and reduced in place;
    zero entries are deleted first.  A row that reduces to zero is released
    (set to None in the list), so the elimination holds only the rows still
    to come and the pivot rows.
    """
    values = [*chain.from_iterable(map(dict.values, rows))]
    _ints_only(values)
    if 0 in values:
        for row in rows:
            for j in [j for j, c in row.items() if not c]:
                del row[j]
    del values      # not held through the elimination
    order = sorted((-min(row), len(row), idx) for idx, row in enumerate(rows) if row)
    pivots: dict[int, dict] = {}
    holders: dict[int, set] = {}    # column -> pivots whose rows are nonzero there
    for _, _, idx in order:
        row = rows[idx]
        # a reduction adds only columns of a pivot row, which hold no other
        # pivot, so the pivot columns of the row are those it starts with
        for c in sorted(row.keys() & pivots.keys()):
            _reduce_at(row, pivots[c], c)
        if not row:
            rows[idx] = None    # released: most rows of a graded system end here
            continue
        _primitive(row)     # the content is divided out once, as the row becomes a pivot
        c0 = min(row)
        for pc in holders.pop(c0, ()):
            prow = pivots[pc]
            _reduce_at(prow, row, c0)
            _primitive(prow)
            # the reduction changes prow only at the columns of row
            for j in row:
                if j in prow:
                    holders.setdefault(j, set()).add(pc)
                elif j in holders:
                    holders[j].discard(pc)
        pivots[c0] = row
        for j in row:
            holders.setdefault(j, set()).add(c0)
    return pivots


def _reduce_at(row: dict, piv: dict, c: int) -> None:
    """In place, row := (p/g) row - (a/g) piv, a = row[c], p = piv[c],
    g = gcd(a, p): zero at c, and (p/g) (row - (a/p) piv).  A pivot entry
    of 1 needs neither g nor the scaling.  The content stays: a row that
    reduces to zero never needs it divided out, and _echelon divides it out
    of a row that becomes or stays a pivot (_primitive).  Divided out
    later, it leaves the same primitive row, since every later step scales
    the result by a positive factor only."""
    a, p = row[c], piv[c]
    if p == 1:
        t = a
    else:
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


def _primitive(row: dict) -> None:
    """In place, row := row / content."""
    g = math.gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
