import json
from types import SimpleNamespace

import pytest

from mfhess import linalg
from mfhess.rootdata import CartanMatrix, build_root_system, cartan_matrix_for_label
from mfhess.liealgebra import chevalley_algebra, principal_triple, principal_decomposition
from mfhess.polyring import GradientContext, Poly, coefficient_rows
from mfhess.rational import R0, R1
from mfhess.invariants import _degree_combinations, invariant_generators
from mfhess.argshift import ShiftFamily, choose_regular_y, shift_family
from mfhess.hessenberg import build_chart

SEED = 42

_BUNDLES = {}


class Bundle:
    """Everything built for one type: a label or an inline JSON Cartan matrix."""

    def __init__(self, label):
        self.label = label
        rows = json.loads(label) if label.startswith("[") else cartan_matrix_for_label(label)
        self.rs = build_root_system(CartanMatrix.from_rows(rows))
        self.L = chevalley_algebra(self.rs)
        self.ctx = GradientContext(self.L)
        self.triple = principal_triple(self.L)
        self.decomp = principal_decomposition(self.L, self.triple)
        self.inv = invariant_generators(self.L, self.ctx)
        self.y = choose_regular_y(self.L, SEED)
        self.family = shift_family(self.L, self.inv, self.y, self.ctx, self.triple)
        self.chart = build_chart(self.family)


def get_bundle(label):
    if label not in _BUNDLES:
        _BUNDLES[label] = Bundle(label)
    return _BUNDLES[label]


@pytest.fixture(scope="session")
def bundles():
    return get_bundle


# rank-3 and rank-4 types that have no label, as inline Cartan matrices
INLINE_CARTAN = {
    "B3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "C3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
}

_ALGEBRAS = {}


def algebra_for(label):
    """The Chevalley algebra of a label or of an INLINE_CARTAN type, built
    once per session; nothing else (no invariant solve)."""
    if label not in _ALGEBRAS:
        rows = INLINE_CARTAN.get(label) or cartan_matrix_for_label(label)
        _ALGEBRAS[label] = chevalley_algebra(build_root_system(CartanMatrix.from_rows(rows)))
    return _ALGEBRAS[label]


@pytest.fixture(scope="session")
def algebras():
    return algebra_for


def reference_poisson_bracket(ctx, p, q):
    """The Poly-product bracket: sum over i < j of (dp_i dq_j - dp_j dq_i)
    times the linear Poly {x_i, x_j}, with every product in Poly.__mul__."""
    n = ctx.nvars
    duals = [ctx.dual_vector(k) for k in range(n)]
    dp = [p.partial(k) for k in range(n)]
    dq = [q.partial(k) for k in range(n)]
    out = Poly.zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = ctx.L.bracket(duals[i], duals[j])
            if not any(v):
                continue
            a = dp[i] * dq[j] - dp[j] * dq[i]
            if not a.is_zero():
                out = out + a * Poly.linear(linalg.mat_vec(ctx.gram, v))
    return out


@pytest.fixture(scope="session")
def reference_bracket():
    return reference_poisson_bracket


def reference_compose_poly(p, subs):
    """p with subs[k] (all over one variable set) substituted for variable k,
    by Poly products: the powers of each subs[k] are tabulated once and
    every term is multiplied out with Poly.__mul__."""
    if len(subs) != p.n:
        raise ValueError("substitution list has wrong length")
    m = subs[0].n
    powers = {}

    def power(k, e):
        cache = powers.setdefault(k, [Poly.const(m, 1)])
        while len(cache) <= e:
            cache.append(cache[-1] * subs[k])
        return cache[e]

    out = Poly.zero(m)
    for e, c in p.terms.items():
        term = Poly.const(m, c)
        for k, ek in enumerate(e):
            if ek:
                term = term * power(k, ek)
        out = out + term
    return out


def affine_substitution(base, directions):
    """The substitution list of s -> base + sum_g s_g directions[g]: for each
    coordinate k, the affine Poly base_k + sum_g directions[g]_k s_g."""
    m = len(directions)
    subs = []
    for k in range(len(base)):
        terms = {tuple([0] * m): base[k]}
        for g, d in enumerate(directions):
            e = [0] * m
            e[g] = 1
            terms[tuple(e)] = d[k]
        subs.append(Poly(m, terms))
    return subs


@pytest.fixture(scope="session")
def reference_compose():
    return reference_compose_poly


@pytest.fixture(scope="session")
def affine_subs():
    return affine_substitution


def reference_gradients_from_polys(ctx, polys, x):
    """dp(x) for each polynomial p through its Poly partials and
    Poly.evaluate: the inverse Gram matrix applied to the partials' values."""
    return [linalg.mat_vec(ctx.gram_inv, [p.partial(k).evaluate(x) for k in range(ctx.nvars)])
            for p in polys]


@pytest.fixture(scope="session")
def reference_gradients():
    return reference_gradients_from_polys


def reference_gradient_polynomials(ctx, p):
    """The coordinates of x -> dp(x) as polynomials: the inverse Gram matrix
    applied to the Poly partials, summed with Poly.__add__ and scale."""
    partials = [p.partial(k) for k in range(ctx.nvars)]
    out = []
    for i in range(ctx.nvars):
        acc = Poly.zero(ctx.nvars)
        for k, coeff in enumerate(ctx.gram_inv[i]):
            if coeff and not partials[k].is_zero():
                acc = acc + partials[k].scale(coeff)
        out.append(acc)
    return out


@pytest.fixture(scope="session")
def reference_gradient_polys():
    return reference_gradient_polynomials


def _append_monomials(out, free, remaining, prefix):
    if not free:
        out.append(tuple(prefix + [remaining]))
        return
    for k in range(remaining + 1):
        _append_monomials(out, free - 1, remaining - k, prefix + [k])


def reference_zero_weight_monomials(L, d):
    """Every exponent tuple of total degree d, filtered to root-lattice
    weight zero and sorted lexicographically."""
    ell = L.rank
    zero = tuple([0] * ell)
    monos = []
    _append_monomials(monos, L.dim - 1, d, [])
    out = []
    for e in monos:
        w = [0] * ell
        for k, p in enumerate(e):
            if p:
                wk = L.weights[k]
                for i in range(ell):
                    w[i] += p * wk[i]
        if tuple(w) == zero:
            out.append(e)
    return sorted(out, key=lambda t: (sum(t), t))


@pytest.fixture(scope="session")
def reference_zero_weight():
    return reference_zero_weight_monomials


def reference_sparse_kernel(rows, ncols):
    """Kernel of sparse rows by rational elimination: rows sparsest first,
    each reduced against the pivot rows, scaled to 1 at its lowest column,
    which is then cleared from the earlier pivot rows; one basis vector per
    free column."""
    work = [dict(r) for r in rows if r]
    pivot_of_col = {}

    def eliminate(row):
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
        v = linalg.zeros(ncols)
        v[free] = R1
        for pc, prow in pivot_of_col.items():
            coeff = prow.get(free)
            if coeff:
                v[pc] = -coeff
        basis.append(v)
    return basis


@pytest.fixture(scope="session")
def reference_kernel():
    return reference_sparse_kernel


def reference_lie_bracket(L, x, y):
    """The Fraction bracket: for each pair of nonzero coordinates i != j the
    table row of (i, j) when i < j, or minus that of (j, i), reading only
    the keys a < b of L.table."""
    L.check_vector(x)
    L.check_vector(y)
    out = [R0] * L.dim
    nx = [(i, v) for i, v in enumerate(x) if v]
    ny = [(j, v) for j, v in enumerate(y) if v]
    for i, xi in nx:
        for j, yj in ny:
            if i == j:
                continue
            if i < j:
                row = L.table.get((i, j))
                sign = 1
            else:
                row = L.table.get((j, i))
                sign = -1
            if row:
                c = xi * yj
                if sign < 0:
                    c = -c
                for k, v in row.items():
                    out[k] = out[k] + c * v
    return out


def reference_ad(L, x):
    """Dense Fraction matrix of ad x in one pass over L.table: [e_a, e_b] =
    row puts x_a row in column b and -x_b row in column a."""
    L.check_vector(x)
    m = [[R0] * L.dim for _ in range(L.dim)]
    for (a, b), row in L.table.items():
        xa, xb = x[a], x[b]
        if xa or xb:
            for k, v in row.items():
                if xa:
                    m[k][b] += xa * v
                if xb:
                    m[k][a] -= xb * v
    return m


def reference_killing_pair(L, x, y):
    """(x, y) summed in Fractions over the rows of L.killing_rows."""
    L.check_vector(x)
    L.check_vector(y)
    total = R0
    for i, xi in enumerate(x):
        if xi:
            for j, kij in L.killing_rows[i]:
                yj = y[j]
                if yj:
                    total = total + xi * yj * kij
    return total


def reference_validate_algebra(L):
    """Antisymmetry, Jacobi and Killing invariance on basis triples by dense
    Fraction brackets and pairings of basis vectors."""
    errs = []
    basis = [L.basis_vector(i) for i in range(L.dim)]
    for i in range(L.dim):
        if any(reference_lie_bracket(L, basis[i], basis[i])):
            errs.append(f"[b{i}, b{i}] != 0")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            xy = reference_lie_bracket(L, basis[i], basis[j])
            yx = reference_lie_bracket(L, basis[j], basis[i])
            if any(a + b for a, b in zip(xy, yx)):
                errs.append(f"antisymmetry fails on ({i},{j})")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            bij = reference_lie_bracket(L, basis[i], basis[j])
            for k in range(j + 1, L.dim):
                term = reference_lie_bracket(L, bij, basis[k])
                term = linalg.vec_add(term, reference_lie_bracket(
                    L, reference_lie_bracket(L, basis[j], basis[k]), basis[i]))
                term = linalg.vec_add(term, reference_lie_bracket(
                    L, reference_lie_bracket(L, basis[k], basis[i]), basis[j]))
                if any(term):
                    errs.append(f"Jacobi fails on ({i},{j},{k})")
                    if len(errs) > 3:
                        return errs
    for i in range(L.dim):
        for j in range(L.dim):
            bij = reference_lie_bracket(L, basis[i], basis[j])
            for k in range(L.dim):
                lhs = (reference_killing_pair(L, bij, basis[k])
                       + reference_killing_pair(L, basis[j],
                                                reference_lie_bracket(L, basis[i], basis[k])))
                if lhs:
                    errs.append(f"Killing invariance fails on ({i},{j},{k})")
                    if len(errs) > 3:
                        return errs
    if linalg.rank(L.killing) != L.dim:
        errs.append("Killing form is degenerate")
    return errs


@pytest.fixture(scope="session")
def reference_lie():
    """The Fraction Lie layer: bracket, ad, killing_pair and check 2."""
    return SimpleNamespace(bracket=reference_lie_bracket, ad=reference_ad,
                           killing_pair=reference_killing_pair,
                           validate=reference_validate_algebra)


def reference_killing_matrix(L):
    """tr(ad e_i ad e_j) for every pair, by dense dot products of the
    Fraction adjoint matrices."""
    ads = [reference_ad(L, L.basis_vector(i)) for i in range(L.dim)]
    out = [[R0] * L.dim for _ in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            tr = R0
            a, b = ads[i], ads[j]
            for r in range(L.dim):
                tr = tr + linalg.dot(a[r], [b[c][r] for c in range(L.dim)])
            out[i][j] = tr
            out[j][i] = tr
    return out


@pytest.fixture(scope="session")
def reference_killing():
    return reference_killing_matrix


def reference_decomposable_products(polys, degrees, d):
    """The products of two or more of the polys of degree below d with total
    degree d, multiplied with Poly.__mul__."""
    lower = [p for p, dd in zip(polys, degrees) if dd < d]
    out = []
    for combo in _degree_combinations([dd for dd in degrees if dd < d], d):
        prod = lower[combo[0]]
        for gi in combo[1:]:
            prod = prod * lower[gi]
        out.append(prod)
    return out


@pytest.fixture(scope="session")
def reference_products():
    return reference_decomposable_products


def reference_selection(kernel, polys, degrees, d, monos):
    """The new generators' kernel indices by one greedy independence scan of
    the full coefficient vectors: the products of the lower generators, then
    the kernel vectors; kept kernel vectors in kernel order."""
    rows = coefficient_rows(reference_decomposable_products(polys, degrees, d), monos)
    kept = linalg.independent_subset(rows + kernel)
    return [i - len(rows) for i in kept if i >= len(rows)]


@pytest.fixture(scope="session")
def reference_select():
    return reference_selection


@pytest.fixture
def gradient_rows_calls(monkeypatch):
    """The points of every ShiftFamily.gradient_rows call during one test."""
    calls = []
    original = ShiftFamily.gradient_rows

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(ShiftFamily, "gradient_rows", counted)
    return calls
