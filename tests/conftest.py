import hashlib
import json
import math
import random
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from mfhess import linalg
from mfhess.rootdata import (CartanMatrix, _layer_dims, build_root_system,
                             cartan_matrix_for_label, dual_partition)
from mfhess.liealgebra import (DecompositionFailure, _ConstantResolver, chevalley_algebra,
                               exp_ad_nilpotent, principal_triple, principal_decomposition)
from mfhess import invariants
from mfhess.polyring import GradientContext, Poly, coefficient_rows
from mfhess.rational import R0, R1, clear, cleared, over, rat, rat_str, reduced, to_rat
from mfhess.invariants import _degree_combinations, invariant_generators
from mfhess.argshift import (NotInvertible, ShiftFamily, choose_regular_y, root_values,
                             shift_family)
from mfhess.hessenberg import build_chart, point_in_hess
from mfhess.symplectic import NotStronglyRegular, TangentFrame, TransversalityResult

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
        self.inv = invariant_generators(self.L)
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
    # for the root data, the algebra and the Gram inverse only
    "F4": [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "E6": [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
           [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]],
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


# -- routes that no run of the package reaches, kept for the tests alone:
# rational helpers that build inputs, and one reference per concept, the
# most direct definition at hand (tests/test_conftest.py fails on a name
# here that no test reaches)


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def dot(u, v):
    s = R0
    for a, b in zip(u, v):
        if a and b:
            s = s + a * b
    return s


def mat_vec(m, v):
    return [dot(row, v) for row in m]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def identity(n):
    return [[R1 if i == j else R0 for j in range(n)] for i in range(n)]


def vec_scale(u, c):
    return [c * a for a in u]


def degrees_and_layers(rs):
    """(degrees, exponents, layers) rederived from the stored root heights."""
    layers = _layer_dims(rs.rank, rs.heights, rs.coxeter_number)
    degrees = tuple(sorted(dual_partition(layers)))
    exponents = tuple(d - 1 for d in degrees)
    return degrees, exponents, layers


def ut_action(L, triple, t, v):
    """exp((t/2) ad f) applied to the rational vector v, as rationals."""
    z = vec_scale(over(*triple.f), to_rat(t) / 2)
    return over(*exp_ad_nilpotent(L, cleared(z), cleared(v)))


def is_strongly_regular(F, x):
    """True when the b gradients at the rational point x are independent."""
    return linalg.rank(F.gradient_rows(cleared(x))[0]) == F.b


_HELD = {}


def held(kind, obj, make):
    """make(obj), once per object and kind for the session; obj is held
    with the result, so its id is not reused."""
    if (kind, id(obj)) not in _HELD:
        _HELD[kind, id(obj)] = obj, make(obj)
    return _HELD[kind, id(obj)][1]


def reference_gram_inverse(ctx):
    """The Gram inverse in Fractions, once per context; it is symmetric, and
    row k is the dual vector u_k, (u_k, x) = x_k."""
    return held("gram inverse", ctx, lambda ctx: reference_inverse(ctx.gram))


def reference_inverse(mat):
    """linalg.inverse in Fractions: the right half of the rational RREF of
    [mat | I]; ValueError unless the pivots are 0..n-1."""
    n = len(mat)
    rows, pivots = reference_rref([list(row) + [int(i == j) for j in range(n)]
                                   for i, row in enumerate(mat)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def clear_rows(mat):
    """A rational matrix as (scale, rows): scale the LCM of its denominators,
    rows[i] the pairs (j, scale * mat[i][j]) with mat[i][j] != 0."""
    scale = math.lcm(1, *(to_rat(c).denominator for row in mat for c in row))
    return scale, [tuple((j, int(c * scale)) for j, c in enumerate(row) if c) for row in mat]


def linear_functional(ctx, z):
    """The polynomial x -> (z, x)."""
    return Poly.linear(mat_vec(ctx.gram, [to_rat(c) for c in z]))


def point_from_s(chart, svals):
    """The chart point e1 + sum_g s_g frame_g for rational s values, as the
    canonical cleared point that the pointwise layer reads."""
    return chart.point_from_cleared(*clear([to_rat(c) for c in svals]))


@pytest.fixture(scope="session")
def helpers():
    return SimpleNamespace(vec_add=vec_add, vec_scale=vec_scale, dot=dot, mat_vec=mat_vec,
                           mat_mul=mat_mul, identity=identity,
                           bracket=reference_lie_bracket, killing_pair=reference_killing_pair,
                           degrees_and_layers=degrees_and_layers, ut_action=ut_action,
                           is_strongly_regular=is_strongly_regular,
                           linear_functional=linear_functional, point_from_s=point_from_s,
                           inverse=reference_inverse, gram_inverse=reference_gram_inverse,
                           clear_rows=clear_rows)


def reference_poisson_bracket(ctx, p, q):
    """The Poly-product bracket: sum over i < j of (dp_i dq_j - dp_j dq_i)
    times the linear Poly {x_i, x_j}, with every product in Poly.__mul__."""
    n = ctx.nvars
    duals = reference_gram_inverse(ctx)
    dp = [p.partial(k) for k in range(n)]
    dq = [q.partial(k) for k in range(n)]
    out = Poly.zero(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = reference_lie_bracket(ctx.L, duals[i], duals[j])
            if not any(v):
                continue
            a = dp[i] * dq[j] - dp[j] * dq[i]
            if not a.is_zero():
                out = out + a * Poly.linear(mat_vec(ctx.gram, v))
    return out


def assert_canonical_poly(p):
    """p holds integer numerators over one positive denominator, in the one
    canonical form: nonzero int numerators, den >= 1, gcd(den, *nums) == 1,
    and den 1 for the zero polynomial."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.nums.values())
    assert all(len(e) == p.n for e in p.nums)
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1


@pytest.fixture(scope="session")
def canonical():
    return assert_canonical_poly


def reference_terms(terms):
    """A coefficient dict as the Fraction route held it: every coefficient
    made a rational by to_rat and the zeros dropped."""
    return {e: to_rat(c) for e, c in terms.items() if c}


def reference_unpack(n, width, acc, scale):
    """_unpack in Fractions: packed exponent -> int over scale,
    one rational per nonzero term."""
    mask = (1 << width) - 1
    shifts = [width * (n - 1 - k) for k in range(n)]
    return {tuple((e >> s) & mask for s in shifts): rat(c, scale)
            for e, c in acc.items() if c}


def reference_payload(p):
    """Poly.to_payload in Fractions: the rat_str of every
    rational coefficient, in (degree, exponent) order."""
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return [[list(e), rat_str(c)] for e, c in items]


def reference_from_payload(n, payload):
    """Poly.from_payload by its definition: each exponent vector n
    nonnegative ints, named once, and each coefficient read by to_rat."""
    for e, _ in payload:
        if len(e) != n or not {*map(type, e)} <= {int} or min(e, default=0) < 0:
            raise ValueError(f"exponent vector {list(e)} is not {n} nonnegative ints")
    terms = {tuple(e): to_rat(c) for e, c in payload}
    if len(terms) != len(payload):
        raise ValueError("the payload names an exponent vector twice")
    return Poly(n, terms)


@pytest.fixture(scope="session")
def reference_poly():
    """The Fraction route of the Poly representation: its terms, _unpack,
    to_payload and from_payload."""
    return SimpleNamespace(terms=reference_terms, unpack=reference_unpack,
                           payload=reference_payload, from_payload=reference_from_payload)


def reference_pair_table(ctx):
    """GradientContext.pair_table in Fractions: the duals as
    columns of the rational Gram inverse, their brackets by the Fraction
    bracket, lowered by the rational Killing matrix and cleared by
    clear_rows."""
    duals = reference_gram_inverse(ctx)
    pairs, lins = [], []
    for i in range(ctx.nvars):
        for j in range(i + 1, ctx.nvars):
            v = reference_lie_bracket(ctx.L, duals[i], duals[j])
            if any(v):
                pairs.append((i, j))
                lins.append(mat_vec(ctx.gram, v))
    scale, ints = clear_rows(lins)
    rows = [[] for _ in range(ctx.nvars)]
    for (i, j), lin in zip(pairs, ints):
        rows[i].append((j, lin))
        rows[j].append((i, tuple((k, -c) for k, c in lin)))
    return scale, rows


@pytest.fixture(scope="session")
def reference_pairs():
    return reference_pair_table


def reference_hess_section(chart, cvals):
    """hess_section in rationals: each step evaluates the restricted
    generator at the coordinates solved so far (Poly.evaluate, the later
    ones still 0) and subtracts."""
    cvals = [to_rat(c) for c in cvals]
    svals = [R0] * chart.b
    for bi in range(chart.b):
        svals[bi] = cvals[bi] - chart.restricted[bi].evaluate(svals)
    return point_from_s(chart, svals)


@pytest.fixture(scope="session")
def reference_section():
    return reference_hess_section


def reference_zeta_apply(L, triple, y, v):
    """zeta(v) = -(ad y)^{-1} [e, v] for v in the upper Borel subalgebra, in
    Fractions."""
    vals = root_values(L, y)
    if not all(vals):
        raise NotInvertible("ad y is singular on the nilradical")
    img = reference_lie_bracket(L, over(*triple.e), v)
    if not L.supported_in(img, L.n_indices):
        raise ValueError("zeta is defined on the upper Borel subalgebra only")
    out = L.zero()
    for i_pos, idx in enumerate(L.pos_indices):
        if img[idx]:
            out[idx] = -img[idx] / vals[i_pos]
    return out


def reference_zeta_chain(F):
    """zeta_chain in Fractions: the family's gradient rows at e
    divided back to rationals, each relation tested by the Fraction bracket
    and reference_zeta_apply; the chains as rational vectors."""
    L, triple, y = F.L, F.triple, over(*F.y)
    if not all(root_values(L, y)):
        raise NotInvertible("ad y is singular on the nilradical")
    rows, den = F.gradient_rows(triple.e)
    coeff = {(q.j, q.k): over(row, den) for q, row in zip(F.entries, rows)}
    chains = []
    for q in sorted((q for q in F.entries if q.k == 0), key=lambda q: q.j):
        j, d = q.j, q.m
        if q.poly.degree() > d:
            raise ValueError("gradient expansion has unexpected high-order terms")
        vecs = [coeff[(j, d - 1 - i)] for i in range(d)]
        if any(reference_lie_bracket(L, y, vecs[0])):
            raise ValueError(f"[y, v_0] != 0 for invariant {j}")
        if any(reference_lie_bracket(L, over(*triple.e), vecs[d - 1])):
            raise ValueError(f"[e, v_(d-1)] != 0 for invariant {j}")
        for i in range(d):
            if not L.supported_in(vecs[i], L.layer_indices(i)):
                raise ValueError(f"v_{i}(I_{j}) is not homogeneous of weight 2*{i}")
            nxt = reference_zeta_apply(L, triple, y, vecs[i])
            want = vecs[i + 1] if i + 1 < d else [R0] * L.dim
            if nxt != want:
                raise ValueError(f"zeta(v_{i}) != v_{i + 1} for invariant {j}")
        chains.append(vecs)
    return chains


def reference_mv_membership(ctx, triple, members, sample_count, seed, coeff_bound):
    """mv_membership with every candidate drawn first: all of them built
    up front as rational vectors (w, e, e1, w + f, then the random ones),
    then tested in turn; the witness as a rational vector."""
    L = ctx.L
    b = L.rank + L.n
    rng = random.Random(f"{seed}:mv-membership")
    w, e, f, e1 = (over(*v) for v in (triple.w, triple.e, triple.f, triple.e1))
    candidates = [w, e, e1, vec_add(w, f)]
    for _ in range(sample_count):
        candidates.append([rat(rng.randint(-coeff_bound, coeff_bound), rng.randint(1, 3))
                           for _ in range(L.dim)])
    for x in candidates:
        if linalg.rank(members.int_gradients(ctx, cleared(x))[0]) == b:
            return True, x
    return False, None


def reference_poincare_series(rs, order):
    """poincare_series in Fractions: both product forms multiplied
    out as Fraction series, which must agree."""
    def mul(a, b):
        out = [R0] * (order + 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b[:order + 1 - i]):
                out[i + j] = out[i + j] + ai * bj
        return out

    def geometric(k):
        return [R1 if i % k == 0 else R0 for i in range(order + 1)]

    f1 = f2 = [R1] + [R0] * order
    for d in rs.degrees:
        for i in range(1, d + 1):
            f1 = mul(f1, geometric(i))
    for m, r in enumerate(rs.layer_dims, start=1):
        for _ in range(r):
            f2 = mul(f2, geometric(m))
    assert f1 == f2
    return f1


@pytest.fixture(scope="session")
def reference_poincare():
    return reference_poincare_series


@pytest.fixture(scope="session")
def reference_membership():
    return reference_mv_membership


@pytest.fixture(scope="session")
def reference_zeta():
    return SimpleNamespace(apply=reference_zeta_apply, chain=reference_zeta_chain)


# exponent defects for a Poly payload: a term appended with a bad vector,
# or every exponent of one term (all 0 or 1) given as another JSON type
MALFORMED_EXPONENTS = ([-1, 0, 0, 0, 0, 0, 0, 3], [2], float, bool, str)
MALFORMED_IDS = ("negative", "short", "float", "bool", "string")


def malform_exponents(payload, defect):
    """Plant one of MALFORMED_EXPONENTS in a Poly payload, in place."""
    if isinstance(defect, list):
        payload.append([defect, "1"])
    else:
        term = next(t for t in payload if max(t[0]) <= 1)
        term[0] = [defect(x) for x in term[0]]


@pytest.fixture(params=MALFORMED_EXPONENTS, ids=MALFORMED_IDS)
def malformed_exponents(request):
    """A function planting this parameter's exponent defect in a Poly payload."""
    return lambda payload: malform_exponents(payload, request.param)


@pytest.fixture(scope="session")
def reference_bracket():
    return reference_poisson_bracket


def reference_pairwise_sweep(F, bracket=reference_poisson_bracket):
    """The sweep over all pairs i < j with i outer, one bracket(ctx, q_i, q_j)
    call per pair: (True, number of pairs) or (False, (i, j, bracket)) for
    the first nonzero pair."""
    qs = F.qs
    count = 0
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            br = bracket(F.ctx, qs[i], qs[j])
            if not br.is_zero():
                return False, (i, j, br)
            count += 1
    return True, count


@pytest.fixture(scope="session")
def reference_pairwise():
    return reference_pairwise_sweep


def reference_directional_derivative(p, y):
    """d_y p = sum_k y_k dp/dx_k, by Poly partials, scale and addition."""
    out = Poly.zero(p.n)
    for k, yk in enumerate(y):
        if yk:
            out = out + p.partial(k).scale(yk)
    return out


def reference_shifted_pieces(inv, u):
    """All pieces (j, k, (1/k!) d_u^k I_j) for 0 <= k < d_j, by iterated
    Poly directional derivatives."""
    u = [to_rat(c) for c in u]
    out = []
    for j, (p, d) in enumerate(zip(inv.polys, inv.degrees)):
        cur = p
        out.append((j, 0, p))
        for k in range(1, d):
            cur = reference_directional_derivative(cur, u)
            out.append((j, k, cur.scale(rat(1, math.factorial(k)))))
    return out


@pytest.fixture(scope="session")
def reference_shift():
    """The Poly route to the shifted pieces: the directional derivative and
    the pieces it iterates into."""
    return SimpleNamespace(directional=reference_directional_derivative,
                           pieces=reference_shifted_pieces)


def reference_compose_poly(p, subs):
    """p with subs[k] (all over one variable set) substituted for variable k,
    by Poly products: the powers of each subs[k] are tabulated once, every
    term is multiplied out with Poly.__mul__, and the products' terms are
    summed into one coefficient dict."""
    if len(subs) != p.n:
        raise ValueError("substitution list has wrong length")
    m = subs[0].n
    powers = {}

    def power(k, e):
        cache = powers.setdefault(k, [Poly.const(m, 1)])
        while len(cache) <= e:
            cache.append(cache[-1] * subs[k])
        return cache[e]

    out = {}
    for e, c in p.terms.items():
        term = Poly.const(m, c)
        for k, ek in enumerate(e):
            if ek:
                term = term * power(k, ek)
        for f, v in term.terms.items():
            out[f] = out.get(f, R0) + v
    return Poly(m, out)


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


def reference_chart_frame(F):
    """The chart's dual frame by the rational route: the gradients at e1
    divided back to rationals, paired with the lower Borel basis by the
    rational Killing pairing, and the rational pairing matrix inverted."""
    L = F.L
    rows, den = F.gradient_rows(F.triple.e1)
    zvecs = [[rat(v, den) for v in row] for row in rows]
    bminus = [L.basis_vector(i) for i in L.bminus_indices]
    pinv = reference_inverse([[reference_killing_pair(L, z, w) for w in bminus] for z in zvecs])
    frame = []
    for g in range(F.b):
        vec = L.zero()
        for mu, idx in enumerate(L.bminus_indices):
            vec[idx] = pinv[mu][g]
        frame.append(vec)
    return frame


@pytest.fixture(scope="session")
def reference_frame():
    return reference_chart_frame


def reference_polys_values(polys, points):
    """p(x) for each point x and each polynomial p: the sum of c x^e over the
    terms of p, in integers over the point's common denominator.  Each
    polynomial's terms are listed once."""
    def listed(p):
        return max(p.degree(), 0), [(c, sum(e), [(k, ek) for k, ek in enumerate(e) if ek])
                                    for e, c in p.nums.items()]

    tables = [held("terms", p, listed) for p in polys]
    out = []
    for x in points:
        nums, den = clear([to_rat(c) for c in x])
        row = []
        for p, (top, terms) in zip(polys, tables):
            total = 0
            for c, deg, support in terms:
                for k, ek in support:
                    c *= nums[k] ** ek
                total += c * den ** (top - deg)
            row.append(rat(total, p.den * den ** top))
        out.append(row)
    return out


def reference_gradients_from_polys(ctx, polys, points):
    """dp(x) for each point x and each polynomial p: the inverse Gram matrix
    applied to the values at x of p's Poly partials, which are taken once
    per polynomial."""
    n = ctx.nvars
    ginv = [[(k, c) for k, c in enumerate(row) if c] for row in reference_gram_inverse(ctx)]
    partials = [dk for p in polys
                for dk in held("partials", p, lambda p: [p.partial(k) for k in range(p.n)])]
    return [[[sum((c * values[i + k] for k, c in row), R0) for row in ginv]
             for i in range(0, len(values), n)]
            for values in reference_polys_values(partials, points)]


@pytest.fixture(scope="session")
def reference_gradients():
    return reference_gradients_from_polys


@pytest.fixture(scope="session")
def reference_values():
    return reference_polys_values


def reference_zero_weight_monomials(L, d):
    """Every exponent tuple of total degree d (a multiset of d variables),
    filtered to root-lattice weight zero and sorted lexicographically; once
    per algebra and degree."""
    def filtered(L):
        zero = (0,) * L.rank
        out = []
        for combo in combinations_with_replacement(range(L.dim), d):
            if not combo or tuple(map(sum, zip(*map(L.weights.__getitem__, combo)))) == zero:
                e = [0] * L.dim
                for k in combo:
                    e[k] += 1
                out.append(tuple(e))
        return sorted(out)

    return held(("zero weight", d), L, filtered)


@pytest.fixture(scope="session")
def reference_zero_weight():
    return reference_zero_weight_monomials


def reference_sparse_kernel(rows, ncols):
    """The kernel of sparse rows read from the rational RREF of the dense
    matrix: for each free column a vector with 1 there, 0 on the other free
    columns and minus the pivot rows' entries on the pivot columns."""
    rref, pivots = reference_rref([[r.get(j, R0) for j in range(ncols)] for r in rows])
    basis = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [R1 if j == free else R0 for j in range(ncols)]
        for r, p in enumerate(pivots):
            v[p] = -rref[r][free]
        basis.append(v)
    return basis


@pytest.fixture(scope="session")
def reference_kernel():
    return reference_sparse_kernel


def reference_rref(mat):
    """Reduced row echelon form by rational Gaussian elimination; returns
    (rows, pivot column indices).  Pivot rule: leftmost column, first row
    with a nonzero entry."""
    rows = [[to_rat(v) for v in r] for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
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


@pytest.fixture(scope="session")
def reference_echelon():
    return reference_rref


def reference_coordinate_brackets(L, ctx, z):
    """For a fixed z, the linear forms {(z, .), x_k} as sparse integer rows
    [(j, c_j), ...] (None when zero): the rational bracket of z with the dual
    vector u_k, paired through the dense Gram matrix, all scaled by the LCM
    of their denominators."""
    forms = [mat_vec(ctx.gram, reference_lie_bracket(L, z, u))
             for u in reference_gram_inverse(ctx)]
    return [list(row) or None for row in clear_rows(forms)[1]]


def reference_two_sided_vectors(L):
    """The 2l root vectors of the simple roots and of their negatives."""
    simple = [i for i, r in enumerate(L.rs.positive_roots) if sum(r) == 1]
    return ([L.basis_vector(L.pos_indices[i]) for i in simple]
            + [L.basis_vector(L.neg_indices[i]) for i in simple])


def reference_invariant_equations(L, ctx, monos, vectors):
    """Invariance under each of the vectors (all 2l simple root vectors make
    a polynomial invariant), on exponent tuples: one row {column: c} per
    vector and image monomial, the derivation sum_k {(z, .), x_k} d/dx_k of
    each vector applied to each monomial."""
    col = {e: i for i, e in enumerate(monos)}
    equations = []
    for z in vectors:
        forms = reference_coordinate_brackets(L, ctx, z)
        rows = {}
        for e in monos:
            for k, ek in enumerate(e):
                if not ek or forms[k] is None:
                    continue
                for j, c in forms[k]:
                    tgt = list(e)
                    tgt[k] -= 1
                    tgt[j] += 1
                    row = rows.setdefault(tuple(tgt), {})
                    row[col[e]] = row.get(col[e], 0) + ek * c
        equations.extend(rows[t] for t in sorted(rows))
    return equations


@pytest.fixture(scope="session")
def reference_equations():
    """The invariance equations under the 2l simple root vectors, and the
    action forms they are built from."""
    return SimpleNamespace(equations=reference_invariant_equations,
                           forms=reference_coordinate_brackets,
                           vectors=reference_two_sided_vectors)


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
    """Dense Fraction matrix of ad x: column b is the bracket [x, e_b]."""
    cols = [reference_lie_bracket(L, x, L.basis_vector(b)) for b in range(L.dim)]
    return [list(row) for row in zip(*cols)]


def reference_killing_pair(L, x, y):
    """(x, y) summed in Fractions over the rows of L.killing."""
    L.check_vector(x)
    L.check_vector(y)
    ny = [(j, yj) for j, yj in enumerate(y) if yj]
    total = R0
    for i, xi in enumerate(x):
        if xi:
            for j, yj in ny:
                kij = L.killing[i][j]
                if kij:
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
                term = vec_add(term, reference_lie_bracket(
                    L, reference_lie_bracket(L, basis[j], basis[k]), basis[i]))
                term = vec_add(term, reference_lie_bracket(
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


def reference_exp_ad_nilpotent(L, z, v):
    """exp(ad z) v summed in Fractions: each term (ad z)^k v / k! by the
    Fraction bracket, added to the sum as it is made."""
    out = list(v)
    cur = list(v)
    k = 0
    while True:
        k += 1
        cur = reference_lie_bracket(L, z, cur)
        if not any(cur):
            return out
        if k > L.dim + 1:
            raise ValueError("exp(ad z) series did not terminate; z is not ad-nilpotent")
        scale = rat(1, math.factorial(k))
        out = [o + scale * c for o, c in zip(out, cur)]


def reference_symmetrizer(a):
    """The d_i with d_i A[i][j] = d_j A[j][i] in Fractions: each vector of
    the rational kernel of those equations is the d of one component, up to
    a positive scale, and is divided by its least nonzero entry."""
    n = len(a)
    eqs = [{i: rat(a[i][j]), j: rat(-a[j][i])} for i in range(n) for j in range(i + 1, n)
           if a[i][j]]
    d = [R0] * n
    for v in reference_sparse_kernel(eqs, n):
        low = min(c for c in v if c)
        d = [x + c / low for x, c in zip(d, v)]
    return d


class ReferenceResolver(_ConstantResolver):
    """The structure-constant resolver on Fractions: the root norms
    (phi, phi) = sum of c_k c_m d_k A[k][m] over the Fraction symmetrizer,
    and each ratio of norms, coroot coefficients among them, a Fraction."""

    def __init__(self, rs):
        super().__init__(rs)
        a, d = rs.cartan.entries, reference_symmetrizer(rs.cartan.entries)
        self.norm = {r: sum((x * y * d[k] * a[k][m] for k, x in enumerate(r)
                             for m, y in enumerate(r)), R0) for r in self.norm}

    @staticmethod
    def _exact(num, den, what=None):
        return rat(num, den)


def reference_chevalley_table(L):
    """L.table by the Fraction route, keyed a < b: [h_k, e_r] = r(h_k) e_r,
    [e_r, e_-r] the coroot of r, and [e_r, e_s] = N(r, s) e_(r+s), both by
    the ReferenceResolver."""
    a, res = L.rs.cartan.entries, ReferenceResolver(L.rs)
    index = {w: i for i, w in enumerate(L.weights) if any(w)}
    table = {}

    def put(i, j, k, v):
        if v:
            table.setdefault((min(i, j), max(i, j)), {})[k] = v if i < j else -v

    for r, i in index.items():
        for h, hi in enumerate(L.cartan_indices):
            put(hi, i, i, sum(c * a[h][k] for k, c in enumerate(r)))
        for s, j in index.items():
            t = tuple(x + y for x, y in zip(r, s))
            if i < j and not any(t):
                for k, c in enumerate(res.coroot(r)):
                    put(i, j, L.cartan_indices[k], c)
            elif i < j and t in index:
                put(i, j, index[t], res.n(r, s))
    return table


@pytest.fixture(scope="session")
def reference_roots():
    """The Fraction routes of the root data and the structure constants."""
    return SimpleNamespace(symmetrizer=reference_symmetrizer, resolver=ReferenceResolver,
                           table=reference_chevalley_table)


def reference_signature_hash(L):
    """liealgebra.signature_hash computed afresh from L.table."""
    items = [repr(L.rs.cartan.entries), repr(L.rs.positive_roots)]
    for key in sorted(L.table):
        row = L.table[key]
        items.append(f"{key}:" + ",".join(f"{c}={rat_str(v)}" for c, v in sorted(row.items())))
    return hashlib.sha256("|".join(items).encode()).hexdigest()[:16]


@pytest.fixture(scope="session")
def reference_lie():
    """The Fraction Lie layer: bracket, ad, killing_pair, check 2 and the
    exponential series; and the convention hash computed on each call."""
    return SimpleNamespace(bracket=reference_lie_bracket, ad=reference_ad,
                           killing_pair=reference_killing_pair,
                           validate=reference_validate_algebra,
                           exp=reference_exp_ad_nilpotent,
                           signature=reference_signature_hash)


def reference_solve(mat, rhs):
    """linalg.solve in Fractions, read from the rational RREF of [mat | rhs];
    ValueError for a pivot in the last column."""
    n = len(mat[0])
    rows, pivots = reference_rref([list(row) + [b] for row, b in zip(mat, rhs)])
    if n in pivots:
        raise ValueError("inconsistent linear system")
    x = [R0] * n
    for r, p in enumerate(pivots):
        x[p] = rows[r][n]
    return x


def reference_cartan_from_root_values(L, values):
    """cartan_from_root_values in Fractions: alpha_i(w) = sum_j c_j A[j][i]."""
    a = L.rs.cartan.entries
    coeffs = reference_solve([[a[j][i] for j in range(L.rank)] for i in range(L.rank)], values)
    w = [R0] * L.dim
    for idx, c in zip(L.cartan_indices, coeffs):
        w[idx] = c
    return w


def reference_principal_triple(L):
    """principal_triple in Fractions, as rational vectors w, e, f and e1."""
    w = reference_cartan_from_root_values(L, [2] * L.rank)
    simple = [i for i, r in enumerate(L.rs.positive_roots) if sum(r) == 1]
    f = [R1 if i in [L.neg_indices[k] for k in simple] else R0 for i in range(L.dim)]
    cols = [reference_lie_bracket(L, L.basis_vector(L.pos_indices[k]), f) for k in simple]
    e = [R0] * L.dim
    for k, c in zip(simple, reference_solve([list(row) for row in zip(*cols)], w)):
        e[L.pos_indices[k]] = c
    e1 = vec_scale(e, R1 / reference_killing_pair(L, e, f))
    return SimpleNamespace(w=w, e=e, f=f, e1=e1)


def reference_principal_decomposition(L, triple):
    """principal_decomposition in Fractions for a rational triple: the
    S-triple relations (DecompositionFailure with the package's message),
    the rational kernel of ad e, the RREF basis of each of its ad-w layers,
    and the modules and the chains, halved, by the Fraction bracket."""
    def br(x, y):
        return reference_lie_bracket(L, x, y)

    for v, target, name in ((triple.f, -2, "f"), (triple.e, 2, "e")):
        if br(triple.w, v) != vec_scale(v, target):
            raise DecompositionFailure(f"[w, {name}] != {target} {name}")
    if br(triple.e, triple.f) != triple.w:
        raise DecompositionFailure("[e, f] != w")
    ade = reference_ad(L, triple.e)
    ker = reference_sparse_kernel([{j: c for j, c in enumerate(r) if c} for r in ade], L.dim)
    hw = []
    for m in sorted({L.layers[i] for v in ker for i, c in enumerate(v) if c}):
        rows, pivots = reference_rref([[c if L.layers[i] == m else R0 for i, c in enumerate(v)]
                                       for v in ker])
        hw += [(m, v) for v in rows[:len(pivots)]]
    modules, chains = [], []
    for m, v in hw:
        modules.append([v])
        for _ in range(2 * m):
            modules[-1].append(br(triple.f, modules[-1][-1]))
        chains.append([vec_scale(modules[-1][m], rat(1, 2 ** m))])
        for _ in range(m):
            chains[-1].append(vec_scale(br(triple.f, chains[-1][-1]), rat(1, 2)))
    return SimpleNamespace(modules=modules, exponents=tuple(m for m, _ in hw), chains=chains)


@pytest.fixture(scope="session")
def reference_principal():
    """The Fraction routes of the principal triple, its decomposition and the
    solves under them."""
    return SimpleNamespace(triple=reference_principal_triple, solve=reference_solve,
                           decomposition=reference_principal_decomposition,
                           cartan=reference_cartan_from_root_values)


def reference_killing_matrix(L):
    """The trace form tr(ad e_i ad e_j) for every pair: the sum over k of
    the k-th coordinate of [e_i, [e_j, e_k]], by the Fraction bracket."""
    basis = [L.basis_vector(i) for i in range(L.dim)]
    inner = [[reference_lie_bracket(L, basis[j], basis[k]) for k in range(L.dim)]
             for j in range(L.dim)]
    out = [[R0] * L.dim for _ in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            out[i][j] = out[j][i] = sum(
                (reference_lie_bracket(L, basis[i], inner[j][k])[k] for k in range(L.dim)
                 if any(inner[j][k])), R0)
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
    kept = linalg.independent_subset(rows + [clear(v)[0] for v in kernel])
    return [i - len(rows) for i in kept if i >= len(rows)]


@pytest.fixture(scope="session")
def reference_select():
    return reference_selection


@pytest.fixture
def rank_shapes(monkeypatch):
    """The (rows, columns) of every linalg.rank call during one test."""
    shapes = []
    original = linalg.rank

    def counted(mat):
        shapes.append((len(mat), len(mat[0]) if mat else 0))
        return original(mat)

    monkeypatch.setattr(linalg, "rank", counted)
    return shapes


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


def reference_trace_oracle(L):
    """tr(x^k), k = 2..rank+1, by Poly products of the entries of the dense
    matrix x = sum_c x_c M_c over the images M_c of matrix_images_type_A."""
    n, size, images = L.dim, L.rank + 1, invariants.matrix_images_type_A(L)
    x = [[sum((Poly.coordinate(n, c).scale(m[(i, j)]) for c, m in enumerate(images)
               if (i, j) in m), Poly.zero(n)) for j in range(size)] for i in range(size)]
    power, out = x, []
    for _ in range(size - 1):
        power = [[sum((power[i][k] * x[k][j] for k in range(size)), Poly.zero(n))
                  for j in range(size)] for i in range(size)]
        out.append(sum((power[i][i] for i in range(size)), Poly.zero(n)))
    return out


@pytest.fixture(scope="session")
def reference_trace():
    return reference_trace_oracle


def reference_det(mat):
    """Determinant by cofactor expansion along the rows in turn, each minor
    (the last rows on a set of columns) expanded once."""
    n = len(mat)
    minors = {(): R1}

    def minor(cols):
        if cols not in minors:
            r = n - len(cols)
            minors[cols] = sum(((-1) ** i * mat[r][c] * minor(cols[:i] + cols[i + 1:])
                                for i, c in enumerate(cols) if mat[r][c]), R0)
        return minors[cols]

    return minor(tuple(range(n)))


def reference_isotropy_value(F, x):
    """Check 13's witness at x in Fractions: gradients by the Poly partials,
    tangents [x, g] and pairings (z_i, [x, z_j]) summed in Fractions; the
    first nonzero pair as (i, j, value string), or None."""
    L = F.L
    [rows] = reference_gradients_from_polys(F.ctx, F.qs, [x])
    z = [rows[i] for i in F.N_positions]
    t = [reference_lie_bracket(L, x, g) for g in z]
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            val = reference_killing_pair(L, z[i], t[j])
            if val:
                return (i, j, rat_str(val))
    return None


def reference_pairing_det(F, x):
    """Check 15's witness at x in Fractions: the determinant of the pairings
    (g, [x, e_i]) of the derived generators' gradients with the slice
    tangents, by cofactor expansion."""
    L = F.L
    [rows] = reference_gradients_from_polys(F.ctx, F.qs, [x])
    tangents = [reference_lie_bracket(L, x, L.basis_vector(i)) for i in L.nminus_indices]
    return rat_str(reference_det([[reference_killing_pair(L, rows[i], t) for t in tangents]
                                  for i in F.N_positions]))


@pytest.fixture(scope="session")
def reference_witness():
    """The Fraction computations of check 13's value and check 15's det."""
    return SimpleNamespace(isotropy=reference_isotropy_value, pairing_det=reference_pairing_det,
                           det=reference_det)


def reference_transversality_check(F, chart, x):
    """Check 15 at x with every rank eliminated, and no part of
    symplectic.HessVisit read, as (result, Hamiltonian frame, slice): the
    frame from the family's gradient rows and brackets [x, g], raising as
    zx_frame does, and the slice from the n_- columns of ad x.  orbit_dim is
    rank(ad x) and jacobian_rank is rank(jac), whatever the other results
    are; x is a cleared point."""
    L = F.L
    if not point_in_hess(L, chart.triple, x):
        raise ValueError("transversality is checked at points of the affine slice")
    rows, den = F.gradient_rows(x)
    if linalg.rank(rows) != F.b:
        raise NotStronglyRegular("generator gradients are dependent at this point")
    derived = [rows[i] for i in F.N_positions]
    zx = TangentFrame(preimages=derived, pden=den,
                      tangents=[L.int_bracket(x, (g, den))[0] for g in derived],
                      tden=x[1] * den)
    if zx.dim != L.n:
        raise ValueError("Hamiltonian tangents are dependent at a strongly regular point")
    adx = L.int_ad(x)
    sl = TangentFrame(preimages=[[int(i == j) for j in range(L.dim)] for i in L.nminus_indices],
                      pden=1, tangents=[[row[j] for row in adx[0]] for j in L.nminus_indices],
                      tden=adx[1])
    orbit_dim = linalg.rank(adx[0])
    combined = linalg.rank(zx.tangents + sl.tangents)
    jac = [[L.int_killing_pair((g, den), (t, sl.tden))[0] for t in sl.tangents]
           for g in rows]
    pairing = [jac[i] for i in F.N_positions]
    pdet = reduced(linalg.det(pairing), (den * sl.tden) ** L.n) if sl.dim == L.n else (0, 1)
    jrank = linalg.rank(jac)
    passed = (zx.dim == L.n and sl.dim == L.n
              and combined == 2 * L.n and orbit_dim == 2 * L.n
              and bool(pdet[0]) and jrank == L.n)
    return TransversalityResult(zx_dim=zx.dim, slice_dim=sl.dim,
                                combined_dim=combined, orbit_dim=orbit_dim,
                                pairing_det=pdet, jacobian_rank=jrank, passed=passed), zx, sl


@pytest.fixture(scope="session")
def reference_transversality():
    return reference_transversality_check
