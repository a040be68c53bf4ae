import hashlib
import json
import math
import random
from collections import Counter
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

from mfhess import linalg
from mfhess.rootdata import (CartanMatrix, UnsupportedType, _layer_dims, build_root_system,
                             cartan_matrix_for_label, dual_partition)
from mfhess.liealgebra import (DecompositionFailure, _ConstantResolver, chevalley_algebra,
                               exp_ad_nilpotent, principal_triple, principal_decomposition)
from mfhess import invariants
from mfhess.polyring import (GradientContext, Poly, _mul_packed, _pack, _packing, _power_table,
                             _unpack, coefficient_rows)
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
# rational helpers that build inputs and references, and the rational
# routes that the integer pointwise layer replaced


def factorial_rat(k):
    out = R1
    for i in range(2, k + 1):
        out = out * i
    return out


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


_GRAM_INVERSES = {}


def reference_gram_inverse(ctx):
    """The Gram inverse in Fractions, once per context (held with it); it is
    symmetric, and row k is the dual vector u_k, (u_k, x) = x_k."""
    if id(ctx) not in _GRAM_INVERSES:
        _GRAM_INVERSES[id(ctx)] = ctx, reference_inverse(ctx.gram)
    return _GRAM_INVERSES[id(ctx)][1]


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
    return SimpleNamespace(factorial_rat=factorial_rat, vec_add=vec_add, vec_scale=vec_scale,
                           dot=dot, mat_vec=mat_vec, mat_mul=mat_mul, identity=identity,
                           bracket=reference_lie_bracket, ad=reference_ad,
                           killing_pair=reference_killing_pair,
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
    """_unpack before the integer form: packed exponent -> int over scale,
    one rational per nonzero term."""
    mask = (1 << width) - 1
    shifts = [width * (n - 1 - k) for k in range(n)]
    return {tuple((e >> s) & mask for s in shifts): rat(c, scale)
            for e, c in acc.items() if c}


def reference_payload(p):
    """Poly.to_payload before the integer form: the rat_str of every
    rational coefficient, in (degree, exponent) order."""
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return [[list(e), rat_str(c)] for e, c in items]


def reference_int_payload(p):
    """Poly.to_payload before its fast paths: every polynomial sorted by
    (degree, exponent), and a gcd taken per term whatever den is."""
    out = []
    for e in sorted(p.nums, key=lambda e: (sum(e), e)):
        c = p.nums[e]
        g = math.gcd(c, p.den)
        out.append([list(e), str(c // g) if g == p.den else f"{c // g}/{p.den // g}"])
    return out


def reference_from_payload(n, payload):
    """Poly.from_payload before it parsed strings itself: each exponent
    vector checked on its own, and each distinct coefficient string made a
    rational by to_rat."""
    terms = {}
    parsed = {}
    for e, c in payload:
        e = tuple(e)
        if len(e) != n or not {*map(type, e)} <= {int} or min(e, default=0) < 0:
            raise ValueError(f"exponent vector {list(e)} is not {n} nonnegative ints")
        if type(c) is str:
            r = parsed.get(c)
            if r is None:
                r = to_rat(c)
                r = parsed[c] = (int(r.numerator), int(r.denominator))
        else:
            r = to_rat(c)
            r = (int(r.numerator), int(r.denominator))
        terms[e] = r
    den = 1
    for _, d in terms.values():
        if d != 1:
            den = math.lcm(den, d)
    return Poly.from_ints(n, {e: c * (den // d) for e, (c, d) in terms.items()}, den)


@pytest.fixture(scope="session")
def reference_poly():
    """The Fraction route of the Poly representation (its terms, _unpack and
    to_payload), and the integer payload routes before their fast paths."""
    return SimpleNamespace(terms=reference_terms, unpack=reference_unpack,
                           payload=reference_payload, int_payload=reference_int_payload,
                           from_payload=reference_from_payload)


def reference_pair_table(ctx):
    """GradientContext.pair_table before it ran on integers: the duals as
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
    """hess_section before it ran on integers: each step evaluates the
    restricted generator at the rational coordinates solved so far
    (CompiledPolys.values) and subtracts in rationals."""
    cvals = [to_rat(c) for c in cvals]
    svals = [R0] * chart.b
    for bi in range(chart.b):
        rest = reference_compiled_values(chart.compiled[bi], svals)[0]
        svals[bi] = cvals[bi] - rest
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
    """zeta_chain before it ran on integers: the family's gradient rows at e
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
    """mv_membership before it drew its candidates lazily: all of them built
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
    """poincare_series before it ran on ints: both product forms multiplied
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
            out.append((j, k, cur.scale(R1 / factorial_rat(k))))
    return out


@pytest.fixture(scope="session")
def reference_shift():
    """The Poly route to the shifted pieces: the directional derivative and
    the pieces it iterates into."""
    return SimpleNamespace(directional=reference_directional_derivative,
                           pieces=reference_shifted_pieces)


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


def reference_restrict_affine(polys, base, directions):
    """restrict_affine before constant forms were folded in and monomials
    shared: every term of every polynomial multiplied out over the packed
    power tables of all of its coordinates' integer affine forms, a term
    touching a zero form skipped."""
    polys = list(polys)
    n = len(base)
    base = [to_rat(c) for c in base]
    directions = [[to_rat(c) for c in d] for d in directions]
    m = len(directions)
    top = max([0] + [p.degree() for p in polys])
    unit, width = _packing(m, top)
    den, (brow, *drows) = clear_rows([base] + directions)
    forms = [{} for _ in range(n)]
    for k, c in brow:
        forms[k][0] = c
    for u, drow in zip(unit, drows):
        for k, c in drow:
            forms[k][u] = c
    powers = [[{0: 1}, form] for form in forms]
    dpow = _power_table(den, top)
    out = []
    for p in polys:
        scale = math.lcm(1, *(c.denominator for c in p.terms.values()))
        deg = p.degree()
        acc = {}
        for e, c in p.terms.items():
            term = {0: int(c * scale) * dpow[deg - sum(e)]}
            for k, ek in enumerate(e):
                if not ek:
                    continue
                if not forms[k]:
                    break
                pk = powers[k]
                while len(pk) <= ek:
                    pk.append(_mul_packed(pk[-1], forms[k]))
                term = _mul_packed(term, pk[ek])
            else:
                for te, tc in term.items():
                    acc[te] = acc.get(te, 0) + tc
        out.append(_unpack(m, width, acc, scale * dpow[deg] if deg >= 0 else 1))
    return out


@pytest.fixture(scope="session")
def reference_restrict():
    return reference_restrict_affine


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


def reference_gradients_from_polys(ctx, polys, x):
    """dp(x) for each polynomial p through its Poly partials and
    Poly.evaluate: the inverse Gram matrix applied to the partials' values."""
    return [mat_vec(reference_gram_inverse(ctx),
                    [p.partial(k).evaluate(x) for k in range(ctx.nvars)])
            for p in polys]


@pytest.fixture(scope="session")
def reference_gradients():
    return reference_gradients_from_polys


def _reference_powers(compiled, x):
    """Power tables, up to the top degree of compiled, of the numerators N of
    the point x over its common denominator D and of D itself."""
    if len(x) != compiled.n:
        raise ValueError("point has wrong dimension")
    nums, den = clear([to_rat(c) for c in x])
    tables = []
    for base in nums + [den]:
        row = [1]
        for _ in range(compiled.top):
            row.append(row[-1] * base)
        tables.append(row)
    return tables[:-1], tables[-1]


def reference_compiled_values(compiled, x):
    """p(x) for each polynomial of a CompiledPolys, every factor of every
    term multiplied in, zeros included."""
    pw, dp = _reference_powers(compiled, x)
    whole = compiled.scale * dp[compiled.top]
    out = []
    for terms in compiled.polys:
        acc = 0
        for c, lift, support in terms:
            t = c * dp[lift] if lift else c
            for k, ek in support:
                t *= pw[k][ek]
            acc += t
        out.append(rat(acc, whole) if acc else R0)
    return out


def reference_compiled_int_gradients(compiled, ctx, x):
    """The (rows, den) of CompiledPolys.int_gradients by prefix and suffix
    products: each term's partial along its i-th support coordinate is the
    product of the factors before it, those after it, and the derivative
    e N^(e - 1) of its own power, with no division."""
    pw, dp = _reference_powers(compiled, x)
    dpw = [[e * row[e - 1] if e else 0 for e in range(len(row))] for row in pw]
    ginv_rows, ginv_scale = ctx.gram_inv_int
    out = []
    for terms in compiled.polys:
        part = [0] * compiled.n
        for c, lift, support in terms:
            base = c * dp[lift] if lift else c
            pre = [base]
            for k, ek in support:
                pre.append(pre[-1] * pw[k][ek])
            suf = 1
            for i in range(len(support) - 1, -1, -1):
                k, ek = support[i]
                part[k] += pre[i] * suf * dpw[k][ek]
                suf *= pw[k][ek]
        out.append([sum(g * part[k] for k, g in grow) for grow in ginv_rows])
    return out, ginv_scale * compiled.scale * dp[max(compiled.top - 1, 0)]


@pytest.fixture(scope="session")
def reference_compiled():
    """The compiled kernel before the product-once rewrite: values with every
    factor multiplied in, gradients by prefix and suffix products."""
    return SimpleNamespace(values=reference_compiled_values,
                           int_gradients=reference_compiled_int_gradients)


def reference_gradient_polynomials(ctx, p):
    """The coordinates of x -> dp(x) as polynomials: the inverse Gram matrix
    applied to the Poly partials, summed with Poly.__add__ and scale."""
    partials = [p.partial(k) for k in range(ctx.nvars)]
    out = []
    for i in range(ctx.nvars):
        acc = Poly.zero(ctx.nvars)
        for k, coeff in enumerate(reference_gram_inverse(ctx)[i]):
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


def _append_tuple_zero_weight(out, codes, reach, exps, k, remaining, weight):
    if k == len(exps):
        out.append(tuple(exps))
        return
    after = reach[k + 1]
    for e in range(remaining + 1):
        w = weight + e * codes[k]
        if -w in after[remaining - e]:
            exps[k] = e
            _append_tuple_zero_weight(out, codes, reach, exps, k + 1, remaining - e, w)
    exps[k] = 0


def reference_tuple_zero_weight(L, d):
    """The zero-weight exponent tuples of degree d, in ascending order, from
    the weight-directed recursion over every variable: the reach table that
    invariants._zero_weight_monomials walked before the root-pair join."""
    n = L.dim
    codes = invariants._weight_codes(L, d)
    reach = [None] * (n + 1)
    reach[n] = [{0}] + [set() for _ in range(d)]
    for k in range(n - 1, -1, -1):
        row = [reach[k + 1][0]]
        for r in range(1, d + 1):
            row.append(reach[k + 1][r] | {w + codes[k] for w in row[r - 1]})
        reach[k] = row
    out = []
    if 0 in reach[0][d]:
        _append_tuple_zero_weight(out, codes, reach, [0] * n, 0, d, 0)
    return out


def reference_packed_zero_weight(L, d):
    """The enumeration before it packed as it went: the exponent tuples of
    reference_tuple_zero_weight, each then packed by polyring._pack."""
    unit, _ = _packing(L.dim, d)
    return [_pack(e, unit) for e in reference_tuple_zero_weight(L, d)]


@pytest.fixture(scope="session")
def reference_packed_enumeration():
    return reference_packed_zero_weight


def reference_closing_multisets(L, d):
    """The positive-root multisets that close to a zero-weight monomial of
    degree d, by brute force: every multiset of at most d positive roots,
    kept when its size plus the fewest roots of any multiset of its weight
    is at most d.  As {(weight, size): sorted supports}."""
    by_weight = {}
    for size in range(d + 1):
        for combo in combinations_with_replacement(range(L.n), size):
            weight = tuple(sum(L.weights[k][j] for k in combo) for j in range(L.rank))
            by_weight.setdefault(weight, []).append(combo)
    out = {}
    for weight, combos in by_weight.items():
        fewest = min(len(c) for c in combos)
        for combo in combos:
            if len(combo) + fewest <= d:
                out.setdefault((weight, len(combo)), []).append(
                    tuple(Counter(combo).items()))
    return {key: sorted(v) for key, v in out.items()}


@pytest.fixture(scope="session")
def reference_multisets():
    return reference_closing_multisets


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


def reference_invariant_equations(L, ctx, monos):
    """Invariance under all 2l simple root vectors, on exponent tuples: one
    row {column: c} per vector and image monomial, the derivation
    sum_k {(z, .), x_k} d/dx_k of each vector applied to each monomial."""
    col = {e: i for i, e in enumerate(monos)}
    equations = []
    for z in reference_two_sided_vectors(L):
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


def reference_monomial_derivation(action, packed, support):
    """invariants._derivation before it took a whole monomial list: the
    image of one packed monomial, as the unmerged terms (packed target,
    e_k * c_j)."""
    out = []
    for k, ek in support:
        lin = action[k]
        if lin is not None:
            for delta, cj in lin:
                out.append((packed + delta, ek * cj))
    return out


def reference_packed_equations(tables, monos, unit):
    """invariants._equations with one derivation list per monomial, merged
    into the target rows."""
    equations = []
    for action in tables:
        action = invariants._packed_action(action, unit)
        rows = {}
        for col, (e, support) in enumerate(monos):
            for tgt, c in reference_monomial_derivation(action, e, support):
                row = rows.setdefault(tgt, {})
                row[col] = row.get(col, 0) + c
        equations.extend(rows[tgt] for tgt in sorted(rows))
    return equations


def reference_solver_conditions(L, fam):
    """meets_solver_conditions with the image loop it had: each term's
    derivation list accumulated into one image per raising operator, the
    weight summed over the support, and two dense ranks over the sorted
    columns at every degree."""
    if fam.degrees != L.rs.degrees or len(fam.polys) != len(fam.degrees):
        return False
    if any(not p.is_homogeneous() or p.degree() != d
           for p, d in zip(fam.polys, fam.degrees)):
        return False
    tables = invariants._action_tables(L)
    packed = []
    for p, d in zip(fam.polys, fam.degrees):
        codes = invariants._weight_codes(L, d)
        unit, _ = _packing(L.dim, d)
        terms = [(_pack(e, unit), c) for e, c in p.nums.items()]
        packed.append({e: c for (e, _), c in terms})
        if any(sum(ek * codes[k] for k, ek in support) for (_, support), _ in terms):
            return False
        for action in tables:
            action = invariants._packed_action(action, unit)
            image = {}
            for (e, support), c in terms:
                for tgt, v in reference_monomial_derivation(action, e, support):
                    image[tgt] = image.get(tgt, 0) + c * v
            if any(image.values()):
                return False
    for d in sorted(set(fam.degrees)):
        unit, _ = _packing(L.dim, d)
        rows = [prod for _, prod in invariants._packed_products(fam.polys, fam.degrees, d, unit)]
        ndec = len(rows)
        rows += [terms for terms, dd in zip(packed, fam.degrees) if dd == d]
        cols = sorted({e for row in rows for e in row})
        mat = [[row.get(e, 0) for e in cols] for row in rows]
        if linalg.rank(mat) != linalg.rank(mat[:ndec]) + len(rows) - ndec:
            return False
    return True


@pytest.fixture(scope="session")
def reference_derivation():
    """The per-monomial derivation route: the solver's equations and the
    cache re-check built on it."""
    return SimpleNamespace(equations=reference_packed_equations,
                           conditions=reference_solver_conditions)


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
    """(x, y) summed in Fractions over the rows of L.killing."""
    L.check_vector(x)
    L.check_vector(y)
    total = R0
    for i, xi in enumerate(x):
        if xi:
            for j, kij in enumerate(L.killing[i]):
                yj = y[j]
                if yj and kij:
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
        scale = R1 / factorial_rat(k)
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
    """liealgebra.signature_hash as it was computed on every call."""
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
                           inverse=reference_inverse,
                           decomposition=reference_principal_decomposition,
                           cartan=reference_cartan_from_root_values)


def reference_integer_tables(L):
    """LieAlgebra.int_table and int_killing as dicts: (a, b) -> {c: coefficient}
    for every a != b with a nonzero Fraction bracket [e_a, e_b], and row i
    -> {j: entry} over the nonzero entries of row i of L.killing."""
    basis = [L.basis_vector(i) for i in range(L.dim)]
    table = {}
    for a in range(L.dim):
        for b in range(L.dim):
            row = {c: v for c, v in enumerate(reference_lie_bracket(L, basis[a], basis[b])) if v}
            if row:
                table[(a, b)] = row
    return table, [{j: c for j, c in enumerate(row) if c} for row in L.killing]


@pytest.fixture(scope="session")
def reference_int_tables():
    return reference_integer_tables


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
                tr = tr + dot(a[r], [b[c][r] for c in range(L.dim)])
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
    kept = linalg.independent_subset(rows + [clear(v)[0] for v in kernel])
    return [i - len(rows) for i in kept if i >= len(rows)]


@pytest.fixture(scope="session")
def reference_select():
    return reference_selection


def reference_fraction_kernel(rows, ncols):
    """sparse_kernel before its integer core: the canonical basis as
    rationals, -q[free] / q[pc] formed from each pivot row q of
    linalg._echelon (which takes the rows over)."""
    pivots = linalg._echelon(rows)
    basis = {free: [R0] * ncols for free in range(ncols) if free not in pivots}
    for free, v in basis.items():
        v[free] = R1
    for pc, q in pivots.items():
        for j, c in q.items():
            if j in basis:
                basis[j][pc] = rat(-c, q[pc])
    return list(basis.values())


def reference_fraction_selection(kernel, decomposables, d):
    """_new_kernel_vectors on rational kernel vectors: each kernel vector
    scaled by the LCM of all kernel denominators for the certificate, and
    the greedy scan run on the rational vectors restricted to the free
    columns."""
    free = [max(c for c, v in enumerate(k) if v) for k in kernel]
    m, ints = clear_rows(kernel)
    for dec in decomposables:
        combo = {}
        for f, pairs in zip(free, ints):
            a = dec.get(f)
            if a:
                for c, v in pairs:
                    combo[c] = combo.get(c, 0) + a * v
        if {c: v for c, v in combo.items() if v} != {c: m * v for c, v in dec.items()}:
            raise invariants.WrongDimension(
                f"degree {d}: a product of lower generators is not invariant")
    restricted = ([[rat(dec.get(f, 0)) for f in free] for dec in decomposables]
                  + [[k[f] for f in free] for k in kernel])
    kept = linalg.independent_subset([clear(row)[0] for row in restricted])
    return [i - len(decomposables) for i in kept if i >= len(decomposables)]


def reference_fraction_normalize(vec, monos, nvars):
    """The primitive integer multiple of a rational vector with a positive
    first nonzero entry, by the LCM of its denominators, as a polynomial
    over exponent tuples."""
    ints, _ = clear(vec)
    g = math.gcd(*ints)
    if g:
        ints = [c // g for c in ints]
    if next((c for c in ints if c), 0) < 0:
        ints = [-c for c in ints]
    return Poly(nvars, {m: rat(c) for m, c in zip(monos, ints) if c})


def reference_generator_route(L):
    """The invariant solve's generators by the rational route it took before
    it passed integers along: tuple enumeration then packing, the rational
    kernel, the rational selection and normalization by LCM."""
    degrees = L.rs.degrees
    tables = invariants._action_tables(L)
    generators, gen_degrees = [], []
    for d in sorted(set(degrees)):
        mult = sum(1 for x in degrees if x == d)
        monos = reference_tuple_zero_weight(L, d)
        unit, _ = _packing(L.dim, d)
        packed = [_pack(e, unit) for e in monos]
        kernel = reference_fraction_kernel(invariants._equations(tables, packed, unit),
                                           len(packed))
        columns = {e: col for col, (e, _) in enumerate(packed)}
        decomposables = [{columns[e]: c for e, c in prod.items() if c} for _, prod in
                         invariants._packed_products(generators, gen_degrees, d, unit)]
        for i in reference_fraction_selection(kernel, decomposables, d)[:mult]:
            generators.append(reference_fraction_normalize(kernel[i], monos, L.dim))
            gen_degrees.append(d)
    return generators


@pytest.fixture(scope="session")
def reference_generators():
    """The rational kernel, selection and normalization of the invariant
    solve, and the whole solve along them."""
    return SimpleNamespace(kernel=reference_fraction_kernel,
                           select=reference_fraction_selection,
                           normalize=reference_fraction_normalize,
                           solve=reference_generator_route)


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


def _dense_zero(n):
    return [[R0] * n for _ in range(n)]


def _dense_bracket(a, b):
    n = len(a)
    ab = [[sum((a[i][k] * b[k][j] for k in range(n)), R0) for j in range(n)] for i in range(n)]
    ba = [[sum((b[i][k] * a[k][j] for k in range(n)), R0) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def reference_matrix_images_type_A(L):
    """Dense Fraction matrix image of every basis vector, with dense
    products for every basis pair of the homomorphism check.

    Simple generators go to the elementary matrices; the image of every other
    root vector is forced by the brackets already stored in the table.
    """
    rs = L.rs
    ell = rs.rank
    size = ell + 1
    images: list = [None] * L.dim
    pos_of = {r: i for i, r in enumerate(rs.positive_roots)}
    for i, r in enumerate(rs.positive_roots):
        if sum(r) == 1:
            k = r.index(1)
            ep = _dense_zero(size)
            ep[k][k + 1] = R1
            em = _dense_zero(size)
            em[k + 1][k] = R1
            images[L.pos_indices[i]] = ep
            images[L.neg_indices[i]] = em
    for k in range(ell):
        h = _dense_zero(size)
        h[k][k] = R1
        h[k + 1][k + 1] = -R1
        images[L.cartan_indices[k]] = h
    for i, r in enumerate(sorted(rs.positive_roots, key=lambda c: (sum(c), c))):
        if sum(r) == 1:
            continue
        ridx = pos_of[r]
        si = next(k for k, c in enumerate(r) if c and
                  tuple(c2 - (1 if k2 == k else 0) for k2, c2 in enumerate(r)) in pos_of)
        rest = tuple(c2 - (1 if k2 == si else 0) for k2, c2 in enumerate(r))
        simple = pos_of[tuple(1 if k2 == si else 0 for k2 in range(ell))]
        for block in (L.pos_indices, L.neg_indices):
            a_idx, b_idx = block[simple], block[pos_of[rest]]
            coeff = reference_lie_bracket(L, L.basis_vector(a_idx),
                                          L.basis_vector(b_idx))[block[ridx]]
            images[block[ridx]] = [[v / coeff for v in row]
                                   for row in _dense_bracket(images[a_idx], images[b_idx])]
    # homomorphism check over all basis pairs
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            br = reference_lie_bracket(L, L.basis_vector(i), L.basis_vector(j))
            want = _dense_zero(size)
            for c, v in enumerate(br):
                if v:
                    want = [[w + v * m for w, m in zip(wr, mr)]
                            for wr, mr in zip(want, images[c])]
            got = _dense_bracket(images[i], images[j])
            if got != want:
                raise UnsupportedType("matrix realization failed the bracket check")
    return images


@pytest.fixture(scope="session")
def reference_images():
    return reference_matrix_images_type_A


def reference_trace_oracle(L):
    """tr(x^k), k = 2..rank+1, by Poly products of the entries of the dense
    Fraction matrix x = sum_c x_c M_c."""
    n, size, images = L.dim, L.rank + 1, reference_matrix_images_type_A(L)
    x = [[sum((Poly.coordinate(n, c).scale(m[i][j]) for c, m in enumerate(images) if m[i][j]),
              Poly.zero(n)) for j in range(size)] for i in range(size)]
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
    """Determinant by rational Gaussian elimination."""
    n = len(mat)
    rows = [list(r) for r in mat]
    sign = R1
    out = R1
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c]), None)
        if sel is None:
            return R0
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            sign = -sign
        piv = rows[c][c]
        out = out * piv
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / piv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return out * sign


def reference_isotropy_value(F, x):
    """Check 13's witness at x in Fractions: gradients by Poly.evaluate,
    tangents [x, g] and pairings (z_i, [x, z_j]) summed in Fractions; the
    first nonzero pair as (i, j, value string), or None."""
    L = F.L
    rows = reference_gradients_from_polys(F.ctx, F.qs, x)
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
    tangents, by rational Gaussian elimination."""
    L = F.L
    rows = reference_gradients_from_polys(F.ctx, F.qs, x)
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
