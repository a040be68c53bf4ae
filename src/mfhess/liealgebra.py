"""Chevalley-basis realization of a semisimple Lie algebra.

Basis order: root vectors for the positive roots (in root order), the simple
coroots h_1..h_l, then root vectors for the negative roots.  All structure
constants are integers.  Signs are resolved by the classical extraspecial-pair
rule: positive roots are totally ordered by (height, coordinates); for each
positive root t that is a sum of two positive roots, the decomposition
t = r + s with r minimal is assigned the positive constant p+1, where p is
the largest integer with s - p*r still a root.  Every other constant follows
from antisymmetry, the opposition symmetry N(-a,-b) = -N(a,b), the cyclic
relation N(a,b)/(c,c) = N(b,c)/(a,a) for a+b+c = 0, and the Jacobi identity.

The Killing form is computed as the trace form of the adjoint representation,
which cross-validates the structure constants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import linalg
from .rational import R0, R1, rat, to_rat, rat_str, factorial_rat
from .rootdata import RootSystem


class ConstructionFailure(Exception):
    """Structure-constant resolution produced an inconsistent table."""


class DimensionMismatch(Exception):
    """Coordinate vector of the wrong length."""


class SingularSystem(Exception):
    """A linear solve that theory guarantees solvable had no solution."""


class DecompositionFailure(Exception):
    """The adjoint decomposition did not match the expected module shapes."""


@dataclass
class LieAlgebra:
    rs: RootSystem
    dim: int
    rank: int
    n: int
    # basis index blocks
    pos_indices: tuple
    cartan_indices: tuple
    neg_indices: tuple
    # sparse table: (a, b) with a < b -> {c: integer coefficient}
    table: dict = field(repr=False)
    killing: list = field(repr=False)
    # per-basis-index data
    layers: tuple = ()          # ad-w eigenvalue / 2 for each basis vector
    weights: tuple = ()         # root-lattice weight of each basis vector
    labels: tuple = ()

    def check_vector(self, x) -> None:
        if len(x) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(x)}")

    def bracket(self, x, y) -> list:
        """Exact bracket of two coordinate vectors."""
        self.check_vector(x)
        self.check_vector(y)
        out = [R0] * self.dim
        nx = [(i, v) for i, v in enumerate(x) if v]
        ny = [(j, v) for j, v in enumerate(y) if v]
        table = self.table
        for i, xi in nx:
            for j, yj in ny:
                if i == j:
                    continue
                if i < j:
                    row = table.get((i, j))
                    sign = 1
                else:
                    row = table.get((j, i))
                    sign = -1
                if row:
                    c = xi * yj
                    if sign < 0:
                        c = -c
                    for k, v in row.items():
                        out[k] = out[k] + c * v
        return out

    def basis_vector(self, i: int) -> list:
        v = [R0] * self.dim
        v[i] = R1
        return v

    def ad(self, x) -> list:
        """Dense matrix of ad x (columns are [x, basis_j])."""
        cols = [self.bracket(x, self.basis_vector(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def killing_pair(self, x, y):
        self.check_vector(x)
        self.check_vector(y)
        total = R0
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.killing[i]
            for j, yj in enumerate(y):
                if yj and row[j]:
                    total = total + xi * yj * row[j]
        return total

    def centralizer_dim(self, x) -> int:
        return self.dim - linalg.rank(self.ad(x))

    def zero(self) -> list:
        return [R0] * self.dim

    def supported_in(self, x, indices) -> bool:
        allowed = set(indices)
        return all(not v or i in allowed for i, v in enumerate(x))

    def layer_indices(self, m: int) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay == m)

    @property
    def bminus_indices(self) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay <= 0)

    @property
    def nminus_indices(self) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay < 0)

    @property
    def n_indices(self) -> tuple:
        return tuple(i for i, lay in enumerate(self.layers) if lay > 0)


def _roots_with_negatives(rs: RootSystem):
    pos = list(rs.positive_roots)
    index = {r: ("+", i) for i, r in enumerate(pos)}
    for i, r in enumerate(pos):
        index[tuple(-c for c in r)] = ("-", i)
    return pos, index


class _ConstantResolver:
    """Computes all bracket constants N(a, b) between root vectors."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.pos, self.index = _roots_with_negatives(rs)
        self.rootset = set(self.index)
        self.order = {r: i for i, r in enumerate(self.pos)}
        self.norm = {}
        for r in self.pos:
            nr = rs.root_norm(r)
            self.norm[r] = nr
            self.norm[tuple(-c for c in r)] = nr
        self.extraspecial = self._extraspecial_pairs()
        self.memo = {}

    def _extraspecial_pairs(self):
        out = {}
        for t in self.pos:
            if sum(t) < 2:
                continue
            best = None
            for r in self.pos:
                s = tuple(tc - rc for tc, rc in zip(t, r))
                if s in self.rootset and all(c >= 0 for c in s):
                    if self.order[r] < self.order[s] and (best is None or self.order[r] < self.order[best[0]]):
                        best = (r, s)
            if best is None:
                raise ConstructionFailure(f"no decomposition for positive root {t}")
            out[t] = best
        return out

    def chain_p(self, r, s) -> int:
        """Largest p with s - p*r a root."""
        p = 0
        cur = tuple(sc - rc for sc, rc in zip(s, r))
        while cur in self.rootset:
            p += 1
            cur = tuple(c - rc for c, rc in zip(cur, r))
        return p

    def n(self, a, b):
        """Constant in [e_a, e_b] = N(a,b) e_{a+b}; a, b, a+b must be roots."""
        key = (a, b)
        if key in self.memo:
            return self.memo[key]
        val = self._compute(a, b)
        self.memo[key] = val
        return val

    def _compute(self, a, b):
        apos = a in self.order
        bpos = b in self.order
        if apos and bpos:
            if self.order[a] > self.order[b]:
                return -self.n(b, a)
            return self._positive_pair(a, b)
        if not apos and not bpos:
            return -self.n(tuple(-c for c in a), tuple(-c for c in b))
        # mixed signs: rotate through the cyclic relation for a + b + c = 0
        c = tuple(-(ai + bi) for ai, bi in zip(a, b))
        if (a in self.order) and (c in self.order):
            # pair (c, a) is the positive pair
            return self.norm[c] / self.norm[b] * self.n(c, a)
        # pair (b, c) is the all-negative pair
        return self.norm[c] / self.norm[a] * self.n(b, c)

    def _positive_pair(self, a, b):
        t = tuple(ai + bi for ai, bi in zip(a, b))
        r1, s1 = self.extraspecial[t]
        if (a, b) == (r1, s1):
            return rat(self.chain_p(a, b) + 1)
        # Jacobi identity on (e_{-r1}, e_a, e_b); the target component is e_{s1}
        n_negr1_t = self.norm[s1] / self.norm[t] * rat(self.chain_p(r1, s1) + 1)
        acc = R0
        bm = tuple(bi - ri for bi, ri in zip(b, r1))
        if bm in self.rootset:
            acc = acc + self.n(b, tuple(-c for c in r1)) * self.n(a, bm)
        am = tuple(ai - ri for ai, ri in zip(a, r1))
        if am in self.rootset:
            acc = acc + self.n(tuple(-c for c in r1), a) * self.n(b, am)
        return -acc / n_negr1_t


def _coroot_coordinates(rs: RootSystem, root) -> list:
    """Integer coefficients of the coroot of `root` over the simple coroots."""
    d = rs.symmetrizer
    droot = rs.root_norm(root) / 2
    out = []
    for k, c in enumerate(root):
        val = rat(c) * d[k] / droot
        if val.denominator != 1:
            raise ConstructionFailure("coroot coefficients must be integers")
        out.append(int(val))
    return out


def chevalley_algebra(rs: RootSystem, validate: bool | None = None) -> LieAlgebra:
    """Build the algebra with integer structure constants from a root system.

    validate=None runs the exhaustive Jacobi / Killing checks whenever
    dim <= 16 (all v1 types); pass False to skip, True to force.
    """
    pos = list(rs.positive_roots)
    n = len(pos)
    ell = rs.rank
    dim = ell + 2 * n
    pos_indices = tuple(range(n))
    cartan_indices = tuple(range(n, n + ell))
    neg_indices = tuple(range(n + ell, dim))

    resolver = _ConstantResolver(rs)

    def eidx(sign, i):
        return i if sign == "+" else n + ell + i

    rootidx = {}
    for i, r in enumerate(pos):
        rootidx[r] = eidx("+", i)
        rootidx[tuple(-c for c in r)] = eidx("-", i)

    table: dict = {}

    def put(a, b, comp: dict):
        comp = {k: v for k, v in comp.items() if v}
        if not comp:
            return
        if a > b:
            a, b = b, a
            comp = {k: -v for k, v in comp.items()}
        table[(a, b)] = comp

    # [h_i, h_j] = 0; [h_i, e_phi] = phi(h_i) e_phi
    allroots = [(r, rootidx[r]) for r in rootidx]
    for i in range(ell):
        hi = n + i
        for r, ri in allroots:
            val = rs.pairing(r, i) if sum(r) > 0 else -rs.pairing(tuple(-c for c in r), i)
            if val:
                put(hi, ri, {ri: rat(val)})

    # [e_phi, e_psi]
    for r in rootidx:
        for s in rootidx:
            ri, si = rootidx[r], rootidx[s]
            if ri >= si:
                continue
            tsum = tuple(a + b for a, b in zip(r, s))
            if all(c == 0 for c in tsum):
                # [e_phi, e_{-phi}] = coroot of phi
                prim = r if sum(r) > 0 else s
                co = _coroot_coordinates(rs, prim)
                sign = 1 if sum(r) > 0 else -1
                put(ri, si, {n + k: rat(sign * c) for k, c in enumerate(co)})
            elif tsum in rootidx:
                c = resolver.n(r, s)
                if c.denominator != 1:
                    raise ConstructionFailure(f"non-integer structure constant for {r}+{s}")
                p = resolver.chain_p(r, s)
                if abs(int(c)) != p + 1:
                    raise ConstructionFailure(
                        f"constant {c} for pair {r},{s} violates |N| = p+1 = {p + 1}")
                put(ri, si, {rootidx[tsum]: c})

    layers = [0] * dim
    weights = [None] * dim
    labels = [""] * dim
    for i, r in enumerate(pos):
        layers[i] = sum(r)
        layers[n + ell + i] = -sum(r)
        weights[i] = r
        weights[n + ell + i] = tuple(-c for c in r)
        labels[i] = "e[" + ",".join(str(c) for c in r) + "]"
        labels[n + ell + i] = "e[" + ",".join(str(-c) for c in r) + "]"
    for k in range(ell):
        weights[n + k] = tuple(0 for _ in range(ell))
        labels[n + k] = f"h[{k + 1}]"

    L = LieAlgebra(
        rs=rs, dim=dim, rank=ell, n=n,
        pos_indices=pos_indices, cartan_indices=cartan_indices, neg_indices=neg_indices,
        table=table, killing=[],
        layers=tuple(layers), weights=tuple(weights), labels=tuple(labels),
    )
    L.killing = _killing_matrix(L)
    if validate is None:
        validate = dim <= 16
    if validate:
        errs = validate_algebra(L)
        if errs:
            raise ConstructionFailure(errs[0])
    return L


def _killing_matrix(L: LieAlgebra) -> list:
    ads = [L.ad(L.basis_vector(i)) for i in range(L.dim)]
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


def validate_algebra(L: LieAlgebra) -> list:
    """Exhaustive antisymmetry / Jacobi / Killing invariance on basis triples."""
    errs = []
    basis = [L.basis_vector(i) for i in range(L.dim)]
    for i in range(L.dim):
        if any(L.bracket(basis[i], basis[i])):
            errs.append(f"[b{i}, b{i}] != 0")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            xy = L.bracket(basis[i], basis[j])
            yx = L.bracket(basis[j], basis[i])
            if any(a + b for a, b in zip(xy, yx)):
                errs.append(f"antisymmetry fails on ({i},{j})")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            bij = L.bracket(basis[i], basis[j])
            for k in range(j + 1, L.dim):
                term = L.bracket(bij, basis[k])
                term = linalg.vec_add(term, L.bracket(L.bracket(basis[j], basis[k]), basis[i]))
                term = linalg.vec_add(term, L.bracket(L.bracket(basis[k], basis[i]), basis[j]))
                if any(term):
                    errs.append(f"Jacobi fails on ({i},{j},{k})")
                    if len(errs) > 3:
                        return errs
    for i in range(L.dim):
        for j in range(L.dim):
            bij = L.bracket(basis[i], basis[j])
            for k in range(L.dim):
                lhs = L.killing_pair(bij, basis[k]) + L.killing_pair(basis[j], L.bracket(basis[i], basis[k]))
                if lhs:
                    errs.append(f"Killing invariance fails on ({i},{j},{k})")
                    if len(errs) > 3:
                        return errs
    if linalg.rank(L.killing) != L.dim:
        errs.append("Killing form is degenerate")
    return errs


def signature_hash(L: LieAlgebra) -> str:
    """Hash of the sign/ordering conventions baked into the structure constants."""
    items = []
    items.append(repr(L.rs.cartan.entries))
    items.append(repr(L.rs.positive_roots))
    for key in sorted(L.table):
        row = L.table[key]
        items.append(f"{key}:" + ",".join(f"{c}={rat_str(v)}" for c, v in sorted(row.items())))
    blob = "|".join(items).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class PrincipalTriple:
    w: list
    e: list
    f: list
    e1: list


@dataclass
class PrincipalDecomposition:
    modules: list          # one list of basis vectors per irreducible summand
    exponents: tuple       # ad-w weight of each highest weight vector, halved
    cartan_reps: list      # z_j, the Cartan representative of each summand
    chains: list           # chains z_{j k} = (ad f / 2)^k z_j, k = 0..m_j


def principal_triple(L: LieAlgebra) -> PrincipalTriple:
    """The S-triple {w, e, f}: w in the Cartan with every simple root value 2,
    f the sum of the negative simple root vectors, e solved from [e, f] = w."""
    rs = L.rs
    ell = L.rank
    a = rs.cartan.entries
    # alpha_i(w) = sum_j c_j A[j][i] = 2
    at = [[rat(a[j][i]) for j in range(ell)] for i in range(ell)]
    try:
        cw = linalg.solve(at, [rat(2)] * ell)
    except ValueError as exc:
        raise SingularSystem(str(exc))
    w = L.zero()
    for j, c in enumerate(cw):
        w[L.cartan_indices[j]] = c

    f = L.zero()
    simple_neg = []
    simple_pos = []
    for i, r in enumerate(rs.positive_roots):
        if sum(r) == 1:
            simple_pos.append(L.pos_indices[i])
            simple_neg.append(L.neg_indices[i])
    for idx in simple_neg:
        f[idx] = R1

    # solve [sum c_i e_{alpha_i}, f] = w for the c_i
    cols = []
    for idx in simple_pos:
        cols.append(L.bracket(L.basis_vector(idx), f))
    mat = [[cols[j][i] for j in range(len(simple_pos))] for i in range(L.dim)]
    try:
        ce = linalg.solve(mat, w)
    except ValueError as exc:
        raise SingularSystem(f"no solution for the nilpositive element: {exc}")
    if any(not c for c in ce):
        raise SingularSystem("nilpositive element has a vanishing simple coefficient")
    e = L.zero()
    for j, idx in enumerate(simple_pos):
        e[idx] = ce[j]

    pairing = L.killing_pair(e, f)
    e1 = linalg.vec_scale(e, R1 / pairing)

    for vec, target, name in ((f, -2, "f"), (e, 2, "e")):
        got = L.bracket(w, vec)
        want = linalg.vec_scale(vec, rat(target))
        if got != want:
            raise SingularSystem(f"[w, {name}] != {target} {name}")
    if L.bracket(e, f) != w:
        raise SingularSystem("[e, f] != w")
    return PrincipalTriple(w=w, e=e, f=f, e1=e1)


def principal_decomposition(L: LieAlgebra, triple: PrincipalTriple) -> PrincipalDecomposition:
    """Split the algebra into irreducible modules under the principal triple.

    Highest weight vectors are the kernel of ad e; ad w acts on them with
    even nonnegative eigenvalues 2*m_j; applying (ad f / 2)^{m_j} lands in
    the Cartan, giving the representative z_j; further lowering gives the
    triangular chains whose union is a basis of the lower Borel subalgebra.
    """
    ade = L.ad(triple.e)
    ker = linalg.kernel(ade, L.dim)
    if len(ker) != L.rank:
        raise DecompositionFailure(
            f"kernel of ad e has dimension {len(ker)}, expected {L.rank}")
    # split kernel vectors into ad-w homogeneous components (the kernel is
    # ad-w stable, so each layer component stays in the kernel)
    by_layer: dict[int, list] = {}
    for v in ker:
        layers_hit = sorted({L.layers[i] for i, c in enumerate(v) if c})
        for m in layers_hit:
            comp = [c if L.layers[i] == m else R0 for i, c in enumerate(v)]
            if any(L.bracket(triple.e, comp)):
                raise DecompositionFailure("kernel layer component escaped the kernel")
            by_layer.setdefault(m, []).append(comp)
    hw = []
    for m in sorted(by_layer):
        for v in linalg.span_basis(by_layer[m]):
            hw.append((m, v))
    if len(hw) != L.rank:
        raise DecompositionFailure("highest weight vector count mismatch")
    exps = tuple(m for m, _ in hw)
    if sorted(exps) != list(L.rs.exponents):
        raise DecompositionFailure(
            f"exponents from the decomposition {exps} != {L.rs.exponents}")

    modules = []
    reps = []
    chains = []
    half = rat(1, 2)
    for m, v in hw:
        mod = [v]
        cur = v
        for _ in range(2 * m):
            cur = L.bracket(triple.f, cur)
            mod.append(cur)
        if any(L.bracket(triple.f, cur)):
            raise DecompositionFailure("lowering chain did not terminate at depth 2m+1")
        modules.append(mod)
        # z_j = (ad f / 2)^m applied to the highest weight vector
        z = [c * half ** m for c in mod[m]]
        if not L.supported_in(z, L.cartan_indices):
            raise DecompositionFailure("Cartan representative is not in the Cartan")
        reps.append(z)
        chain = [z]
        cur = z
        for _ in range(m):
            cur = linalg.vec_scale(L.bracket(triple.f, cur), half)
            chain.append(cur)
        chains.append(chain)

    allvecs = [v for mod in modules for v in mod]
    if linalg.rank(allvecs) != L.dim:
        raise DecompositionFailure("module sum is not direct")
    flat = [v for ch in chains for v in ch]
    if linalg.rank(flat) != L.rank + L.n:
        raise DecompositionFailure("triangular chains do not span the lower Borel")
    return PrincipalDecomposition(modules=modules, exponents=exps,
                                  cartan_reps=reps, chains=chains)


def is_regular(L: LieAlgebra, x) -> bool:
    """True when the centralizer has the minimal possible dimension (the rank)."""
    return L.centralizer_dim(x) == L.rank


def exp_ad_nilpotent(L: LieAlgebra, z, v) -> list:
    """exp(ad z) applied to v for nilpotent ad z (the series terminates)."""
    out = list(v)
    cur = list(v)
    k = 0
    while True:
        k += 1
        cur = L.bracket(z, cur)
        if not any(cur):
            return out
        if k > L.dim + 1:
            raise ValueError("exp(ad z) series did not terminate; z is not ad-nilpotent")
        scale = R1 / factorial_rat(k)
        out = [o + scale * c for o, c in zip(out, cur)]


def ut_action(L: LieAlgebra, triple: PrincipalTriple, t, v) -> list:
    """exp((t/2) ad f) applied to v."""
    return exp_ad_nilpotent(L, linalg.vec_scale(triple.f, to_rat(t) / 2), v)


def vandermonde_span(L: LieAlgebra, ctx, inv_polys, t_values) -> tuple:
    """Span of the invariant gradients at the points w + t f over the given t.

    Returns (dimension, canonical basis rows).  Every gradient lies in the
    lower Borel subalgebra; with at least h distinct values of t the span is
    all of it.
    """
    from .polyring import gradient

    triple = principal_triple(L)
    ts = list(t_values)
    if len(set(ts)) != len(ts):
        raise ValueError("t values must be distinct")
    rows = []
    for t in ts:
        point = linalg.vec_add(triple.w, linalg.vec_scale(triple.f, to_rat(t)))
        for p in inv_polys:
            rows.append(gradient(ctx, p, point))
    basis = linalg.span_basis(rows)
    return len(basis), basis
