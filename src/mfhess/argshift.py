"""Shift-of-argument families and their Poisson-commutative generators.

Shifting an invariant I_j of degree d_j along a direction u produces the
homogeneous pieces I_{j,u,k} = (1/k!) (d_u)^k I_j of degree d_j - k, the
coefficients of t^k in I_j(x + t u).  For a regular Cartan direction y the
b = rank + (number of positive roots) pieces with k <= m_j are linearly
independent; regraded by degree and ordered degree-major they give the
generator list q_1..q_b.  The positions carrying the underived invariants
(k = 0) form the index set I, the rest form N.

Also here: gradient spans over points (the span of the gradients of a list
of polynomials at every point of a list), the chain map zeta built from a
regular Cartan element and the nilpositive element of a principal triple
(its chains are the family's own gradient rows at that element, its
relations tested on integers), and a sampled membership test: do given
compiled members of a shifted family reach the maximal gradient span b at
some sampled point?

The pieces come from one integer Taylor pass over the terms of each I_j,
with polyring's packed exponents; a family holds them, so the chain map and
the membership test along y read the family instead of shifting again.
Pairwise commutativity (criterion 6) is decided exactly, first by a
certificate that forms no product (chain_certificate): every underived
member I_j is a Casimir, its n folds {x_i, I_j} vanishing, and every derived
member is the Taylor coefficient of the one before it along y, k p_k =
d_y p_(k-1) (taylor_break, which takes any pieces and any direction).  The
t^k coefficient of {x_i, I_j}(x + t y) = 0 is then the chain identity
fold p_k + fold_y p_(k-1) = 0, and with the antisymmetry of the pair table
it gives {p_k, q_m} = {p_(k+1), q_(m-1)} = ... = 0 for every pair
(Mishchenko and Fomenko, 1978).  Where the certificate refuses, which
refutes nothing, the product sweep decides, with each member's partials and
Hamiltonian folds computed once for the whole sweep; a member whose folds
vanish is a Casimir and its pairs need no product.

A family compiles its members (polyring.CompiledPolys) once, on the first
pointwise read, not when it is built: no build stage evaluates the whole
family (the chart reads its frame at e1 from the terms that reach it).
Gradients and values at points are read from that integer form, and no
partial derivatives are cached.  Every point read here is a canonical
cleared vector (rational.canonical), and phi returns the values in that form
too.  gradient_rows returns the gradient matrix as integer numerators over
one denominator, which the rank tests and the tangent frames read as they
are; at a Hess point symplectic.HessVisit reads them once and ranks them
only where its pairing certificate fails.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import comb
from operator import mul

from . import linalg
from .liealgebra import LieAlgebra, PrincipalTriple, signature_hash
from .invariants import InvariantFamily, read_json, write_json_atomic
from .polyring import (CompiledPolys, GradientContext, Poly, _int_folds, _int_partials,
                       _int_product, _packing, _unpack)
from .rational import canonical, cleared, combine, draw, ratio_str, to_rat


class DependentFamily(Exception):
    """The shifted family failed to be linearly independent (upstream bug)."""


class NotInvertible(Exception):
    """ad y is singular on the nilradical: the direction is not regular."""


def root_values(L: LieAlgebra, y) -> list:
    """Values of every positive root on a Cartan element given by the integer
    numerators of a cleared vector: the values times its denominator."""
    rs = L.rs
    coeffs = [y[i] for i in L.cartan_indices]
    out = []
    for r in rs.positive_roots:
        out.append(sum(coeffs[j] * rs.pairing(r, j) for j in range(L.rank)))
    return out


def is_regular_cartan(L: LieAlgebra, y) -> bool:
    """Whether the cleared vector y is a regular Cartan element."""
    nums, _ = y
    if not L.supported_in(nums, L.cartan_indices):
        return False
    return all(v for v in root_values(L, nums))


def choose_regular_y(L: LieAlgebra, seed: int, bound: int = 5) -> tuple:
    """Deterministic small-integer regular Cartan element, as a canonical
    point."""
    rng = random.Random(f"{seed}:regular-y")
    for _ in range(10000):
        coeffs = [rng.randint(-bound, bound) for _ in range(L.rank)]
        if not any(coeffs):
            continue
        y = L.zero()
        for j, c in enumerate(coeffs):
            y[L.cartan_indices[j]] = c
        if is_regular_cartan(L, (y, 1)):
            return canonical(y, 1)
    raise NotInvertible("could not draw a regular Cartan element")


def shifted_invariants(inv: InvariantFamily, u) -> list:
    """All pieces (j, k, I_{j,u,k}) with 0 <= k <= m_j: the coefficient of
    t^k in I_j(x + t u), which is the k-th derivative along u over k!.

    The pieces come from one Taylor pass on integers.  u is a cleared
    vector, numerators U over one denominator D.  Each term c x^e of I_j's
    integer numerators (over its denominator s) expands the product over k in
    supp(u) of (x_k + t U_k / D)^(e_k) with binomial coefficients on ints,
    packed exponents (the width rule of polyring.poisson_bracket) and orders
    below deg I_j only; the coefficient of t^k is then piece k over s D^k.
    """
    nums, den = u
    support = [(k, U) for k, U in enumerate(nums) if U]
    out = []
    for j, (p, d) in enumerate(zip(inv.polys, inv.degrees)):
        out.append((j, 0, p))
        top = p.degree()
        unit, width = _packing(p.n, top)
        # steps[k][e] lists (a, packed x_k^a, C(e, a) U_k^a) for 0 < a <= e, a < d
        steps = {k: [[(a, a * unit[k], comb(e, a) * U ** a)
                      for a in range(1, min(e, d - 1) + 1)] for e in range(top + 1)]
                 for k, U in support}
        acc = [{} for _ in range(d)]
        for e, c in p.nums.items():
            touched = [steps[k][e[k]] for k, _ in support if e[k]]
            if not touched:
                continue
            branches = [(0, sum(map(mul, e, unit)), c)]
            for step in touched:
                grown = list(branches)
                for order, pe, coef in branches:
                    for a, ua, w in step:
                        if order + a >= d:
                            break
                        grown.append((order + a, pe - ua, coef * w))
                branches = grown
            for order, pe, coef in branches:
                if order:
                    row = acc[order]
                    row[pe] = row.get(pe, 0) + coef
        for k in range(1, d):
            out.append((j, k, _unpack(p.n, width, acc[k], p.den * den ** k)))
    return out


@dataclass
class QEntry:
    beta: int      # 1-based position in the ordered list
    m: int         # degree of the generator
    j: int         # 0-based index of the source invariant
    k: int         # derivative order, m = d_j - k
    i: int         # regraded index, i = rank - j
    poly: Poly


@dataclass
class ShiftFamily:
    """The ordered members q_1..q_b, with what their gradients need.  Built
    by shift_family or read from a cache payload; neither compiles the
    members, which the first pointwise read (gradient_rows, phi) does."""
    L: LieAlgebra
    ctx: GradientContext
    triple: PrincipalTriple
    y: tuple            # the shift direction, a canonical point
    entries: list
    # the ranks of graded_dims, taken on its first call
    _graded: dict = field(init=False, repr=False, compare=False, default=None)

    # built on first read: no build stage evaluates the whole family
    @cached_property
    def compiled(self) -> CompiledPolys:
        return CompiledPolys(e.poly for e in self.entries)

    @property
    def I_positions(self) -> tuple:
        """0-based positions beta-1 of the underived invariants (k = 0)."""
        return tuple(idx for idx, e in enumerate(self.entries) if e.k == 0)

    @property
    def N_positions(self) -> tuple:
        return tuple(idx for idx, e in enumerate(self.entries) if e.k != 0)

    @property
    def qs(self) -> list:
        return [e.poly for e in self.entries]

    @property
    def b(self) -> int:
        return len(self.entries)

    def gradient_rows(self, x) -> tuple:
        """The b gradients at the cleared point x as integer rows over one
        positive denominator: (rows, den)."""
        return self.compiled.int_gradients(self.ctx, x)

    def graded_dims(self) -> dict:
        """Exact dimension of the degree-m slice of the family's span, ranked
        once on the members' integer numerators (a positive scale of a row
        leaves the rank unchanged); shift_family takes it to certify
        independence, and later calls read it."""
        if self._graded is None:
            by_m: dict[int, list] = {}
            for e in self.entries:
                by_m.setdefault(e.m, []).append(e.poly.nums)
            self._graded = {}
            for m, rows in sorted(by_m.items()):
                cols = sorted({e for row in rows for e in row})
                self._graded[m] = linalg.rank([[row.get(e, 0) for e in cols] for row in rows])
        return self._graded

    def to_payload(self) -> dict:
        return {
            "schema": "family_v1",
            "y": [ratio_str(c, self.y[1]) for c in self.y[0]],
            "entries": [
                {"beta": e.beta, "m": e.m, "j": e.j, "k": e.k, "i": e.i,
                 "poly": e.poly.to_payload()}
                for e in self.entries],
        }


def shift_family(L: LieAlgebra, inv: InvariantFamily, y, ctx: GradientContext,
                 triple: PrincipalTriple) -> ShiftFamily:
    """Build the ordered generator family for a regular Cartan direction y,
    a canonical point.

    Each member must be homogeneous of its degree m, and the members must be
    linearly independent, certified as the sum of the per-degree ranks of
    graded_dims; a violation raises DependentFamily."""
    if not is_regular_cartan(L, y):
        raise NotInvertible("shift direction must be a regular Cartan element")
    pieces = shifted_invariants(inv, y)
    by_key = {(j, k): p for j, k, p in pieces}
    h = L.rs.coxeter_number
    ell = L.rank
    entries = []
    beta = 0
    for m in range(1, h + 1):
        for j, d in enumerate(inv.degrees):
            k = d - m
            if 0 <= k <= d - 1:
                beta += 1
                p = by_key[(j, k)]
                if not p.is_homogeneous() or p.degree() != m:
                    raise DependentFamily(f"piece ({j},{k}) is not homogeneous of degree {m}")
                entries.append(QEntry(beta=beta, m=m, j=j, k=k, i=ell - j, poly=p))
    b = L.rank + L.n
    if len(entries) != b:
        raise DependentFamily(f"family has {len(entries)} members, expected {b}")
    family = ShiftFamily(L=L, ctx=ctx, triple=triple, y=y, entries=entries)
    # members of distinct degrees share no monomial, so the rank of the
    # family is the sum of the ranks of its degree slices
    if sum(family.graded_dims().values()) != b:
        raise DependentFamily("shifted family members are linearly dependent")
    return family


def taylor_break(pieces, u) -> tuple | None:
    """The first (j, k), in the order of pieces, at which a piece is not the
    Taylor coefficient of the one before it along the cleared direction u:
    k p_k != d_u p_(k-1), or no piece (j, k - 1) is given.  None when every
    piece with k > 0 passes.  pieces is a list of (j, k, p), as
    shifted_invariants returns them, for any u.

    The test runs on packed integers: with u = U / D and p_k, p_(k-1) over
    their denominators s_k, s_(k-1), the packed numerators of
    s_k sum_i U_i dp_(k-1)/dx_i and of k D s_(k-1) p_k must be equal.  Only
    the support of U is differentiated along."""
    U, D = u
    support = [(i, c) for i, c in enumerate(U) if c]
    n = pieces[0][2].n
    unit, _ = _packing(n, max(p.degree() for _, _, p in pieces))
    by_key = {(j, k): p for j, k, p in pieces}
    for j, k, p in pieces:
        if not k:
            continue
        prev = by_key.get((j, k - 1))
        if prev is None:
            return j, k
        acc: dict = {}
        for e, c in prev.nums.items():
            pe = sum(map(mul, e, unit))
            for i, Ui in support:
                if e[i]:
                    key = pe - unit[i]
                    acc[key] = acc.get(key, 0) + c * e[i] * Ui
        scale = k * D * prev.den
        want = {sum(map(mul, e, unit)): c * scale for e, c in p.nums.items()}
        if {pe: c * p.den for pe, c in acc.items() if c} != want:
            return j, k
    return None


def chain_certificate(F: ShiftFamily) -> tuple | None:
    """None when every underived member I_j (k = 0) is a Casimir and every
    derived member p_k is the Taylor coefficient of the one before it along
    y; else the first (j, k) refused, Casimirs first, in family order.

    A Casimir's n folds {x_i, I_j} vanish on packed integers (_int_partials
    and _int_folds, as the product sweep takes them); the Taylor recursion
    k p_k = d_y p_(k-1) is taylor_break's.  pairwise_commute states why the
    two prove every pair commutes.  No Fraction is formed."""
    n = F.ctx.nvars
    unit, _ = _packing(n, max(e.poly.degree() for e in F.entries))
    _, rows = F.ctx.pair_table()
    everywhere = [True] * n
    for e in F.entries:
        if not e.k and any(_int_folds(rows, _int_partials(e.poly, unit)[1], unit, everywhere)):
            return e.j, 0
    return taylor_break([(e.j, e.k, e.poly) for e in F.entries], F.y)


def pairwise_commute(F: ShiftFamily) -> tuple:
    """Exact check that all pairs of generators Poisson commute.

    Returns (True, number of pairs) or (False, (i, j, nonzero bracket)), the
    pair being the first nonzero one in the sweep i < j with i outer and its
    bracket the one poisson_bracket gives.

    The family is first read by chain_certificate, which forms no product.
    Where it holds, each member p_k is the t^k coefficient of I_j(x + t y)
    for a Casimir I_j, so the t^k coefficient of {x_i, I_j}(x + t y) = 0 is
    the chain identity fold p_k + fold_y p_(k-1) = 0 (p_(-1) = 0), fold_y
    being the fold with each {x_i, x_j} frozen at y.  For members p_k and
    q_m, Leibniz, the identity for q, the antisymmetry of the frozen pair
    table (which pair_table builds in) and the identity for p give
    {p_k, q_m} = {p_(k+1), q_(m-1)}, and m + 1 steps reach q_(-1) = 0
    (Mishchenko and Fomenko, 1978): every pair commutes, with neither a
    product nor the Jacobi identity.  Where the certificate refuses, the
    product sweep decides, and its verdict and witness are those of the
    per-pair sweep; the refusal alone refutes nothing (a Cartan-linear
    member with a term dropped still commutes with every member of weight
    zero).
    """
    if chain_certificate(F) is None:
        return True, F.b * (F.b - 1) // 2
    return _product_sweep(F)


def _product_sweep(F: ShiftFamily) -> tuple:
    """pairwise_commute's verdict from the brackets themselves.

    The brackets are poisson_bracket's three integer steps, each run once per
    member instead of once per pair, on one exponent packing wide enough for
    every pair (2 * max degree - 1).  Member j's partials are taken once, and
    so are its folds {x_i, q_j}, as the second argument of its pairs; only
    one member's folds are alive at a time, so the sweep runs with j outer.
    Each pair's product is dropped once tested, and the last product of a
    member releases each fold as it reads it.  A member whose folds all
    vanish is a Casimir: {p, q_j} = sum_i dp/dx_i {x_i, q_j} is zero for
    every p, and so is {q_j, p} = -{p, q_j}, so its pairs are zero with no
    product.  Once a nonzero pair (i0, j0) is found, a later j can only
    precede it in i-outer order through some i < i0, and only those are
    tested.
    """
    qs = F.qs
    b = len(qs)
    n = F.ctx.nvars
    unit, width = _packing(n, 2 * max(q.degree() for q in qs) - 1)
    st, rows = F.ctx.pair_table()
    everywhere = [True] * n
    partials = []           # None for a Casimir, never needed again
    first = None
    for j in range(b):
        limit = j if first is None else first[0]
        if first is not None and not limit:
            break
        folds = None            # the last member's, before the next folds
        sq, dq = _int_partials(qs[j], unit)
        folds = list(_int_folds(rows, dq, unit, everywhere))
        if not any(folds):
            partials.append(None)
            continue
        partials.append((sq, dq))
        firsts = [i for i in range(limit) if partials[i] is not None]
        for i in firsts:
            sp, dp = partials[i]
            src = _released(folds) if i == firsts[-1] else folds
            br = _unpack(n, width, _int_product(dp, src), sp * sq * st)
            if not br.is_zero():
                first = (i, j, br)
                break
    if first is not None:
        return False, first
    return True, b * (b - 1) // 2


def _released(items: list):
    """Yield the items of a list, putting None in each place once read."""
    for k in range(len(items)):
        item, items[k] = items[k], None
        yield item


def phi(F: ShiftFamily, x) -> tuple:
    """The b generator values at a cleared point, as a canonical cleared
    vector."""
    return F.compiled.values(x)


def gradient_span(ctx: GradientContext, compiled: CompiledPolys, points) -> tuple:
    """(dimension, rows) of the span of dp(x) over the compiled polys p and
    cleared points x: rows the integer gradient rows themselves, which span
    it, since a positive scale of a row leaves the span unchanged."""
    rows = [g for x in points for g in compiled.int_gradients(ctx, x)[0]]
    return linalg.rank(rows), rows


def family_from_payload(L: LieAlgebra, ctx: GradientContext, triple: PrincipalTriple,
                        payload: dict) -> ShiftFamily:
    y = cleared([to_rat(c) for c in payload["y"]])
    entries = [QEntry(beta=e["beta"], m=e["m"], j=e["j"], k=e["k"], i=e["i"],
                      poly=Poly.from_payload(L.dim, e["poly"]))
               for e in payload["entries"]]
    return ShiftFamily(L=L, ctx=ctx, triple=triple, y=y, entries=entries)


def family_cache_path(cache_dir: str, label: str, seed: int, L: LieAlgebra) -> str:
    return os.path.join(cache_dir, f"family_{label}_{seed}_{signature_hash(L)}.json")


def save_family_cache(cache_dir: str, label: str, seed: int, F: ShiftFamily) -> str:
    path = family_cache_path(cache_dir, label, seed, F.L)
    write_json_atomic(path, F.to_payload())
    return path


def load_family_cache(cache_dir: str, label: str, seed: int, L: LieAlgebra,
                      ctx: GradientContext, triple: PrincipalTriple) -> ShiftFamily | None:
    payload = read_json(family_cache_path(cache_dir, label, seed, L))
    if payload is None or payload.get("schema") != "family_v1":
        return None
    try:
        return family_from_payload(L, ctx, triple, payload)
    except (KeyError, TypeError, ValueError):   # a missing or malformed key
        return None


# -- the chain map zeta ------------------------------------------------------


def zeta_chain(F: ShiftFamily) -> tuple:
    """The chains v_i(I_j), i = 0..d_j-1, from the t-expansion of
    dI_j(e + t y), as (chains, den): chains[j][i] the integer numerators of
    v_i(I_j) over the one positive denominator den.

    v_i is the coefficient of t^{d_j - 1 - i}, and the coefficient of t^k is
    the gradient at e of the shifted piece (1/k!) (d_y)^k I_j, the family's
    member (j, k), so every chain vector is a row of the family's gradient
    rows at e.  The chains satisfy [y, v_0] = 0, [e, v_{d_j-1}] = 0 and
    zeta(v_i) = v_{i+1}, zeta(v) = -(ad y)^{-1} [e, v], with v_i homogeneous
    of adjoint weight 2i.  All relations are verified exactly, on integers:
    with y = Y / dy, e = E / de and alpha(Y) = dy alpha(y), the relation
    zeta(v_i) = v_{i+1} holds when [E, v_i] lies in the upper nilradical,
    -[E, v_i]_alpha dy = alpha(Y) de v_{i+1, alpha} at every positive root
    alpha, and v_{i+1} vanishes off the positive roots.
    """
    L, yc, ec = F.L, F.y, F.triple.e
    vals = root_values(L, yc[0])
    if not all(vals):
        raise NotInvertible("ad y is singular on the nilradical")
    rows, den = F.gradient_rows(ec)
    coeff = {(q.j, q.k): row for q, row in zip(F.entries, rows)}
    off = [i for i in range(L.dim) if i not in L.pos_indices]
    chains = []
    for q in sorted((q for q in F.entries if q.k == 0), key=lambda q: q.j):
        j, d = q.j, q.m
        # dI_j(e + t y) has t-degree below deg I_j: for deg I_j <= d the
        # members with k < d carry all of it
        if q.poly.degree() > d:
            raise ValueError("gradient expansion has unexpected high-order terms")
        vecs = [coeff[(j, d - 1 - i)] for i in range(d)]
        # chain relations
        if any(L.int_bracket(yc, (vecs[0], den))[0]):
            raise ValueError(f"[y, v_0] != 0 for invariant {j}")
        if any(L.int_bracket(ec, (vecs[d - 1], den))[0]):
            raise ValueError(f"[e, v_(d-1)] != 0 for invariant {j}")
        for i in range(d):
            if not L.supported_in(vecs[i], L.layer_indices(i)):
                raise ValueError(f"v_{i}(I_{j}) is not homogeneous of weight 2*{i}")
            img = L.int_bracket(ec, (vecs[i], den))[0]
            if not L.supported_in(img, L.n_indices):
                raise ValueError("zeta is defined on the upper Borel subalgebra only")
            nxt = vecs[i + 1] if i + 1 < d else [0] * L.dim
            if any(nxt[k] for k in off) or any(
                    -img[idx] * yc[1] != v * ec[1] * nxt[idx]
                    for idx, v in zip(L.pos_indices, vals)):
                raise ValueError(f"zeta(v_{i}) != v_{i + 1} for invariant {j}")
        chains.append(vecs)
    return chains, den


# -- sampled membership in the maximal-span locus ---------------------------


def mv_membership(ctx: GradientContext, triple: PrincipalTriple, members: CompiledPolys,
                  sample_count: int, seed: int, coeff_bound: int) -> tuple:
    """Search for a point where the compiled members of a shifted family
    have full gradient span b: w, e, e1 and w + f first, then sample_count
    random points, each drawn only once every earlier candidate has missed.

    Returns (True, witness point), the point cleared, when found; (False,
    None) is inconclusive, never a refutation.
    """
    L = ctx.L
    b = L.rank + L.n
    rng = random.Random(f"{seed}:mv-membership")
    w = triple.w
    fixed = [w, triple.e, triple.e1, combine(w, triple.f)]
    drawn = (draw(rng, L.dim, coeff_bound, 3) for _ in range(sample_count))
    for x in chain(fixed, drawn):
        if linalg.rank(members.int_gradients(ctx, x)[0]) == b:
            return True, x
    return False, None
