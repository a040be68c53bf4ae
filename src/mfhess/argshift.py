"""Shift-of-argument families and their Poisson-commutative generators.

Shifting an invariant I_j of degree d_j along a direction u produces the
homogeneous pieces I_{j,u,k} = (1/k!) (d_u)^k I_j of degree d_j - k, the
coefficients of t^k in I_j(x + t u).  For a regular Cartan direction y the
b = rank + (number of positive roots) pieces with k <= m_j are linearly
independent; regraded by degree and ordered degree-major they give the
generator list q_1..q_b.  The positions carrying the underived invariants
(k = 0) form the index set I, the rest form N.

Also here: exact strong-regularity tests (the b gradients are independent),
gradient spans of a family at a point, the chain map zeta built from a
regular Cartan element and the nilpositive element of a principal triple,
and a sampled membership test for directions whose family reaches the
maximal gradient span b.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from . import linalg
from .liealgebra import LieAlgebra, PrincipalTriple, principal_triple, signature_hash
from .invariants import InvariantFamily, read_json, write_json_atomic
from .polyring import (GradientContext, Poly, coefficient_rows, gradient, gradient_polys,
                       gradients_from_partials, poisson_bracket)
from .rational import R0, R1, rat, to_rat, factorial_rat
from .rootdata import RootSystem


class DependentFamily(Exception):
    """The shifted family failed to be linearly independent (upstream bug)."""


class NotInvertible(Exception):
    """ad y is singular on the nilradical: the direction is not regular."""


def root_values(L: LieAlgebra, y) -> list:
    """Values of every positive root on a Cartan element given by coordinates."""
    rs = L.rs
    coeffs = [y[i] for i in L.cartan_indices]
    out = []
    for r in rs.positive_roots:
        out.append(sum((coeffs[j] * rs.pairing(r, j) for j in range(L.rank)), R0))
    return out


def is_regular_cartan(L: LieAlgebra, y) -> bool:
    if not L.supported_in(y, L.cartan_indices):
        return False
    return all(v for v in root_values(L, y))


def cartan_from_root_values(L: LieAlgebra, values) -> list:
    """The Cartan element whose simple-root values are the given numbers."""
    rs = L.rs
    a = rs.cartan.entries
    mat = [[rat(a[j][i]) for j in range(L.rank)] for i in range(L.rank)]
    coeffs = linalg.solve(mat, [to_rat(v) for v in values])
    y = L.zero()
    for j, c in enumerate(coeffs):
        y[L.cartan_indices[j]] = c
    return y


def choose_regular_y(L: LieAlgebra, rs: RootSystem, seed: int, bound: int = 5) -> list:
    """Deterministic small-integer regular Cartan element."""
    rng = random.Random(f"{seed}:regular-y")
    for _ in range(10000):
        coeffs = [rng.randint(-bound, bound) for _ in range(L.rank)]
        if not any(coeffs):
            continue
        y = L.zero()
        for j, c in enumerate(coeffs):
            y[L.cartan_indices[j]] = rat(c)
        if is_regular_cartan(L, y):
            return y
    raise NotInvertible("could not draw a regular Cartan element")


def shifted_invariants(L: LieAlgebra, ctx: GradientContext, inv: InvariantFamily, u) -> list:
    """All pieces (j, k, I_{j,u,k}) with 0 <= k <= m_j, k-th derivative over k!."""
    u = [to_rat(c) for c in u]
    out = []
    for j, (p, d) in enumerate(zip(inv.polys, inv.degrees)):
        cur = p
        out.append((j, 0, p))
        for k in range(1, d):
            cur = cur.directional(u)
            out.append((j, k, cur.scale(R1 / factorial_rat(k))))
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
    L: LieAlgebra
    ctx: GradientContext
    triple: PrincipalTriple
    y: list
    entries: list
    _partials: list = field(default=None, repr=False)

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

    def degrees(self) -> tuple:
        return tuple(e.m for e in self.entries)

    def partials(self) -> list:
        if self._partials is None:
            self._partials = [
                [e.poly.partial(k) for k in range(self.L.dim)] for e in self.entries]
        return self._partials

    def gradient_rows(self, x) -> list:
        return gradients_from_partials(self.ctx, self.partials(), x)

    def graded_dims(self) -> dict:
        """Exact dimension of the degree-m slice of the family's span."""
        by_m: dict[int, list] = {}
        for e in self.entries:
            by_m.setdefault(e.m, []).append(e.poly)
        return {m: linalg.rank(coefficient_rows(polys)) for m, polys in sorted(by_m.items())}

    def to_payload(self) -> dict:
        return {
            "schema": "family_v1",
            "y": [str(c) for c in self.y],
            "entries": [
                {"beta": e.beta, "m": e.m, "j": e.j, "k": e.k, "i": e.i,
                 "poly": e.poly.to_payload()}
                for e in self.entries],
        }


def shift_family(L: LieAlgebra, inv: InvariantFamily, y,
                 ctx: GradientContext | None = None,
                 triple: PrincipalTriple | None = None) -> ShiftFamily:
    """Build the ordered generator family for a regular Cartan direction y."""
    ctx = ctx or GradientContext(L)
    triple = triple or principal_triple(L)
    y = [to_rat(c) for c in y]
    if not is_regular_cartan(L, y):
        raise NotInvertible("shift direction must be a regular Cartan element")
    pieces = shifted_invariants(L, ctx, inv, y)
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
                if p.degree() != m:
                    raise DependentFamily(
                        f"piece ({j},{k}) has degree {p.degree()}, expected {m}")
                entries.append(QEntry(beta=beta, m=m, j=j, k=k, i=ell - j, poly=p))
    b = L.rank + L.n
    if len(entries) != b:
        raise DependentFamily(f"family has {len(entries)} members, expected {b}")
    if linalg.rank(coefficient_rows([e.poly for e in entries])) != b:
        raise DependentFamily("shifted family members are linearly dependent")
    return ShiftFamily(L=L, ctx=ctx, triple=triple, y=y, entries=entries)


def pairwise_commute(F: ShiftFamily) -> tuple:
    """Exact symbolic check that all pairs of generators Poisson commute.

    Returns (True, number of pairs) or (False, (i, j, nonzero bracket)).
    """
    qs = F.qs
    count = 0
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            br = poisson_bracket(F.ctx, qs[i], qs[j])
            if not br.is_zero():
                return False, (i, j, br)
            count += 1
    return True, count


def phi(F: ShiftFamily, x) -> list:
    """The b generator values at a point."""
    x = [to_rat(c) for c in x]
    return [q.evaluate(x) for q in F.qs]


def is_strongly_regular(F: ShiftFamily, x) -> bool:
    """True when the b gradients at x are linearly independent."""
    return linalg.rank(F.gradient_rows(x)) == F.b


def gradient_span(ctx: GradientContext, polys, x) -> tuple:
    """(dimension, canonical basis) of {dp(x) : p in span of the given polys}."""
    x = [to_rat(c) for c in x]
    rows = [gradient(ctx, p, x) for p in polys]
    basis = linalg.span_basis(rows)
    return len(basis), basis


def family_from_payload(L: LieAlgebra, ctx: GradientContext, triple: PrincipalTriple,
                        payload: dict) -> ShiftFamily:
    y = [to_rat(c) for c in payload["y"]]
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
    return family_from_payload(L, ctx, triple, payload)


# -- the chain map zeta ------------------------------------------------------


def zeta_apply(L: LieAlgebra, triple: PrincipalTriple, y, v) -> list:
    """zeta(v) = -(ad y)^{-1} [e, v] for v in the upper Borel subalgebra."""
    vals = root_values(L, y)
    if not all(vals):
        raise NotInvertible("ad y is singular on the nilradical")
    img = L.bracket(triple.e, v)
    if not L.supported_in(img, L.n_indices):
        raise ValueError("zeta is defined on the upper Borel subalgebra only")
    out = L.zero()
    for i_pos, idx in enumerate(L.pos_indices):
        if img[idx]:
            out[idx] = -img[idx] / vals[i_pos]
    return out


@dataclass
class ZetaChain:
    y: list
    chains: list      # chains[j][i] = v_i(I_j), i = 0..d_j-1
    degrees: tuple

    def vector(self, j: int, i: int, dim: int) -> list:
        if i >= self.degrees[j]:
            return [R0] * dim
        return self.chains[j][i]


def zeta_chain(L: LieAlgebra, triple: PrincipalTriple, y,
               inv: InvariantFamily, ctx: GradientContext | None = None) -> ZetaChain:
    """Extract the chains v_i(I_j) from the t-expansion of dI_j(e + t y).

    v_i is the coefficient of t^{d_j - 1 - i}; the chains satisfy
    [y, v_0] = 0, [e, v_{d_j-1}] = 0 and zeta(v_i) = v_{i+1}, with v_i
    homogeneous of adjoint weight 2i.  All relations are verified exactly.
    """
    ctx = ctx or GradientContext(L)
    y = [to_rat(c) for c in y]
    vals = root_values(L, y)
    if not all(vals):
        raise NotInvertible("ad y is singular on the nilradical")
    subs = [Poly(1, {(0,): triple.e[c]} if triple.e[c] else {}) +
            Poly(1, {(1,): y[c]} if y[c] else {}) for c in range(L.dim)]
    chains = []
    for j, (p, d) in enumerate(zip(inv.polys, inv.degrees)):
        comps = [g.compose(subs) for g in gradient_polys(ctx, p)]
        vecs = []
        for i in range(d):
            a = d - 1 - i
            vecs.append([comp.terms.get((a,), R0) for comp in comps])
        for comp in comps:
            if any(sum(e) >= d for e in comp.terms):
                raise ValueError("gradient expansion has unexpected high-order terms")
        # chain relations
        if any(L.bracket(y, vecs[0])):
            raise ValueError(f"[y, v_0] != 0 for invariant {j}")
        if any(L.bracket(triple.e, vecs[d - 1])):
            raise ValueError(f"[e, v_(d-1)] != 0 for invariant {j}")
        for i in range(d):
            if not L.supported_in(vecs[i], L.layer_indices(i)):
                raise ValueError(f"v_{i}(I_{j}) is not homogeneous of weight 2*{i}")
            nxt = zeta_apply(L, triple, y, vecs[i])
            want = vecs[i + 1] if i + 1 < d else [R0] * L.dim
            if nxt != want:
                raise ValueError(f"zeta(v_{i}) != v_{i + 1} for invariant {j}")
        chains.append(vecs)
    return ZetaChain(y=y, chains=chains, degrees=tuple(inv.degrees))


# -- sampled membership in the maximal-span locus ---------------------------


def mv_membership(L: LieAlgebra, inv: InvariantFamily, u, sample_count: int, seed: int,
                  ctx: GradientContext | None = None, coeff_bound: int = 5) -> tuple:
    """Search for a point where the family shifted along u has full span b.

    Returns (True, witness point) when found; (False, None) is inconclusive,
    never a refutation.
    """
    ctx = ctx or GradientContext(L)
    members = [p for _, _, p in shifted_invariants(L, ctx, inv, u)]
    b = L.rank + L.n
    triple = principal_triple(L)
    rng = random.Random(f"{seed}:mv-membership")
    candidates = [triple.w, triple.e, triple.e1,
                  linalg.vec_add(triple.w, triple.f)]
    for _ in range(sample_count):
        candidates.append([rat(rng.randint(-coeff_bound, coeff_bound),
                               rng.randint(1, 3)) for _ in range(L.dim)])
    partials = [[p.partial(k) for k in range(L.dim)] for p in members]
    for x in candidates:
        if linalg.rank(gradients_from_partials(ctx, partials, x)) == b:
            return True, x
    return False, None
