"""Generators of the invariant polynomial algebra.

For each target degree d (known from the root data) the solver finds the
polynomials killed by the bracket action of the 2l simple root vectors.
Those generators suffice: annihilation by them propagates to the whole
algebra through the bracket, so the joint kernel is exactly the space of
fully invariant polynomials, and any solution is supported on monomials of
total root-lattice weight zero.  The kernel is therefore computed inside
the zero-weight subspace of S^d, which keeps the linear systems small.

New generators are the kernel vectors that survive modulo products of
lower-degree generators, selected by deterministic row reduction over the
canonical monomial order and normalized to primitive integer coefficients.

For type A an independent oracle realizes the algebra as traceless matrices
and pulls tr(x^k) back to Chevalley coordinates.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

from . import linalg
from .liealgebra import LieAlgebra, chevalley_algebra, signature_hash
from .polyring import GradientContext, Poly, coefficient_rows
from .rational import R0, R1, rat
from .rootdata import RootSystem, UnsupportedType, CartanMatrix, build_root_system


class WrongDimension(Exception):
    """Kernel dimensions disagree with the degree data: solver bug."""


@dataclass
class InvariantFamily:
    polys: list
    degrees: tuple
    provenance: str = "solver"

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, lexicographically."""
    out = []

    def rec(pos: int, remaining: int, prefix: list):
        if pos == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining + 1):
            rec(pos + 1, remaining - k, prefix + [k])

    if nvars == 0:
        return [()] if d == 0 else []
    rec(0, d, [])
    return out


def _zero_weight_monomials(L: LieAlgebra, d: int):
    ell = L.rank
    zero = tuple([0] * ell)
    out = []
    for e in monomials_of_degree(L.dim, d):
        w = [0] * ell
        for k, p in enumerate(e):
            if p:
                wk = L.weights[k]
                for i in range(ell):
                    w[i] += p * wk[i]
        if tuple(w) == zero:
            out.append(e)
    return sorted(out, key=lambda t: (sum(t), t))


def _coordinate_brackets(L: LieAlgebra, ctx: GradientContext, z) -> list:
    """For a fixed z, the linear forms {(z, .), x_k} as coefficient vectors."""
    out = []
    for k in range(L.dim):
        u = ctx.dual_vector(k)
        v = L.bracket(z, u)
        out.append(linalg.mat_vec(ctx.gram, v) if any(v) else None)
    return out


def invariant_space_dimension(degrees, d: int) -> int:
    """Number of monomials in the generators of total degree d."""
    counts = [0] * (d + 1)
    counts[0] = 1
    for deg in degrees:
        for total in range(deg, d + 1):
            counts[total] += counts[total - deg]
    return counts[d]


def _normalize_generator(vec: list, monos: list, nvars: int) -> Poly:
    denom = 1
    for c in vec:
        if c:
            denom = denom * c.denominator // _gcd(denom, c.denominator)
    ints = [int(c * denom) for c in vec]
    g = 0
    for c in ints:
        g = _gcd(g, abs(c))
    if g:
        ints = [c // g for c in ints]
    for c in ints:
        if c:
            if c < 0:
                ints = [-x for x in ints]
            break
    return Poly(nvars, {m: rat(c) for m, c in zip(monos, ints) if c})


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def invariant_generators(L: LieAlgebra, rs: RootSystem | None = None,
                         ctx: GradientContext | None = None) -> InvariantFamily:
    """Solve for the invariant generators degree by degree."""
    rs = rs or L.rs
    ctx = ctx or GradientContext(L)
    degrees = rs.degrees
    generators: list[Poly] = []
    gen_degrees: list[int] = []

    simple_idx = [i for i, r in enumerate(rs.positive_roots) if sum(r) == 1]
    gen_vectors = [L.basis_vector(L.pos_indices[i]) for i in simple_idx]
    gen_vectors += [L.basis_vector(L.neg_indices[i]) for i in simple_idx]
    action_tables = [_coordinate_brackets(L, ctx, z) for z in gen_vectors]

    for d in sorted(set(degrees)):
        mult = sum(1 for x in degrees if x == d)
        monos = _zero_weight_monomials(L, d)

        rows: dict = {}
        for g_idx, lintable in enumerate(action_tables):
            for col, mono in enumerate(monos):
                for k, p in enumerate(mono):
                    if not p:
                        continue
                    lin = lintable[k]
                    if lin is None:
                        continue
                    base = list(mono)
                    base[k] -= 1
                    for j, cj in enumerate(lin):
                        if not cj:
                            continue
                        tgt = list(base)
                        tgt[j] += 1
                        key = (g_idx, tuple(tgt))
                        row = rows.setdefault(key, {})
                        row[col] = row.get(col, R0) + p * cj
        eq_rows = []
        for key in sorted(rows):
            row = {c: v for c, v in rows[key].items() if v}
            if row:
                eq_rows.append(row)
        kernel = linalg.sparse_kernel(eq_rows, len(monos))
        expected = invariant_space_dimension(degrees, d)
        if len(kernel) != expected:
            raise WrongDimension(
                f"degree {d}: invariant space has dimension {len(kernel)}, expected {expected}")

        decomposables = coefficient_rows(
            decomposable_products(generators, gen_degrees, d), monos)

        # kernel vectors outside the span of the decomposables and of the
        # kernel vectors before them, in kernel order
        kept = linalg.independent_subset(decomposables + kernel)
        chosen = [kernel[i - len(decomposables)] for i in kept
                  if i >= len(decomposables)][:mult]
        if len(chosen) != mult:
            raise WrongDimension(
                f"degree {d}: found {len(chosen)} new generators, expected {mult}")
        for vec in chosen:
            generators.append(_normalize_generator(vec, monos, L.dim))
            gen_degrees.append(d)

    order = sorted(range(len(generators)), key=lambda i: gen_degrees[i])
    polys = [generators[i] for i in order]
    degs = tuple(gen_degrees[i] for i in order)
    if degs != tuple(sorted(degrees)):
        raise WrongDimension(f"generator degrees {degs} != expected {tuple(sorted(degrees))}")
    return InvariantFamily(polys=polys, degrees=degs, provenance="solver")


def decomposable_products(polys: list, degrees, d: int) -> list:
    """All products of two or more of the polys (of degrees below d) with
    total degree d."""
    lower = [p for p, dd in zip(polys, degrees) if dd < d]
    out = []
    for combo in _degree_combinations([dd for dd in degrees if dd < d], d):
        prod = lower[combo[0]]
        for gi in combo[1:]:
            prod = prod * lower[gi]
        out.append(prod)
    return out


def _degree_combinations(gen_degrees: list, d: int):
    """Multisets of previously found generators with total degree d."""
    out = []

    def rec(start: int, remaining: int, picked: list):
        if remaining == 0:
            if picked:
                out.append(tuple(picked))
            return
        for i in range(start, len(gen_degrees)):
            if gen_degrees[i] <= remaining:
                rec(i, remaining - gen_degrees[i], picked + [i])

    rec(0, d, [])
    return out


# -- type A trace oracle ---------------------------------------------------


def _type_a_rows(rank: int) -> tuple:
    return tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
                 for i in range(rank))


def _is_type_a(rs: RootSystem) -> bool:
    return rs.cartan.entries == _type_a_rows(rs.rank)


def _mat_zero(n):
    return [[R0] * n for _ in range(n)]


def _mat_bracket(a, b):
    n = len(a)
    ab = [[sum((a[i][k] * b[k][j] for k in range(n)), R0) for j in range(n)] for i in range(n)]
    ba = [[sum((b[i][k] * a[k][j] for k in range(n)), R0) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def matrix_images_type_A(L: LieAlgebra) -> list:
    """Trace-zero matrix image of every basis vector.

    Simple generators go to the elementary matrices; the image of every other
    root vector is forced by the brackets already stored in the table.
    """
    rs = L.rs
    if not _is_type_a(rs):
        raise UnsupportedType("matrix realization provided for type A only")
    ell = rs.rank
    size = ell + 1
    images: list = [None] * L.dim
    pos_of = {r: i for i, r in enumerate(rs.positive_roots)}
    for i, r in enumerate(rs.positive_roots):
        if sum(r) == 1:
            k = r.index(1)
            ep = _mat_zero(size)
            ep[k][k + 1] = R1
            em = _mat_zero(size)
            em[k + 1][k] = R1
            images[L.pos_indices[i]] = ep
            images[L.neg_indices[i]] = em
    for k in range(ell):
        h = _mat_zero(size)
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
        a_idx = L.pos_indices[pos_of[tuple(1 if k2 == si else 0 for k2 in range(ell))]]
        b_idx = L.pos_indices[pos_of[rest]]
        coeff = L.bracket(L.basis_vector(a_idx), L.basis_vector(b_idx))[L.pos_indices[ridx]]
        images[L.pos_indices[ridx]] = [
            [v / coeff for v in row] for row in _mat_bracket(images[a_idx], images[b_idx])]
        na, nb = L.neg_indices[pos_of[tuple(1 if k2 == si else 0 for k2 in range(ell))]], \
            L.neg_indices[pos_of[rest]]
        ncoeff = L.bracket(L.basis_vector(na), L.basis_vector(nb))[L.neg_indices[ridx]]
        images[L.neg_indices[ridx]] = [
            [v / ncoeff for v in row] for row in _mat_bracket(images[na], images[nb])]
    # homomorphism check over all basis pairs
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            br = L.bracket(L.basis_vector(i), L.basis_vector(j))
            want = _mat_zero(size)
            for c, v in enumerate(br):
                if v:
                    want = [[w + v * m for w, m in zip(wr, mr)]
                            for wr, mr in zip(want, images[c])]
            got = _mat_bracket(images[i], images[j])
            if got != want:
                raise UnsupportedType("matrix realization failed the bracket check")
    return images


def trace_oracle_type_A(rank: int, L: LieAlgebra | None = None) -> InvariantFamily:
    """tr(x^k), k = 2..rank+1, in the Chevalley coordinates of the algebra."""
    if L is None:
        L = chevalley_algebra(build_root_system(CartanMatrix.from_rows(_type_a_rows(rank))))
    images = matrix_images_type_A(L)
    size = rank + 1
    entries = [[Poly.zero(L.dim) for _ in range(size)] for _ in range(size)]
    for c in range(L.dim):
        img = images[c]
        xc = Poly.coordinate(L.dim, c)
        for i in range(size):
            for j in range(size):
                if img[i][j]:
                    entries[i][j] = entries[i][j] + xc.scale(img[i][j])
    polys = []
    power = entries
    for k in range(2, rank + 2):
        power = _poly_mat_mul(power, entries)
        tr = Poly.zero(L.dim)
        for i in range(size):
            tr = tr + power[i][i]
        polys.append(tr)
    return InvariantFamily(polys=polys, degrees=tuple(range(2, rank + 2)),
                           provenance="trace-oracle")


def _poly_mat_mul(a, b):
    n = len(a)
    out = [[Poly.zero(a[0][0].n) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Poly.zero(a[0][0].n)
            for k in range(n):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


# -- disk cache -------------------------------------------------------------


def cache_path(cache_dir: str, label: str, L: LieAlgebra) -> str:
    return os.path.join(cache_dir, f"invariants_{label}_{signature_hash(L)}.json")


def write_json_atomic(path: str, payload: dict) -> None:
    """Write compact sorted JSON to a temporary file beside path, then rename
    it over path, so a reader never sees a partly written file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.unlink(tmp)


def read_json(path: str) -> dict | None:
    """The JSON object stored at path; None when it is missing or corrupt."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def save_family(cache_dir: str, label: str, L: LieAlgebra, fam: InvariantFamily) -> str:
    path = cache_path(cache_dir, label, L)
    payload = {
        "schema": "invariants_v1",
        "label": label,
        "convention": signature_hash(L),
        "degrees": list(fam.degrees),
        "provenance": fam.provenance,
        "polys": [p.to_payload() for p in fam.polys],
    }
    write_json_atomic(path, payload)
    return path


def load_family(cache_dir: str, label: str, L: LieAlgebra) -> InvariantFamily | None:
    payload = read_json(cache_path(cache_dir, label, L))
    if payload is None or payload.get("schema") != "invariants_v1":
        return None
    if payload.get("convention") != signature_hash(L):
        return None
    polys = [Poly.from_payload(L.dim, pp) for pp in payload["polys"]]
    return InvariantFamily(polys=polys, degrees=tuple(payload["degrees"]),
                           provenance=payload.get("provenance", "solver"))
