"""Generators of the invariant polynomial algebra.

For each target degree d (known from the root data) the solver finds the
zero-weight polynomials of degree d killed by the l raising operators
e_{alpha_i}, the root vectors of the simple roots.  Those suffice.  S^d(g*)
is a finite-dimensional g-module, so it is completely reducible (Weyl's
theorem), and a vector that every raising operator kills is a highest-weight
vector; with weight zero it spans a trivial summand (the theorem of the
highest weight).  The kernel inside the zero-weight subspace of S^d is
therefore exactly the space of invariants of degree d, and the linear
systems stay small: one equation per raising operator and image monomial.

The action of z on polynomials is the derivation sum_k (ad z . x)_k d/dx_k,
the rows of ad z read from the algebra's integer table (LieAlgebra.int_ad).
By invariance of the Killing form, {(z, .), x_k}(x) = ([x, z])_k =
-(ad z . x)_k, so p is killed by the derivation exactly when it Poisson
commutes with the linear functional of z.

The solve is weight-directed and runs on integers, and its stages pass
integers to each other.  The zero-weight monomials are generated directly,
never filtered out of all of S^d: each is a multiset of positive roots of
some weight, a Cartan monomial, and the mirror of another positive multiset
of the same weight, so the positive multisets that can close are built once
per weight and joined with the Cartan monomials and with their own mirrors.
Each monomial is one int by polyring's packing rule (whose packed ints sort
as the exponent tuples do, the order of the equation rows) with its support
beside it; no exponent tuple is formed until a generator is unpacked.  The
rows of ad z are ints, so every equation has integer coefficients, and
linalg.sparse_kernel solves them by fraction-free elimination, taking over
the fresh rows, and returns the kernel as integer numerators over one
denominator.  One derivation routine (_derivation)
applies a raising operator's packed table to a whole list of packed
monomials in one loop, writing straight into the target rows {image
monomial: {column: c}}.  Those rows are the solver's equations.  On a
polynomial's own monomials, with each multiplicity scaled by its numerator,
each row sums to one coefficient of the image that the invariance test of
meets_solver_conditions (the re-check of a cached family) requires to
vanish.

New generators are the kernel vectors that survive modulo products of
lower-degree generators, in kernel order, normalized to primitive integer
coefficients by a gcd and a sign.  The products are taken on packed ints.
The kernel basis is canonical (a 1 on each free column, 0 on the others),
so every vector of the kernel is the combination of the basis with its own
free-column entries as coefficients.  Each product is certified exactly,
on integers, to be that combination; the greedy independence scan then
runs on the vectors restricted to the free columns, len(kernel) entries
each, where the basis is the identity.

For type A an independent oracle realizes the algebra as traceless integer
matrices and pulls tr(x^k) back to Chevalley coordinates.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, compress, repeat
from operator import mul

from . import linalg
from .liealgebra import LieAlgebra, signature_hash
from .polyring import CompiledPolys, Poly, _mul_packed, _packing, _unpack
from .rootdata import RootSystem, UnsupportedType


class WrongDimension(Exception):
    """Kernel dimensions disagree with the degree data: solver bug."""


@dataclass
class InvariantFamily:
    polys: list
    degrees: tuple
    provenance: str = "solver"

    # built on first read: no build stage evaluates the invariants
    @cached_property
    def compiled(self) -> CompiledPolys:
        return CompiledPolys(self.polys)


class UnpairedRoots(Exception):
    """The algebra's basis is not the positive root vectors, then the Cartan
    basis, then their mirrors: the zero-weight enumeration cannot run."""


def _zero_weight_monomials(L: LieAlgebra, d: int) -> list:
    """The monomials of total degree d and root-lattice weight zero, as
    (packed exponent, support) pairs (polyring's packing at top d, support
    the pairs (k, e_k) with e_k > 0), in ascending order of the packed ints,
    which is the lexicographic order of the exponent tuples.

    A zero-weight monomial factors as a multiset of a positive roots of some
    weight lam, times a Cartan monomial of degree c, times the mirror of a
    multiset of b positive roots of the same weight lam, with a + b + c = d:
    the structure behind Kostant's partition function.  The positive
    multisets are built once (_positive_multisets); the negative factor is
    read as the mirror of a positive one (x_pos[i] -> x_neg[i], a shift of
    the packed int past the positive and Cartan fields); and the factors are
    joined per weight: the packed ints add and the supports, each in index
    order, concatenate.  One sort then gives the packed order.
    """
    _check_root_pairs(L)
    unit, width = _packing(L.dim, d)
    offset = L.n + L.rank
    cartan = [[(sum(unit[k] for k in combo), tuple(Counter(combo).items()))
               for combo in combinations_with_replacement(L.cartan_indices, c)]
              for c in range(d + 1)]
    out = []
    for by_size in _positive_multisets(L, d, unit).values():
        mirrors = {b: [(p >> width * offset, tuple([(k + offset, e) for k, e in s]))
                       for p, s in pos] for b, pos in by_size.items()}
        for a, pos in by_size.items():
            for b, neg in mirrors.items():
                if a + b <= d:
                    for p, s in pos:
                        for h, hs in cartan[d - a - b]:
                            base, head = p + h, s + hs
                            out += [(base + q, head + t) for q, t in neg]
    out.sort()
    return out


def _check_root_pairs(L: LieAlgebra) -> None:
    """Raise UnpairedRoots unless the structure that _zero_weight_monomials
    joins on holds: the indices are ordered positive < Cartan < negative,
    the Cartan weights are 0, each positive weight is nonzero with no
    negative coordinate, and weights[neg[i]] == -weights[pos[i]]."""
    n, ell = L.n, L.rank
    if (L.pos_indices != tuple(range(n)) or L.cartan_indices != tuple(range(n, n + ell))
            or L.neg_indices != tuple(range(n + ell, L.dim))):
        raise UnpairedRoots("basis indices are not ordered positive < Cartan < negative")
    zero = (0,) * ell
    if any(L.weights[k] != zero for k in L.cartan_indices):
        raise UnpairedRoots("a Cartan basis vector has nonzero weight")
    for p, q in zip(L.pos_indices, L.neg_indices):
        w = L.weights[p]
        if w == zero or min(w) < 0:
            raise UnpairedRoots(f"basis vector {p} has weight {w}, not a positive root's")
        if L.weights[q] != tuple(-c for c in w):
            raise UnpairedRoots(f"basis vector {q} has weight {L.weights[q]}, not -{w}")


def _positive_multisets(L: LieAlgebra, d: int, unit: list) -> dict:
    """The multisets of positive roots that can close to a zero-weight
    monomial of degree d, as {weight: {size a: [(packed, support)]}}.

    A multiset of a roots and weight lam closes only with the mirror of
    another of weight lam, which has at least m(lam) roots, m(lam) being the
    fewest positive roots that sum to lam; so an entry is kept only when
    a + m(lam) <= d.  m is counted first, on the weights alone, up to d // 2
    (since a >= m(lam) as well).  The multisets grow one root at a time in
    index order, and a branch is cut once a + max_j ceil(lam_j / theta_j)
    exceeds d, theta_j being the largest coordinate j of a positive root:
    that bound is at most m(lam), and never falls as roots are added.
    """
    roots = L.weights[:L.n]
    fewest = {(0,) * L.rank: 0}
    frontier = list(fewest)
    for k in range(1, d // 2 + 1):
        grown = []
        for lam in frontier:
            for r in roots:
                mu = tuple([x + y for x, y in zip(lam, r)])
                if mu not in fewest:
                    fewest[mu] = k
                    grown.append(mu)
        frontier = grown
    theta = [max(col) for col in zip(*roots)]
    table: dict = {}
    stack = [(0, 0, (0,) * L.rank, 0, ())]
    while stack:
        start, size, lam, packed, support = stack.pop()
        m = fewest.get(lam)
        if m is not None and size + m <= d:
            table.setdefault(lam, {}).setdefault(size, []).append((packed, support))
        for j in range(start, L.n):
            mu = tuple([x + y for x, y in zip(lam, roots[j])])
            if size + 1 + max([-(-x // t) for x, t in zip(mu, theta)]) > d:
                continue
            if support and support[-1][0] == j:
                longer = support[:-1] + ((j, support[-1][1] + 1),)
            else:
                longer = support + ((j, 1),)
            stack.append((j, size + 1, mu, packed + unit[j], longer))
    return table


def zero_weight_exponents(L: LieAlgebra, d: int) -> list:
    """The exponent tuples of _zero_weight_monomials(L, d), in its order: the
    columns of a coefficient matrix of invariants of degree d."""
    out = []
    for _, support in _zero_weight_monomials(L, d):
        e = [0] * L.dim
        for k, ek in support:
            e[k] = ek
        out.append(tuple(e))
    return out


def _weight_codes(L: LieAlgebra, d: int) -> list:
    """The root-lattice weight of each variable packed into one int, in a
    balanced radix wide enough for any sum of d weights: packing is then
    additive and injective, so a monomial of degree d has weight zero
    exactly when its exponents times these codes sum to 0."""
    radix = 2 * d * max(abs(c) for w in L.weights for c in w) + 1
    return [sum(c * radix ** i for i, c in enumerate(w)) for w in L.weights]


def _action_tables(L: LieAlgebra) -> list:
    """For each raising operator z (simple_root_vectors), the rows of ad z as
    the linear forms of the derivation: for each k the sparse integer row
    [(j, c_j), ...] of (ad z . x)_k, or None when it is zero.  The rows come
    from LieAlgebra.int_ad of each int basis vector z, over 1."""
    tables = []
    for z in simple_root_vectors(L):
        rows, _ = L.int_ad((z, 1))
        tables.append([[(j, c) for j, c in enumerate(row) if c] or None for row in rows])
    return tables


def _packed_action(action: list, unit: list) -> list:
    """A table of _action_tables on packed exponents: for each k,
    the pairs (unit_j - unit_k, c_j), so x^e / x_k * x_j packs to e plus the
    first entry."""
    return [None if lin is None else [(unit[j] - unit[k], cj) for j, cj in lin]
            for k, lin in enumerate(action)]


def _derivation(action: list, monos: list) -> dict:
    """The derivation sum_k form_k d/dx_k of one raising operator (action
    from _packed_action) applied to each packed monomial of monos (pairs
    (packed, support), as _zero_weight_monomials gives them), in one loop:
    {image monomial: {i: c}}, c the coefficient of that image monomial in
    the image of monos[i], each row's keys ascending.  Each multiplicity e_k
    of a support enters only as a factor of the coefficients it gives."""
    rows: dict = {}
    for col, (e, support) in enumerate(monos):
        for k, ek in support:
            lin = action[k]
            if lin is not None:
                for delta, cj in lin:
                    row = rows.get(e + delta)
                    if row is None:
                        rows[e + delta] = {col: ek * cj}
                    else:
                        row[col] = row.get(col, 0) + ek * cj
    return rows


def invariant_space_dimension(degrees, d: int) -> int:
    """Number of monomials in the generators of total degree d."""
    counts = [0] * (d + 1)
    counts[0] = 1
    for deg in degrees:
        for total in range(deg, d + 1):
            counts[total] += counts[total - deg]
    return counts[d]


def _normalize_generator(nums: list, monos: list, nvars: int, width: int) -> Poly:
    """The primitive integer multiple of the integer vector nums whose first
    nonzero entry is positive, as a polynomial over monos (the packed pairs
    of _zero_weight_monomials, packed with the given width)."""
    g = math.gcd(*nums)
    if next(c for c in nums if c) < 0:
        g = -g
    return _unpack(nvars, width, {e: c // g for (e, _), c in zip(monos, nums) if c}, 1)


def simple_root_vectors(L: LieAlgebra) -> list:
    """The l raising operators: the root vectors of the simple roots."""
    return [L.basis_vector(L.pos_indices[i])
            for i, r in enumerate(L.rs.positive_roots) if sum(r) == 1]


def _equations(tables: list, monos: list, unit: list) -> list:
    """The solver's equations on the packed monomials (the pairs of
    _zero_weight_monomials, one column each): one fresh sparse integer row
    {column: c} per raising operator and image monomial (_derivation), in
    the order of (operator, image exponent)."""
    equations = []
    for action in tables:
        rows = _derivation(_packed_action(action, unit), monos)
        equations.extend(rows[tgt] for tgt in sorted(rows))
        del rows    # freed before the next operator's rows are built
    return equations


def invariant_generators(L: LieAlgebra) -> InvariantFamily:
    """Solve for the invariant generators degree by degree."""
    degrees = L.rs.degrees
    generators: list[Poly] = []
    gen_degrees: list[int] = []
    tables = _action_tables(L)

    for d in sorted(set(degrees)):
        mult = sum(1 for x in degrees if x == d)
        monos = _zero_weight_monomials(L, d)
        unit, width = _packing(L.dim, d)
        kernel = linalg.sparse_kernel(_equations(tables, monos, unit), len(monos))
        expected = invariant_space_dimension(degrees, d)
        if len(kernel[0]) != expected:
            raise WrongDimension(
                f"degree {d}: invariant space has dimension {len(kernel[0])}, expected {expected}")

        columns = {e: col for col, (e, _) in enumerate(monos)}
        decomposables = []
        for _, prod in _packed_products(generators, gen_degrees, d, unit):
            if any(c and e not in columns for e, c in prod.items()):
                raise WrongDimension(f"degree {d}: a product of generators has nonzero weight")
            decomposables.append({columns[e]: c for e, c in prod.items() if c})
        chosen = [kernel[0][i] for i in _new_kernel_vectors(kernel, decomposables, d)][:mult]
        if len(chosen) != mult:
            raise WrongDimension(
                f"degree {d}: found {len(chosen)} new generators, expected {mult}")
        for nums in chosen:
            generators.append(_normalize_generator(nums, monos, L.dim, width))
            gen_degrees.append(d)

    order = sorted(range(len(generators)), key=lambda i: gen_degrees[i])
    polys = [generators[i] for i in order]
    degs = tuple(gen_degrees[i] for i in order)
    if degs != tuple(sorted(degrees)):
        raise WrongDimension(f"generator degrees {degs} != expected {tuple(sorted(degrees))}")
    return InvariantFamily(polys=polys, degrees=degs, provenance="solver")


def _new_kernel_vectors(kernel: tuple, decomposables: list, d: int) -> list:
    """Indices of the kernel vectors outside the span of the decomposables
    and of the kernel vectors before them, in kernel order.

    kernel is the (basis, den) of linalg.sparse_kernel: the canonical basis
    k_f as integer rows den * k_f, so each row's last nonzero entry is its
    free column f; decomposables are sparse integer rows {column: c}.  Each
    decomposable is first certified exactly to equal sum_f dec[f] k_f over
    the free columns f; restriction to the free columns is then injective on
    the span, and the greedy scan runs on len(basis)-long vectors instead of
    full coefficient vectors.  Restricted to the free columns, the canonical
    basis is the identity.
    """
    basis, den = kernel
    free = [max(c for c, v in enumerate(k) if v) for k in basis]
    pairs = [[(c, v) for c, v in enumerate(k) if v] for k in basis]
    for dec in decomposables:
        combo: dict = {}
        for f, row in zip(free, pairs):
            a = dec.get(f)
            if a:
                for c, v in row:
                    combo[c] = combo.get(c, 0) + a * v
        if {c: v for c, v in combo.items() if v} != {c: den * v for c, v in dec.items()}:
            raise WrongDimension(f"degree {d}: a product of lower generators is not invariant")
    restricted = ([[dec.get(f, 0) for f in free] for dec in decomposables]
                  + [[int(g == f) for g in free] for f in free])
    kept = linalg.independent_subset(restricted)
    return [i - len(decomposables) for i in kept if i >= len(decomposables)]


def meets_solver_conditions(L: LieAlgebra, fam: InvariantFamily) -> bool:
    """The conditions the solver imposes, checked on a given family.

    The degrees are those of the root data; each polynomial is homogeneous
    of its degree, has root-lattice weight zero and is killed by the l
    raising operators; and no polynomial lies in the span of the products of
    the lower-degree ones.  Weight zero and the raising operators together
    make a polynomial invariant (a zero-weight highest-weight vector spans a
    trivial summand of the completely reducible S^d), while the raising
    operators alone do not: x_k^2 for the lowest root vector's coordinate is
    killed by all of them.  The weight test reads the packed weight codes of
    the solver's enumeration (_weight_codes).  The raising-operator test
    applies the solver's own derivation (_derivation on the rows of ad z,
    _action_tables; by invariance of the Killing form {(z, .), x_k} =
    -(ad z . x)_k) to the monomials of p with their multiplicities scaled
    by the integer numerators of p, so that each row sums to one image
    coefficient.  The independence test ranks the integer rows of the
    packed products and polynomials.
    """
    if fam.degrees != L.rs.degrees or len(fam.polys) != len(fam.degrees):
        return False
    if any(not p.is_homogeneous() or p.degree() != d
           for p, d in zip(fam.polys, fam.degrees)):
        return False
    tables = _action_tables(L)
    packed = []     # each polynomial's numerators, packed at its degree
    for p, d in zip(fam.polys, fam.degrees):
        codes = _weight_codes(L, d)
        unit, _ = _packing(L.dim, d)
        if any(sum(map(mul, e, codes)) for e in p.nums):
            return False
        terms = p.nums.items()
        packed.append({sum(map(mul, e, unit)): c for e, c in terms})
        # _derivation reads each e_k only as a factor: with the supports
        # scaled by the numerators, each row sums to one image coefficient
        monos = [(q, tuple([(k, c * ek) for k, ek in compress(enumerate(e), e)]))
                 for q, (e, c) in zip(packed[-1], terms)]
        for action in tables:
            image = _derivation(_packed_action(action, unit), monos)
            if any(map(sum, map(dict.values, image.values()))):
                return False
    for d in sorted(set(fam.degrees)):
        unit, _ = _packing(L.dim, d)
        rows = [prod for _, prod in _packed_products(fam.polys, fam.degrees, d, unit)]
        ndec = len(rows)
        rows += [terms for terms, dd in zip(packed, fam.degrees) if dd == d]
        cols = set().union(*rows)   # any column order gives the same rank
        mat = [[*map(row.get, cols, repeat(0))] for row in rows]
        # rank(mat) <= rank(mat[:ndec]) + len(rows) - ndec <= len(rows), so a
        # full rank needs no second rank
        full = linalg.rank(mat)
        if full != len(rows) and full != linalg.rank(mat[:ndec]) + len(rows) - ndec:
            return False
    return True


def decomposable_products(polys: list, degrees, d: int) -> list:
    """All products of two or more of the polys (of degrees below d) with
    total degree d."""
    if not polys:
        return []
    n = polys[0].n
    unit, width = _packing(n, d)
    return [_unpack(n, width, prod, scale)
            for scale, prod in _packed_products(polys, degrees, d, unit)]


def _packed_products(polys: list, degrees, d: int, unit: list) -> list:
    """decomposable_products on packed ints: each product as (scale, terms),
    terms mapping packed exponent -> int and the product being terms over
    scale.  Each factor is read as its integer numerators over its
    denominator."""
    lower = []
    for p, dd in zip(polys, degrees):
        if dd < d:
            lower.append((p.den, {sum(map(mul, e, unit)): c for e, c in p.nums.items()}))
    out = []
    for combo in _degree_combinations([dd for dd in degrees if dd < d], d):
        scale, prod = lower[combo[0]]
        for gi in combo[1:]:
            s, terms = lower[gi]
            scale *= s
            prod = _mul_packed(prod, terms)
        out.append((scale, prod))
    return out


def _degree_combinations(gen_degrees: list, d: int):
    """Multisets of previously found generators with total degree d."""
    out = []
    _append_combinations(out, gen_degrees, 0, d, [])
    return out


def _append_combinations(out: list, gen_degrees: list, start: int, remaining: int,
                         picked: list) -> None:
    if remaining == 0:
        if picked:
            out.append(tuple(picked))
        return
    for i in range(start, len(gen_degrees)):
        if gen_degrees[i] <= remaining:
            _append_combinations(out, gen_degrees, i, remaining - gen_degrees[i],
                                 picked + [i])


# -- type A trace oracle ---------------------------------------------------


def _type_a_rows(rank: int) -> tuple:
    return tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(rank))
                 for i in range(rank))


def _is_type_a(rs: RootSystem) -> bool:
    return rs.cartan.entries == _type_a_rows(rs.rank)


def _sparse_bracket(a: dict, b: dict) -> dict:
    """ab - ba for matrices held as dicts (i, j) -> nonzero entry."""
    out: dict = {}
    for (i, k), u in a.items():
        for (k2, j), v in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + u * v
    for (i, k), u in b.items():
        for (k2, j), v in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) - u * v
    return {key: v for key, v in out.items() if v}


def matrix_images_type_A(L: LieAlgebra) -> list:
    """Trace-zero matrix image of every basis vector, as a sparse dict
    (i, j) -> int entry: one entry for a root vector, two for a Cartan
    element.

    Simple generators go to the elementary matrices; the image of every other
    root vector is forced by the brackets already stored in the table, over
    its structure constant, which is +-1 in type A (any other value is
    refused).  The homomorphism check covers every basis pair: [M_a, M_b]
    equals the sum of the integer table's entries times the images.
    """
    rs = L.rs
    if not _is_type_a(rs):
        raise UnsupportedType("matrix realization provided for type A only")
    ell = rs.rank
    images: list = [None] * L.dim
    pos_of = {r: i for i, r in enumerate(rs.positive_roots)}
    for i, r in enumerate(rs.positive_roots):
        if sum(r) == 1:
            k = r.index(1)
            images[L.pos_indices[i]] = {(k, k + 1): 1}
            images[L.neg_indices[i]] = {(k + 1, k): 1}
    for k in range(ell):
        images[L.cartan_indices[k]] = {(k, k): 1, (k + 1, k + 1): -1}
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
            coeff = dict(L.int_table[a_idx].get(b_idx, ())).get(block[ridx], 0)
            if coeff not in (1, -1):
                raise UnsupportedType("matrix realization failed the bracket check")
            images[block[ridx]] = {key: v * coeff for key, v in
                                   _sparse_bracket(images[a_idx], images[b_idx]).items()}
    # homomorphism check over all basis pairs
    cols = L.int_table
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            want: dict = {}
            for c, v in cols[i].get(j, ()):
                for key, m in images[c].items():
                    want[key] = want.get(key, 0) + v * m
            if _sparse_bracket(images[i], images[j]) != {key: v for key, v in want.items() if v}:
                raise UnsupportedType("matrix realization failed the bracket check")
    return images


def trace_oracle_type_A(L: LieAlgebra) -> InvariantFamily:
    """tr(x^k), k = 2..rank+1, in the Chevalley coordinates of the algebra.

    The matrix x = sum_c x_c M_c is held sparse, each entry a linear form
    with exponents packed by polyring._packing and the integer coefficients
    of the images.  Its powers are sparse products of those forms, and each
    trace becomes one Poly at the end.
    """
    images = matrix_images_type_A(L)
    top = L.rank + 1
    unit, width = _packing(L.dim, top)
    entries: dict = {}    # (i, j) -> packed exponent -> int
    for c, img in enumerate(images):
        for key, v in img.items():
            entries.setdefault(key, {})[unit[c]] = v
    polys = []
    power = entries
    for k in range(2, top + 1):
        power = _form_mat_mul(power, entries)
        tr: dict = {}
        for i in range(top):
            for e, c in power.get((i, i), {}).items():
                tr[e] = tr.get(e, 0) + c
        polys.append(_unpack(L.dim, width, tr, 1))
    return InvariantFamily(polys=polys, degrees=tuple(range(2, top + 1)),
                           provenance="trace-oracle")


def _form_mat_mul(a: dict, b: dict) -> dict:
    """Product of two sparse matrices of packed polynomials, (i, j) -> form."""
    rows: dict = {}
    for (k, j), g in b.items():
        rows.setdefault(k, []).append((j, g))
    out: dict = {}
    for (i, k), f in a.items():
        for j, g in rows.get(k, ()):
            acc = out.setdefault((i, j), {})
            for e, c in _mul_packed(f, g).items():
                acc[e] = acc.get(e, 0) + c
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
            # json.dumps runs the C encoder; json.dump streams through the
            # pure-Python iterencode, with the same bytes
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
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
    """The cached generators, or None when the file is missing, corrupt or
    holds a family that fails the solver's conditions."""
    payload = read_json(cache_path(cache_dir, label, L))
    if payload is None or payload.get("schema") != "invariants_v1":
        return None
    if payload.get("convention") != signature_hash(L):
        return None
    try:
        polys = [Poly.from_payload(L.dim, pp) for pp in payload["polys"]]
        degrees = tuple(payload["degrees"])
    except (KeyError, TypeError, ValueError):   # a missing or malformed key
        return None
    fam = InvariantFamily(polys=polys, degrees=degrees,
                          provenance=payload.get("provenance", "solver"))
    return fam if meets_solver_conditions(L, fam) else None
