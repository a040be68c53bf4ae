"""Sparse multivariate polynomials over exact rationals.

A polynomial function on the algebra is written in the coordinates of the
Chevalley basis: a point *is* its coordinate vector, and a vector z gives the
linear functional x -> (z, x) through the Killing pairing.  Gradients are
taken with respect to the Killing identification, so they need the inverse
Gram matrix: (dp(x), z) is the first-order coefficient of p(x + t z), which
makes dp(x) the inverse Gram matrix applied to the coordinate partials.

The Poisson bracket of p and q is the function x -> (x, [dp(x), dq(x)]),
computed symbolically through the precomputed brackets of the coordinate
functions themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .rational import R0, R1, to_rat, rat_str


class Poly:
    """Immutable sparse polynomial: exponent tuple -> nonzero rational."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = to_rat(c)
        return cls(n, {tuple([0] * n): c} if c else {})

    @classmethod
    def coordinate(cls, n: int, k: int) -> "Poly":
        e = [0] * n
        e[k] = 1
        return cls(n, {tuple(e): R1})

    @classmethod
    def linear(cls, coeffs) -> "Poly":
        n = len(coeffs)
        terms = {}
        for k, c in enumerate(coeffs):
            if c:
                e = [0] * n
                e[k] = 1
                terms[tuple(e)] = to_rat(c)
        return cls(n, terms)

    # -- basic queries -------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly(self.n, {e: c for e, c in self.terms.items() if sum(e) == d})

    def graded_parts(self) -> dict:
        out: dict[int, dict] = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return {d: Poly(self.n, t) for d, t in sorted(out.items())}

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            mono = "*".join(f"x{i}^{p}" if p > 1 else f"x{i}" for i, p in enumerate(e) if p)
            bits.append(f"{rat_str(c)}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- arithmetic ----------------------------------------------------
    def _check(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, R0) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return Poly(self.n, out)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c) -> "Poly":
        c = to_rat(c)
        if not c:
            return Poly(self.n)
        return Poly(self.n, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, R0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Poly(self.n, out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ------------------------------------------------------
    def partial(self, k: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[k]:
                e2 = list(e)
                e2[k] -= 1
                out[tuple(e2)] = c * e[k]
        return Poly(self.n, out)

    def directional(self, y) -> "Poly":
        out = Poly(self.n)
        for k, yk in enumerate(y):
            if yk:
                out = out + self.partial(k).scale(yk)
        return out

    def evaluate(self, point):
        if len(point) != self.n:
            raise ValueError("point has wrong dimension")
        point = [to_rat(c) for c in point]
        total = R0
        for e, c in self.terms.items():
            term = c
            for k, p in enumerate(e):
                if p:
                    term = term * point[k] ** p
            total = total + term
        return total

    def compose(self, subs: list) -> "Poly":
        """Substitute subs[k] (all over a common variable set) for variable k."""
        if len(subs) != self.n:
            raise ValueError("substitution list has wrong length")
        m = subs[0].n
        powers: dict[int, list] = {}

        def power(k: int, p: int) -> "Poly":
            cache = powers.setdefault(k, [Poly.const(m, 1)])
            while len(cache) <= p:
                cache.append(cache[-1] * subs[k])
            return cache[p]

        out = Poly.zero(m)
        for e, c in self.terms.items():
            term = Poly.const(m, c)
            for k, p in enumerate(e):
                if p:
                    term = term * power(k, p)
            out = out + term
        return out

    # -- serialization ---------------------------------------------------
    def to_payload(self) -> list:
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return [[list(e), rat_str(c)] for e, c in items]

    @classmethod
    def from_payload(cls, n: int, payload) -> "Poly":
        return cls(n, {tuple(int(x) for x in e): to_rat(c) for e, c in payload})


def coefficient_rows(polys, columns=None) -> list:
    """Coefficient vector of each polynomial over a list of monomials.

    columns defaults to the sorted union of the polynomials' monomials; a
    term outside a given column list raises KeyError.
    """
    if columns is None:
        columns = sorted({e for p in polys for e in p.terms})
    col = {e: i for i, e in enumerate(columns)}
    rows = []
    for p in polys:
        row = [R0] * len(columns)
        for e, c in p.terms.items():
            row[col[e]] = c
        rows.append(row)
    return rows


@dataclass
class GradientContext:
    """Killing Gram matrix and its exact inverse for one algebra."""

    L: object
    gram: list = field(repr=False, default=None)
    gram_inv: list = field(repr=False, default=None)
    _pair_table: dict = field(repr=False, default=None)

    def __post_init__(self):
        if self.gram is None:
            self.gram = self.L.killing
        if self.gram_inv is None:
            self.gram_inv = linalg.inverse(self.gram)
            prod = linalg.mat_mul(self.gram, self.gram_inv)
            if prod != linalg.identity(self.L.dim):
                raise ValueError("Gram inverse validation failed")

    @property
    def nvars(self) -> int:
        return self.L.dim

    def linear_functional(self, z) -> Poly:
        """The polynomial x -> (z, x)."""
        return Poly.linear(linalg.mat_vec(self.gram, [to_rat(c) for c in z]))

    def dual_vector(self, k: int) -> list:
        """u_k with (u_k, x) = x_k for every x."""
        return [row[k] for row in self.gram_inv]

    def pair_table(self) -> dict:
        """Brackets of the coordinate functions: (i, j) i<j -> linear Poly."""
        if self._pair_table is None:
            table = {}
            duals = [self.dual_vector(k) for k in range(self.nvars)]
            for i in range(self.nvars):
                for j in range(i + 1, self.nvars):
                    v = self.L.bracket(duals[i], duals[j])
                    if any(v):
                        table[(i, j)] = Poly.linear(linalg.mat_vec(self.gram, v))
            self._pair_table = table
        return self._pair_table


def gradients_from_partials(ctx: GradientContext, partials: list, x) -> list:
    """dp(x) for each polynomial p, given as its list of coordinate partials.

    The gradient is the inverse Gram matrix applied to the partials' values.
    """
    x = [to_rat(c) for c in x]
    return [linalg.mat_vec(ctx.gram_inv, [d.evaluate(x) for d in parts])
            for parts in partials]


def gradient(ctx: GradientContext, p: Poly, x) -> list:
    """dp(x): the vector whose Killing pairing with z differentiates p along z."""
    return gradients_from_partials(ctx, [[p.partial(k) for k in range(ctx.nvars)]], x)[0]


def gradient_polys(ctx: GradientContext, p: Poly) -> list:
    """The coordinates of x -> dp(x) as polynomials."""
    partials = [p.partial(k) for k in range(ctx.nvars)]
    out = []
    for i in range(ctx.nvars):
        acc = Poly.zero(ctx.nvars)
        for k, coeff in enumerate(ctx.gram_inv[i]):
            if coeff and not partials[k].is_zero():
                acc = acc + partials[k].scale(coeff)
        out.append(acc)
    return out


def poisson_bracket(ctx: GradientContext, p: Poly, q: Poly) -> Poly:
    """Exact symbolic bracket of two polynomial functions."""
    table = ctx.pair_table()
    dp = [p.partial(k) for k in range(ctx.nvars)]
    dq = [q.partial(k) for k in range(ctx.nvars)]
    out = Poly.zero(ctx.nvars)
    for (i, j), lin in table.items():
        a = Poly.zero(ctx.nvars)
        if not dp[i].is_zero() and not dq[j].is_zero():
            a = a + dp[i] * dq[j]
        if not dp[j].is_zero() and not dq[i].is_zero():
            a = a - dp[j] * dq[i]
        if not a.is_zero():
            out = out + a * lin
    return out


def hamiltonian_at(ctx: GradientContext, p: Poly, x) -> list:
    """Value at x of the Hamiltonian field of p: minus the bracket of dp(x) with x."""
    x = [to_rat(c) for c in x]
    g = gradient(ctx, p, x)
    return ctx.L.bracket(x, g)
