"""Sparse multivariate polynomials over exact rationals.

A Poly holds integer numerators over one positive denominator: nums maps
an exponent tuple to a nonzero int, and den is coprime to them all, so each
polynomial has exactly one form.  Every kernel below reads that form as it
is and builds its result from integers by one gcd (Poly.from_ints).  This
module and rational are the only ones that form a Fraction: Poly(n, terms)
clears its coefficients once through rational.clear, and the terms view,
the payload strings, gradient's rational row and the rational arithmetic
that the tests use as a reference build them on demand.

A polynomial function on the algebra is written in the coordinates of the
Chevalley basis: a point *is* its coordinate vector, and a vector z gives the
linear functional x -> (z, x) through the Killing pairing.  Gradients are
taken with respect to the Killing identification: dp(x) is the inverse Gram
matrix applied to the coordinate partials.  The inverse is linalg.inverse of
the Killing matrix, held by GradientContext as sparse integer rows over one
denominator.

The Poisson bracket of p and q is the function x -> (x, [dp(x), dq(x)]),
computed symbolically through the precomputed brackets of the coordinate
functions themselves, in three integer steps: the partials of p and q, the
folds {x_i, q} = sum_j dq/dx_j {x_i, x_j} (the Hamiltonian vector field of
q) and the product sum_i dp/dx_i {x_i, q}.  poisson_bracket runs them for
one pair; argshift.pairwise_commute runs each of them once per family member.

Values and gradients at points are taken on integers: a list of polynomials
is compiled once (CompiledPolys) and each evaluation reads a cleared point
(integer numerators over one positive denominator, rational.canonical).
int_gradients, the only gradient kernel, returns the gradient matrix as
integer numerators over one positive denominator, which pointwise checks
read as it is (a rank, a span or a vanishing test does not change under a
positive scale); values returns one canonical cleared vector.  No partial
derivatives are stored, and gradients are never formed as polynomials.

Restriction to an affine subspace s -> base + sum_g s_g directions[g] (Hess,
in the chart's dual frame or in the Chevalley frame) is also taken on integers:
restrict_affine clears the common denominator of the substitution, folds the
coordinates whose integer affine forms are constant into the coefficients,
expands each distinct monomial in the other coordinates once for a whole
list of polynomials, over shared power tables of their forms, with packed
exponents, and divides each result by one gcd.

This module alone knows how exponents are packed (Monagan and Pearce, CASC
2007).  An exponent vector becomes one int with top.bit_length() bits per
variable, variable 0 in the most significant field (_packing, _pack,
_unpack), so a monomial product is an int addition and packed ints sort as
the exponent tuples do.  The bracket, restrict_affine, the shift expansion
of argshift and the invariant solve and trace oracle of invariants all pack
by this rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from math import gcd, lcm
from operator import mul

from . import linalg
from .rational import (R0, R1, all_ints, canonical, clear, common_rows, over, parse_ratio,
                       rat, rat_str, to_rat)


_STR_INT = {str, int}
_EXACT = {int, type(R0)}


class Poly:
    """Immutable sparse polynomial: exponent tuple -> nonzero int numerator
    (nums) over one denominator den >= 1, with gcd(den, *nums.values()) == 1
    and den 1 for the zero polynomial, so equal polynomials have equal
    fields.  Poly(n, terms) takes int or rational coefficients."""

    __slots__ = ("n", "den", "nums")

    def __init__(self, n: int, terms: dict | None = None):
        terms = terms or {}
        nums, den = clear([c if type(c) in _EXACT else to_rat(c) for c in terms.values()])
        self.n = n
        self.den = den
        self.nums = {e: c for e, c in zip(terms, nums) if c}

    @classmethod
    def from_ints(cls, n: int, nums: dict, den: int = 1) -> "Poly":
        """The polynomial nums over den, for integer numerators and a nonzero
        int den: zeros are dropped and one gcd brings it to canonical form."""
        nums = {e: c for e, c in nums.items() if c}
        if den < 0:
            den, nums = -den, {e: -c for e, c in nums.items()}
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: c // g for e, c in nums.items()}
        p = cls.__new__(cls)
        p.n, p.den, p.nums = n, den, nums
        return p

    @property
    def terms(self) -> dict:
        """exponent tuple -> nonzero rational coefficient, built on each read."""
        den = self.den
        return {e: rat(c, den) for e, c in self.nums.items()}

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
        return not self.nums

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.nums), default=-1)

    def is_homogeneous(self) -> bool:
        return len({*map(sum, self.nums)}) <= 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.n == other.n and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.n, self.den, tuple(sorted(self.nums.items()))))

    def __repr__(self) -> str:
        if not self.nums:
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
        out = self.terms
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
        other_terms = other.terms
        for e1, c1 in self.terms.items():
            for e2, c2 in other_terms.items():
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

    # -- serialization ---------------------------------------------------
    def to_payload(self) -> list:
        """[exponent list, coefficient string] per term, in (degree,
        exponent) order, which is exponent order for a homogeneous
        polynomial; each string is the rat_str of the coefficient, num/den
        reduced by one gcd (none when den is 1)."""
        nums, den = self.nums, self.den
        if self.is_homogeneous():
            keys = sorted(nums)
        else:
            keys = sorted(nums, key=lambda e: (sum(e), e))
        if den == 1:
            return [[list(e), str(nums[e])] for e in keys]
        out = []
        for e in keys:
            c = nums[e]
            g = gcd(c, den)
            out.append([list(e), str(c // g) if g == den else f"{c // g}/{den // g}"])
        return out

    @classmethod
    def from_payload(cls, n: int, payload) -> "Poly":
        """The inverse of to_payload; ValueError unless every exponent vector
        holds n nonnegative ints (of type int: no bool, float or string is
        coerced), no exponent vector is named twice, and every coefficient
        string is "p" or "p/q" with q != 0.
        The checks run over the whole payload at once, and each distinct
        coefficient string or int is read once, straight to its numerator
        and denominator (rational.parse_ratio); an exact rational goes
        through to_rat, which refuses a bool or a float."""
        exps = [tuple(e) for e, _ in payload]
        if ({*map(len, exps)} - {n} or not all_ints(chain.from_iterable(exps))
                or min(chain.from_iterable(exps), default=0) < 0):
            bad = next(e for e in exps
                       if len(e) != n or not all_ints(e) or min(e, default=0) < 0)
            raise ValueError(f"exponent vector {list(bad)} is not {n} nonnegative ints")
        coeffs = [c for _, c in payload]
        if {*map(type, coeffs)} <= _STR_INT:     # no bool can meet an equal int here
            memo = {c: parse_ratio(c) if type(c) is str else (c, 1) for c in {*coeffs}}
            ratios = [*map(memo.__getitem__, coeffs)]
        else:
            ratios = [(int(r.numerator), int(r.denominator)) for r in map(to_rat, coeffs)]
        den = lcm(*{d for _, d in ratios})
        nums = dict(zip(exps, [c * (den // d) for c, d in ratios]))
        if len(nums) != len(exps):
            raise ValueError("the payload names an exponent vector twice")
        return cls.from_ints(n, nums, den)


def coefficient_rows(polys, columns=None) -> list:
    """The integer numerator row of each polynomial over a list of
    monomials: its coefficient vector times its positive den, which changes
    no rank and no span.

    columns defaults to the sorted union of the polynomials' monomials; a
    term outside a given column list raises KeyError.
    """
    if columns is None:
        columns = sorted({e for p in polys for e in p.nums})
    col = {e: i for i, e in enumerate(columns)}
    rows = []
    for p in polys:
        row = [0] * len(columns)
        for e, c in p.nums.items():
            row[col[e]] = c
        rows.append(row)
    return rows


@dataclass
class GradientContext:
    """Killing Gram matrix and its exact inverse for one algebra.

    gram_inv_int is linalg.inverse of the Gram matrix, (rows, g), held
    sparse: row i lists its nonzero (k, g * entry), g the LCM of the
    denominators of the inverse.  The inverse is validated on integers: the
    sparse product of the algebra's integer Killing rows with gram_inv_int
    must be g times the identity.
    """

    L: object
    gram: list = field(repr=False, init=False)
    gram_inv_int: tuple = field(repr=False, init=False)
    _pair_table: tuple = field(repr=False, init=False, default=None)

    def __post_init__(self):
        self.gram = self.L.killing
        inv, g = linalg.inverse(self.gram)
        inv_rows = [tuple((k, c) for k, c in enumerate(row) if c) for row in inv]
        self.gram_inv_int = inv_rows, g
        for i, row in enumerate(self.L.int_killing):
            acc: dict = {}
            for j, a in row:
                for k, c in inv_rows[j]:
                    acc[k] = acc.get(k, 0) + a * c
            if {k: c for k, c in acc.items() if c} != {i: g}:
                raise ValueError("Gram inverse validation failed")

    @property
    def nvars(self) -> int:
        return self.L.dim

    def pair_table(self) -> tuple:
        """Brackets of the coordinate functions on integers: (scale, rows).

        rows[i] lists (j, ((k, c), ...)) for every j with a nonzero bracket,
        meaning {x_i, x_j} = sum of c * x_k over scale; the table is
        antisymmetric in i and j and scale is the LCM of all its denominators.

        {x_i, x_j} is the linear function of the Killing lowering of
        [u_i, u_j], u_k the dual vector with (u_k, x) = x_k.  The inverse of
        the symmetric Gram matrix is symmetric, so u_k is row k of
        gram_inv_int (over g); the brackets are taken on the algebra's
        integer table (L.int_bracket, over g^2) and lowered on its integer
        Killing rows.  Every entry is then over g^2, and one gcd of that
        scale and all entries leaves the LCM of the denominators.
        """
        if self._pair_table is None:
            n = self.nvars
            inv_rows, g = self.gram_inv_int
            krows = self.L.int_killing
            scale = g * g
            duals = []
            for row in inv_rows:
                dense = [0] * n
                for k, c in row:
                    dense[k] = c
                duals.append((dense, g))
            pairs, lins = [], []
            for i in range(n):
                for j in range(i + 1, n):
                    v, _ = self.L.int_bracket(duals[i], duals[j])
                    if any(v):
                        pairs.append((i, j))
                        lin = [(k, sum(c * v[m] for m, c in krow))
                               for k, krow in enumerate(krows)]
                        lins.append([(k, c) for k, c in lin if c])
            common = gcd(scale, *(c for lin in lins for _, c in lin))
            rows = [[] for _ in range(n)]
            for (i, j), lin in zip(pairs, lins):
                rows[i].append((j, tuple((k, c // common) for k, c in lin)))
                rows[j].append((i, tuple((k, -c // common) for k, c in lin)))
            self._pair_table = (scale // common, rows)
        return self._pair_table


def _power_table(base: int, top: int) -> list:
    out = [1]
    for _ in range(top):
        out.append(out[-1] * base)
    return out


class CompiledPolys:
    """Integer form of a list of polynomials, compiled once for evaluation.

    scale is the LCM of the coefficient denominators of all the polynomials
    and top their largest total degree.  Each polynomial is kept as its terms
    (c, lift, support): c = scale * coefficient (an int), lift = top - |e|
    and support the pairs (k, e_k) with e_k > 0.  At a point x with common
    denominator D and integer numerators N = D x, every term of every
    polynomial over the one denominator scale * D^top is c N^e D^lift; the
    lift keeps non-homogeneous polynomials exact.  Values and partials are
    accumulated in ints, each term's product formed once (int_gradients
    says how a partial is read from it); values divides at the end, and
    int_gradients returns integer numerators over one denominator.

    With grad_at, a point, only the terms whose gradient there can be
    nonzero are kept: those with at most one exponent unit on its zero
    coordinates, since int_gradients adds nothing for any other term.
    scale and top stay those of all the terms, so at that point, and only
    there, int_gradients gives what the whole form gives.
    """

    __slots__ = ("n", "polys", "scale", "top")

    def __init__(self, polys, grad_at=None):
        polys = list(polys)
        self.n = polys[0].n if polys else 0
        for p in polys:
            if p.n != self.n:
                raise ValueError(f"variable count mismatch: {p.n} != {self.n}")
        self.scale = scale = lcm(*(p.den for p in polys))
        self.top = top = max([0] + [p.degree() for p in polys])
        zeros = None if grad_at is None else [not c for c in grad_at]
        self.polys = []
        for p in polys:
            lift = scale // p.den
            items = p.nums.items()
            if zeros is not None:
                items = [(e, c) for e, c in items if sum(compress(e, zeros)) <= 1]
            self.polys.append(tuple((c * lift, top - sum(e), tuple(compress(enumerate(e), e)))
                                    for e, c in items))

    def _tables(self, nums: list, den: int) -> tuple:
        """Power tables, up to the top degree, of each nonzero numerator N_k of
        a point (None for a zero coordinate, whose powers are never read) and
        of its denominator D."""
        return ([_power_table(c, self.top) if c else None for c in nums],
                _power_table(den, self.top))

    def int_values(self, nums: list, den: int) -> tuple:
        """p(x) for each compiled p at the point x = nums / den (integer
        numerators over a positive den), on integers: (numerators, whole),
        each value being its numerator over whole.  A term is dropped at its
        first zero coordinate."""
        if len(nums) != self.n:
            raise ValueError("point has wrong dimension")
        pw, dp = self._tables(nums, den)
        out = []
        for terms in self.polys:
            acc = 0
            for c, lift, support in terms:
                t = c * dp[lift] if lift else c
                for k, ek in support:
                    if not nums[k]:
                        break
                    t *= pw[k][ek]
                else:
                    acc += t
            out.append(acc)
        return out, self.scale * dp[self.top]

    def values(self, x) -> tuple:
        """p(x) for each compiled p at the cleared point x, as one canonical
        cleared vector."""
        return canonical(*self.int_values(*x))

    def int_gradients(self, ctx: "GradientContext", x) -> tuple:
        """dp(x) for each compiled p, the inverse Gram matrix applied to the
        coordinate partials, at the cleared point x = (N, D), on integers:
        (rows, den), row p holding the numerators of dp(x) over the one
        positive denominator den.

        Each term forms its product P = c N^e D^lift once, and its partial
        along a coordinate k of its support is e_k (P // N_k), an exact
        division.  A zero coordinate N_k = 0 is never divided by: when it is
        the term's only zero and e_k = 1, the term adds the product of its
        other factors to the partial along k alone; otherwise every partial
        of the term vanishes and it adds nothing.  Points of Hess are zero on
        most of the upper nilradical, so most terms stop at a zero.
        """
        nums, den = x
        if len(nums) != self.n:
            raise ValueError("point has wrong dimension")
        pw, dp = self._tables(nums, den)
        ginv_rows, ginv_scale = ctx.gram_inv_int
        n = self.n
        out = []
        for terms in self.polys:
            part = [0] * n
            for c, lift, support in terms:
                prod = c * dp[lift] if lift else c
                zero = None
                for k, ek in support:
                    if nums[k]:
                        prod *= pw[k][ek]
                    elif ek == 1 and zero is None:
                        zero = k
                    else:
                        break
                else:
                    if zero is not None:
                        part[zero] += prod
                    else:
                        for k, ek in support:
                            part[k] += ek * (prod // nums[k])
            row = []
            for grow in ginv_rows:
                num = 0
                for k, g in grow:
                    if part[k]:
                        num += g * part[k]
                row.append(num)
            out.append(row)
        return out, ginv_scale * self.scale * dp[max(self.top - 1, 0)]


def gradient(ctx: GradientContext, p: Poly, x) -> list:
    """dp(x): the vector whose Killing pairing with z differentiates p along z."""
    rows, den = CompiledPolys([p]).int_gradients(ctx, clear(x))
    return over(rows[0], den)


def _packing(n: int, top: int) -> tuple:
    """(unit, width) for packing exponent vectors of n variables into one int
    with width = top.bit_length() bits per variable.  Once every exponent of
    a term is at most top, no field carries into the next, so a monomial
    product is an int addition.  Variable 0 takes the most significant
    field, unit[k] = 1 << (width (n - 1 - k)), so packed ints sort as the
    exponent tuples do."""
    width = top.bit_length()
    return [1 << (width * (n - 1 - k)) for k in range(n)], width


def _pack(e, unit: list) -> tuple:
    """(packed exponent, support): support lists (k, e_k) for e_k > 0."""
    return sum(map(mul, e, unit)), tuple(compress(enumerate(e), e))


def _int_partials(f: Poly, unit: list) -> tuple:
    """(scale, partials): partials[k] maps packed exponent -> integer
    coefficient of scale * df/dx_k, scale being f's denominator."""
    out = [{} for _ in unit]
    for e, c in f.nums.items():
        packed = sum(map(mul, e, unit))
        for k, ek in compress(enumerate(e), e):
            out[k][packed - unit[k]] = c * ek
    return f.den, out


def _int_folds(rows: list, dq: list, unit: list, wanted):
    """Yield, for each row i of the integer pair table, the fold
    {x_i, q} = sum_j dq/dx_j {x_i, x_j} as packed exponent -> integer
    coefficient, from the integer partials dq of q.  A row with wanted[i]
    false is empty, and so is a row whose coefficients all cancel: an empty
    fold is a vanishing one.  Zeros may remain in the other rows."""
    for row, want in zip(rows, wanted):
        m: dict = {}
        if want:
            mget = m.get
            for j, lin in row:
                dqj = dq[j]
                for k, c in lin:
                    u = unit[k]
                    for e, d in dqj.items():
                        e += u
                        m[e] = mget(e, 0) + c * d
        yield m if any(m.values()) else {}


def _int_product(dp: list, folds) -> dict:
    """sum_i dp/dx_i * {x_i, q} on packed ints, from the integer partials of
    p and the folds of q (any iterable of them, read once in row order);
    zero coefficients may remain."""
    acc: dict = {}
    get = acc.get
    for dpi, m in zip(dp, folds):
        if dpi:
            for e2, c2 in m.items():
                if c2:
                    for e1, c1 in dpi.items():
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2
    return acc


def _unpack(n: int, width: int, acc: dict, scale: int) -> Poly:
    """The Poly of packed exponent -> integer coefficient over scale."""
    mask = (1 << width) - 1
    shifts = [width * (n - 1 - k) for k in range(n)]
    return Poly.from_ints(n, {tuple([(e >> s) & mask for s in shifts]): c
                              for e, c in acc.items() if c}, scale)


def poisson_bracket(ctx: GradientContext, p: Poly, q: Poly) -> Poly:
    """Exact symbolic bracket {p, q} = sum_ij dp/dx_i dq/dx_j {x_i, x_j}.

    The sum runs on integers.  p, q and the pair table are each read as
    integer numerators over one denominator, and the result is divided by
    the product of the three denominators at the end.  Exponent vectors are
    packed into one int with a fixed number of bits per variable (Monagan
    and Pearce, CASC 2007), so a monomial product is an int addition.  The
    bracket runs in three steps: the integer partials of p and q
    (_int_partials), the folds {x_i, q} = sum_j dq/dx_j {x_i, x_j}
    (_int_folds), taken only for the rows where dp/dx_i != 0, and the
    product sum_i dp/dx_i {x_i, q} (_int_product), each dp/dx_i multiplied
    once.  Each fold is multiplied
    as it is made, so one is alive at a time.  pairwise_commute runs the
    same steps once per family member instead of once per pair.
    """
    n = ctx.nvars
    if p.n != n or q.n != n:
        raise ValueError(f"variable count mismatch: {p.n}, {q.n} != {n}")
    # Every exponent of a product term is at most its total degree, which is
    # at most top; once top fits in width bits, no field carries into the next.
    top = p.degree() + q.degree() - 1
    if top < 1:
        return Poly.zero(n)
    unit, width = _packing(n, top)
    sp, dp = _int_partials(p, unit)
    sq, dq = _int_partials(q, unit)
    st, rows = ctx.pair_table()
    acc = _int_product(dp, _int_folds(rows, dq, unit, dp))
    return _unpack(n, width, acc, sp * sq * st)


def _mul_packed(a: dict, b: dict) -> dict:
    """Product of two polynomials held as packed exponent -> int coefficient."""
    out: dict = {}
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return out


def restrict_affine(polys, base, directions) -> list:
    """Each p restricted to s -> base + sum_g s_g directions[g], exactly,
    for a cleared base and cleared directions.

    The results are polynomials in len(directions) variables s_g.  With D
    the common denominator of base and the directions (rational.common_rows
    of the base and the directions), coordinate k becomes the integer affine
    form A_k(s) = D base_k + sum_g D directions[g]_k s_g over D, held with
    packed exponents (the width rule of poisson_bracket).
    As in CompiledPolys, a term c x^e of p (c its integer numerator over
    p.den, deg p's total degree) contributes c A^e D^(deg - |e|) over
    p.den D^deg, and each result is brought to canonical form by one gcd at
    the end.

    A coordinate whose form is a constant (on Hess, those of the upper
    nilradical: e1's coordinates and zeros) folds into the term's integer
    coefficient, and a term touching a zero form is skipped.  What remains
    of the term is a monomial in the free coordinates, those with
    non-constant forms; the terms of p are summed per such monomial, and
    each distinct monomial is expanded once for the whole list of
    polynomials, over power tables of the forms extended on demand.
    """
    polys = list(polys)
    n = len(base[0])
    for d, _ in directions:
        if len(d) != n:
            raise ValueError(f"direction has wrong dimension: {len(d)} != {n}")
    for p in polys:
        if p.n != n:
            raise ValueError(f"variable count mismatch: {p.n} != {n}")
    m = len(directions)
    den, (brow, *drows) = common_rows([base, *directions])
    # the constant of each constant form (0 for a zero form); None otherwise
    consts = [0] * n
    for k, c in brow:
        consts[k] = c
    for drow in drows:
        for k, _ in drow:
            consts[k] = None
    zero = [const == 0 for const in consts]
    # the terms of each p that touch no zero form, with their total degrees
    kept = [[(e, c, sum(e)) for e, c in p.nums.items() if not any(compress(e, zero))]
            for p in polys]
    # Every exponent of an output term is at most its total degree, which is
    # at most top; once top fits in width bits, no field carries into the next.
    top = max([0] + [size for terms in kept for _, _, size in terms])
    unit, width = _packing(m, top)
    forms = [{} for _ in range(n)]
    for k, c in brow:
        forms[k][0] = c
    for u, drow in zip(unit, drows):
        for k, c in drow:
            forms[k][u] = c
    free = [const is None for const in consts]
    free_ks = [k for k in range(n) if free[k]]
    scalars = [(k, const) for k, const in enumerate(consts) if const]
    # powers[k][e] = A_k^e, extended on demand
    powers = [[{0: 1}, form] for form in forms]
    dpow = _power_table(den, top)
    # exponents at free_ks -> the expansion of that monomial, packed
    expansions: dict = {(0,) * len(free_ks): {0: 1}}
    out = []
    for p, terms in zip(polys, kept):
        deg = max([size for _, _, size in terms], default=-1)
        grouped: dict = {}   # exponents at free_ks -> integer coefficient
        for e, c, size in terms:
            coef = c * dpow[deg - size]
            for k, const in scalars:
                if e[k]:
                    coef *= const ** e[k]
            mono = tuple(compress(e, free))
            grouped[mono] = grouped.get(mono, 0) + coef
        acc: dict = {}
        get = acc.get
        for mono, coef in grouped.items():
            if not coef:
                continue
            expansion = expansions.get(mono)
            if expansion is None:
                # one product per prefix of mono, each prefix kept for reuse
                prefix = [0] * len(mono)
                expansion = expansions[tuple(prefix)]
                for i, ek in enumerate(mono):
                    if ek:
                        prefix[i] = ek
                        key = tuple(prefix)
                        nxt = expansions.get(key)
                        if nxt is None:
                            pk = powers[free_ks[i]]
                            while len(pk) <= ek:
                                pk.append(_mul_packed(pk[-1], pk[1]))
                            nxt = expansions[key] = _mul_packed(expansion, pk[ek])
                        expansion = nxt
            for te, tc in expansion.items():
                acc[te] = get(te, 0) + coef * tc
        out.append(_unpack(m, width, acc, p.den * dpow[deg] if deg >= 0 else 1))
    return out
