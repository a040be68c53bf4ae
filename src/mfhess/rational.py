"""Exact rational scalars.

All arithmetic in this package is exact, and its one rational type is
fractions.Fraction; floats are rejected everywhere.  A Fraction is formed
only at the edges: outside input (to_rat) and the Poly coefficients of
polyring.  No module but this one and polyring imports a rational.

Every vector handed between modules (a point, the principal triple, the
shift direction) is a cleared vector in canonical form, (numerators, den)
with the numerators a tuple, den > 0 and gcd(den, *numerators) == 1, so two
vectors are equal exactly when their pairs are.  This module alone turns
rationals into integers over one scale and back: clear takes a rational
vector to integers over the LCM of its denominators, cleared to canonical
form and over back to rationals; draw samples a cleared vector, canonical
reduces one, combine adds two and common_rows puts several over one scale
(restrict_affine's base and directions).  reduced reduces a scalar, and
ratio_str formats one as rat_str formats its rational, with no Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

BACKEND = "fractions"   # the rational type, named in perfbench's run metadata


def rat(a=0, b=1):
    return Fraction(a, b)


R0 = rat(0)
R1 = rat(1)
_INT = {int}


def to_rat(x):
    """Coerce an int, "p/q" string or Fraction to a Fraction.

    A Fraction is immutable and returned as is: this is the common case, and
    rebuilding it would cost a gcd.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"exact rational required, got {type(x).__name__}")
    if isinstance(x, int):
        return rat(x)
    if isinstance(x, str):
        return rat(*parse_ratio(x))
    return rat(x)


def parse_ratio(s: str) -> tuple:
    """A "p" or "p/q" string as the ints (p, q), q > 0 and 1 for "p", not
    reduced; ValueError for any other string, a zero q among them."""
    num, slash, den = s.partition("/")
    if not slash:
        return int(s), 1
    num, den = int(num), int(den)
    if not den:
        raise ValueError(f"zero denominator in {s!r}")
    return (-num, -den) if den < 0 else (num, den)


def rat_str(x) -> str:
    """Canonical "p/q" (or "p") rendering."""
    return str(x)


def ratio_str(num: int, den: int) -> str:
    """The rat_str of num / den (den > 0), formed on ints."""
    num, den = reduced(num, den)
    return f"{num}/{den}" if den > 1 else str(num)


def all_ints(vec) -> bool:
    """Whether every element is of type int (no bool), read at C level, not
    by a Python generator."""
    return {*map(type, vec)} <= _INT


def clear(vec) -> tuple:
    """A vector of rationals or ints as (numerators, den): den the LCM of its
    denominators and numerators the ints den * vec.  A vector of ints
    (all_ints) is returned as it is, with den 1 and no LCM taken."""
    if all_ints(vec):
        return vec, 1
    den = 1
    for c in vec:
        if c:
            d = c.denominator
            if d != 1:
                den = math.lcm(den, d)
    if den == 1:
        return [c.numerator for c in vec], 1
    return [c.numerator * (den // c.denominator) for c in vec], den


def common_rows(vectors) -> tuple:
    """Cleared vectors (numerators, den) over their common denominator:
    (scale, rows), scale the LCM of the denominators and rows[i] the pairs
    (j, scale * entry j) over the nonzero entries of vector i.  For
    canonical vectors scale is the LCM of the denominators of their
    rationals."""
    scale = math.lcm(*(den for _, den in vectors))
    return scale, [tuple((j, c * (scale // den)) for j, c in enumerate(nums) if c)
                   for nums, den in vectors]


def over(nums, den: int) -> list:
    """The rationals nums[i] / den; den == 1 needs no gcd."""
    if den == 1:
        return [rat(v) if v else R0 for v in nums]
    return [rat(v, den) if v else R0 for v in nums]


def canonical(nums, den: int) -> tuple:
    """The cleared vector nums / den (den > 0) in canonical form: nums and
    den divided by gcd(den, *nums), the numerators as a tuple."""
    g = math.gcd(den, *nums)
    return tuple(v // g for v in nums), den // g


def reduced(num: int, den: int) -> tuple:
    """The rational num / den (den > 0) as the reduced pair of ints."""
    g = math.gcd(num, den)
    return num // g, den // g


def cleared(vec) -> tuple:
    """A vector of rationals or ints as its canonical cleared vector."""
    return canonical(*clear(vec))


def combine(u: tuple, v: tuple, t: int = 1) -> tuple:
    """u + t v for cleared vectors u and v and an int t, canonical."""
    (un, ud), (vn, vd) = u, v
    return canonical([a * vd + t * b * ud for a, b in zip(un, vn)], ud * vd)


def draw(rng, count: int, bound: int, top: int) -> tuple:
    """count random rationals a / q, each drawn as a = rng.randint(-bound,
    bound) and then q = rng.randint(1, top), as one canonical cleared
    vector: den is the LCM of the reduced denominators q / gcd(a, q)."""
    pairs = [(rng.randint(-bound, bound), rng.randint(1, top)) for _ in range(count)]
    den = math.lcm(*(q // math.gcd(a, q) for a, q in pairs))
    return tuple(a * den // q for a, q in pairs), den
