"""Exact rational scalars.

All arithmetic in this package is exact.  When gmpy2 is available its mpq
type is used (much faster than fractions.Fraction); otherwise Fraction is a
drop-in fallback.  Floats are rejected everywhere.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def rat(a=0, b=1):
        return _mpq(a, b)

    BACKEND = "gmpy2"
except ImportError:
    def rat(a=0, b=1):
        return Fraction(a, b)

    BACKEND = "fractions"

R0 = rat(0)
R1 = rat(1)


def to_rat(x):
    """Coerce an int, "p/q" string, Fraction, or backend rational."""
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"exact rational required, got {type(x).__name__}")
    if isinstance(x, int):
        return rat(x)
    if isinstance(x, str):
        s = x.strip()
        if "/" in s:
            num, den = s.split("/")
            return rat(int(num), int(den))
        return rat(int(s))
    if isinstance(x, Fraction):
        return rat(x.numerator, x.denominator)
    return rat(x)


def rat_str(x) -> str:
    """Canonical "p/q" (or "p") rendering, stable across backends."""
    return str(x)


def factorial_rat(k: int):
    out = R1
    for i in range(2, k + 1):
        out = out * i
    return out
