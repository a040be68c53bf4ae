import ast
import math
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mfhess import rational
from mfhess.rational import R1, clear, parse_ratio, rat, to_rat

ints = st.integers(-10 ** 6, 10 ** 6)
fracs = st.fractions(min_value=-50, max_value=50, max_denominator=60)


def test_fraction_is_the_one_rational_type():
    assert type(rat(1, 2)) is Fraction and rat(1, 2) == Fraction(1, 2)
    assert type(to_rat("1/2")) is Fraction and type(to_rat(3)) is Fraction
    assert rational.BACKEND == "fractions"


def test_to_rat_coercions():
    assert to_rat(3) == rat(3)
    assert to_rat(" -3/6 ") == rat(-1, 2)
    assert to_rat("7") == rat(7)
    assert to_rat(Fraction(2, 4)) == rat(1, 2)
    x = rat(5, 3)
    assert to_rat(x) is x
    assert to_rat(R1) is R1
    for bad in (True, False, 1.5, 2.0):
        with pytest.raises(TypeError):
            to_rat(bad)


@settings(max_examples=100, deadline=None)
@given(fracs)
def test_parse_ratio_reads_rat_str(f):
    num, den = parse_ratio(str(f))
    assert den > 0 and Fraction(num, den) == f


def test_parse_ratio_keeps_the_to_rat_syntax():
    """"p" and "p/q" with the spaces and signs that int() reads, not
    reduced, the sign moved to the numerator; a zero denominator, like any
    other malformed string, is a ValueError in parse_ratio and in to_rat."""
    assert parse_ratio("7") == (7, 1)
    assert parse_ratio(" -3/6 ") == (-3, 6)
    assert parse_ratio("1/-2") == (-1, 2)
    assert parse_ratio("-4/-6") == (4, 6)
    for bad in ("1/0", "-5/0", "0/0", "x", "1/2/3", "", "/2", "1/", "1.5"):
        with pytest.raises(ValueError):
            parse_ratio(bad)
        with pytest.raises(ValueError):
            to_rat(bad)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(ints, fracs), max_size=8))
@example([])
@example([0, 3, -2])
@example([Fraction(0), Fraction(4)])
@example([1, Fraction(1, 6), Fraction(-3, 4)])
def test_clear_scales_by_the_lcm_of_denominators(row):
    """An int row comes back as the same object with den 1; any other row
    (Fractions, or ints mixed with Fractions) as the ints den * row over the
    LCM of its denominators."""
    nums, den = clear(row)
    if all(type(c) is int for c in row):
        assert nums is row and den == 1
        return
    assert den == math.lcm(1, *(Fraction(c).denominator for c in row))
    assert all(type(v) is int for v in nums)
    assert nums == [Fraction(c) * den for c in row]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda ncols: st.lists(st.lists(fracs, min_size=ncols, max_size=ncols), max_size=5)),
       st.integers(1, 7))
@example([], 1)
@example([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(2, 3)]], 5)
def test_common_rows_of_canonical_vectors_is_clear_rows(helpers, mat, k):
    """common_rows of the canonical cleared vectors of a matrix's rows gives
    the Fraction reference clear_rows of the matrix: the scale is the LCM
    of every denominator and row i lists (j, scale * mat[i][j]) for the
    nonzero entries, in column order; vectors that are not reduced
    (numerators and denominator times k) give the same rows over k times
    the scale."""
    clear_rows = helpers.clear_rows
    vectors = [rational.cleared(row) for row in mat]
    assert rational.common_rows(vectors) == clear_rows(mat)
    if mat:
        scale, rows = clear_rows(mat)
        scaled_up = [([k * v for v in nums], k * den) for nums, den in vectors]
        assert rational.common_rows(scaled_up) == (
            k * scale, [tuple((j, k * c) for j, c in row) for row in rows])


@settings(max_examples=200, deadline=None)
@given(ints, st.integers(1, 10 ** 6))
@example(0, 7)
@example(-6, 4)
@example(5, 1)
def test_reduced_and_ratio_str_match_fraction(num, den):
    """reduced gives the numerator and denominator of the Fraction num / den,
    and ratio_str its rat_str, with no Fraction built."""
    f = Fraction(num, den)
    assert rational.reduced(num, den) == (f.numerator, f.denominator)
    assert rational.ratio_str(num, den) == rational.rat_str(f)


RATIONAL_NAMES = {"rat", "R0", "R1", "over"}


def test_only_rational_and_polyring_import_rationals():
    """No module of the package but rational and polyring imports fractions
    or a rational constructor (rat, R0, R1, over): the others compute on
    ints and cleared vectors."""
    src = os.path.dirname(rational.__file__)
    found = {}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name in ("rational.py", "polyring.py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {a.name for a in node.names} & {"fractions"}
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names} & RATIONAL_NAMES
                if node.module == "fractions":
                    names.add("fractions")
            else:
                continue
            if names:
                found.setdefault(name, set()).update(names)
    assert not found
