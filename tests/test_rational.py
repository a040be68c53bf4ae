from fractions import Fraction

import pytest

from mfhess.rational import R1, rat, to_rat


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
