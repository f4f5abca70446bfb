from fractions import Fraction

import pytest

from cuntzlim import GaussianRational, IMAG, ONE, ZERO, O, mono


def g(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_field_arithmetic():
    a = g(Fraction(1, 2), 3)
    b = g(-2, Fraction(1, 3))
    assert a + b == g(Fraction(-3, 2), Fraction(10, 3))
    assert a - b == g(Fraction(5, 2), Fraction(8, 3))
    assert a * b == g(-2, Fraction(-35, 6))
    assert (a * b) / b == a
    assert -a + a == ZERO


def test_i_squared_is_minus_one():
    assert IMAG * IMAG == -ONE


def test_conjugate_and_modulus():
    a = g(3, -4)
    assert a.conjugate() == g(3, 4)
    assert a * a.conjugate() == g(25)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_coercion_from_int_and_fraction():
    assert ONE + 1 == g(2)
    assert Fraction(1, 2) * g(2) == ONE
    assert 2 - g(1, 1) == g(1, -1)


def test_exactness_no_float_drift():
    x = g(Fraction(1, 3))
    acc = ZERO
    for _ in range(3):
        acc = acc + x
    assert acc == ONE


def test_int_parts_become_fractions():
    # ints are converted, so / stays exact instead of returning floats
    for z in (GaussianRational(1, 2), GaussianRational(1, 0) / GaussianRational(2, 0)):
        assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z.re == Fraction(1, 2) and z.im == 0


def test_non_rational_parts_refused():
    # a float would enter as its binary expansion and a string as a parsed
    # Fraction; both are refused wherever a scalar is made
    for v in (0.1, 0.5, "1/3", None):
        with pytest.raises(TypeError, match="int or Fraction"):
            GaussianRational(v, 0)
        with pytest.raises(TypeError, match="int or Fraction"):
            GaussianRational(0, v)
    with pytest.raises(TypeError):
        GaussianRational(1, 0) + 0.5
    with pytest.raises(TypeError):
        mono(O(2), (1,), (), 0.1)
    assert GaussianRational(True, 0) == ONE
