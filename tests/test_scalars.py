import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


def test_text_forms():
    for x, text in ((g(Fraction(1, 2)), "1/2"), (IMAG, "i"), (-IMAG, "-i"),
                    (g(0, Fraction(-3, 2)), "-3/2 i"), (g(1, -2), "(1 - 2 i)"),
                    (g(-1, 1), "(-1 + i)")):
        assert str(x) == text


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


def parts(x):
    """(re, im) of a factor: a scalar's parts, an int or Fraction's value and 0."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def check_product(x, y):
    for p, q in ((x, y), (y, x)):
        (a, b), (c, d) = parts(p), parts(q)
        z, want = p * q, GaussianRational(a * c - b * d, a * d + b * c)
        assert z == want and hash(z) == hash(want)
        assert type(z.re) is Fraction and type(z.im) is Fraction
    assert x * y == y * x and hash(x * y) == hash(y * x)
    for v in (0.5, -1.0):
        with pytest.raises(TypeError):
            x * v
        with pytest.raises(TypeError):
            v * x


NONZERO = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
PART = st.one_of(st.just(Fraction(0)), NONZERO)
SCALAR = st.builds(GaussianRational, PART, PART)
REAL = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=9))


@settings(max_examples=200, deadline=None)
@given(SCALAR, st.one_of(SCALAR, REAL))
def test_product_rule(x, y):
    # the two-product shortcut for a real factor gives the four-product value
    check_product(x, y)


def test_product_rule_on_every_pattern_of_zero_parts():
    scalars = [g(re, im) for re in (0, Fraction(-2, 3)) for im in (0, 5)]
    for x, y in itertools.product(scalars, scalars + [0, 3, Fraction(7, 2)]):
        check_product(x, y)


def test_a_real_factor_costs_two_fraction_products(monkeypatch):
    # a product with a real factor on either side makes two Fraction
    # multiplications, one of two non-real factors makes four
    calls = []
    mul = Fraction.__mul__

    def counted(a, b):
        # Fraction(1, 2) * IMAG first asks Fraction, which declines
        out = mul(a, b)
        if out is not NotImplemented:
            calls.append((a, b))
        return out

    monkeypatch.setattr(Fraction, "__mul__", counted)
    real, nonreal = g(Fraction(3, 2)), g(2, Fraction(-1, 3))
    for x, y, count in ((ONE, ONE, 2), (real, nonreal, 2), (nonreal, real, 2),
                        (nonreal, 3, 2), (3, nonreal, 2), (Fraction(1, 2), IMAG, 2),
                        (nonreal, IMAG, 4), (IMAG, IMAG, 4)):
        del calls[:]
        x * y
        assert len(calls) == count, (x, y)
