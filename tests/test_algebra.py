from fractions import Fraction

import pytest

from cuntzlim import (
    ONE,
    AlgebraError,
    AlgebraTag,
    Element,
    GaussianRational,
    O,
    O_INF,
    equals,
    gen,
    mono,
    normalize,
    unit,
    zero,
)
from cuntzlim import algebra
from cuntzlim.algebra import add, adjoint, multiply, scale
from cuntzlim.homs import apply, f
from cuntzlim.limits import decompose_element
from cuntzlim.verify import verify_decomposition

from conftest import random_element, random_scalar
from oracle import pairs, reference


O2 = O(2)
O3 = O(3)


def test_tag_validation():
    for bad in (1, 0):
        with pytest.raises(AlgebraError, match="generator count must be >= 2, got %d" % bad):
            O(bad)
    # O_2.5 does not exist, and O_2.0 and O_True would be tags unequal to O_2
    for bad in (2.5, 2.0, True):
        with pytest.raises(AlgebraError, match="generator count must be an int >= 2"):
            AlgebraTag(bad)
    assert O_INF.ngens is None
    assert not O_INF.is_finite


def test_tags_compare_by_generator_count():
    # two tags of one algebra are equal whether or not they are one object
    for tag in (O(3), O3):
        assert tag == O3 and not tag != O3 and hash(tag) == hash(O3)
    assert O3 != O(4) and not O3 == O(4) and O3 != O_INF and O_INF == AlgebraTag(None)
    assert O2 != 2 and not O2 == 2


def test_generator_index_bounds():
    gen(O2, 2)
    with pytest.raises(AlgebraError):
        gen(O2, 3)
    with pytest.raises(AlgebraError, match="generator index must be >= 1, got 0"):
        gen(O2, 0)
    for tag, bad in ((O3, 2.0), (O3, True), (O_INF, 1.0)):
        with pytest.raises(AlgebraError, match="generator index must be an int >= 1"):
            gen(tag, bad)
    gen(O_INF, 10 ** 6)


def test_mono_rejects_out_of_range_letters():
    # unrefused, 1.0 and True would be letters of an Element's word
    for tag, bad, message in ((O2, 3, "3 out of range"), (O3, 4, "4 out of range"),
                              (O2, 0, "must be >= 1, got 0"),
                              (O2, 1.0, "must be an int >= 1"), (O2, True, "must be an int >= 1")):
        for left, right in (((1, bad), ()), ((1,), (bad, 1)), ((bad,), ())):
            with pytest.raises(AlgebraError, match="generator index " + message):
                mono(tag, left, right)


def test_operations_trust_checked_words(monkeypatch):
    # words are checked where they enter (mono, gen, parse, and the raw
    # words of the limits functions); what the library builds from checked
    # words is not checked again
    a = gen(O2, 1) + mono(O2, (2, 1), (1,), 3)
    b = mono(O2, (1, 2, 2), (2, 2))
    x = mono(O3, (3, 1), (2,)) + gen(O3, 3)
    h = f(1, 2)
    calls = []
    check = AlgebraTag.check_word
    monkeypatch.setattr(AlgebraTag, "check_word",
                        lambda tag, w: calls.append(w) or check(tag, w))
    multiply(a, b)
    add(a, b)
    adjoint(a)
    scale(2, a)
    apply(h, x)
    decompose_element(2, a + b)
    # the suite builds its own words over {1, 2}, as x 2^p
    verify_decomposition(2, 4)
    assert calls == []


def test_cuntz_relations():
    for i in (1, 2):
        for j in (1, 2):
            p = gen(O2, i).star() * gen(O2, j)
            expected = unit(O2) if i == j else zero(O2)
            assert p == expected


def test_completeness_collapses_in_finite_algebra():
    s = mono(O2, (1,), (1,)) + mono(O2, (2,), (2,))
    assert s == unit(O2)
    t = sum((mono(O3, (i,), (i,)) for i in (1, 2, 3)), zero(O3))
    assert t == unit(O3)


def test_no_completeness_in_o_infinity():
    s = mono(O_INF, (1,), (1,)) + mono(O_INF, (2,), (2,))
    assert not equals(s, unit(O_INF))
    # but isometry relations still hold
    assert gen(O_INF, 7).star() * gen(O_INF, 7) == unit(O_INF)
    assert gen(O_INF, 7).star() * gen(O_INF, 8) == zero(O_INF)


def test_nested_collapse():
    # sum over all length-2 left words at fixed right word collapses twice
    e = zero(O2)
    for i in (1, 2):
        for j in (1, 2):
            e = e + mono(O2, (i, j), (i, j))
    assert e == unit(O2)


def test_partial_sibling_set_does_not_collapse():
    e = mono(O3, (1,), (1,)) + mono(O3, (2,), (2,))
    assert len(e.terms) == 2


def test_normal_form_unique_structural_equality():
    a = mono(O2, (1,), (2,)) + mono(O2, (2, 1), (2, 2))
    b = normalize(a)
    assert a == b and a.terms == b.terms


def test_multiplication_prefix_rule():
    # (s1 (s2 s1)*)(s2 s1*) = s1 (s1 s1)*: shared prefix of the middle words cancels
    a = mono(O2, (1,), (2, 1))
    b = mono(O2, (2,), (1,))
    assert a * b == mono(O2, (1,), (1, 1))
    # orthogonal words annihilate
    assert mono(O2, (1,), (1,)) * mono(O2, (2,), ()) == zero(O2)


def test_adjoint_is_involutive_antihomomorphism():
    a = mono(O2, (1, 2), (2,))
    b = mono(O2, (2,), (1,))
    assert adjoint(adjoint(a)) == a
    assert adjoint(multiply(a, b)) == multiply(adjoint(b), adjoint(a))


def test_equality_oracle_agrees_across_grades():
    # s1 s1* + s2 s2* = I mixes with a grade-1 term untouched
    e = mono(O2, (1,), (1,)) + mono(O2, (2,), (2,)) + gen(O2, 1)
    assert equals(e, unit(O2) + gen(O2, 1))
    assert not equals(e, unit(O2))


def test_equality_oracle_expansion_path():
    # identity written at depth 2 on one side, depth 0 on the other; the
    # expansion oracle sees it on the raw tables, equals on canonical ones
    raw = {((i, j), (i, j)): ONE for i in (1, 2) for j in (1, 2)}
    assert reference.equal(pairs(raw), pairs(unit(O2).terms), 2)
    lhs = Element(O2, raw) * (unit(O2) + gen(O2, 1)) - unit(O2) * gen(O2, 1)
    assert equals(lhs, unit(O2))


def test_equal_elements_have_equal_tables_and_hashes():
    a = unit(O2) - mono(O2, (1,), (1,))
    b = mono(O2, (2,), (2,))
    assert equals(a, b) and a == b and hash(a) == hash(b)
    assert a.terms == {((1,), (1,)): -ONE, ((), ()): ONE}


def test_mixed_algebra_operations_rejected():
    with pytest.raises(AlgebraError):
        gen(O2, 1) + gen(O3, 1)
    with pytest.raises(AlgebraError):
        gen(O2, 1) * gen(O_INF, 1)


def test_zero_coefficients_dropped():
    e = mono(O2, (1,), ()) - mono(O2, (1,), ())
    assert e.is_zero() and e.terms == {}


def _nonzero_scalar(rng):
    while True:
        c = random_scalar(rng)
        if not c.is_zero():
            return c


def test_adjoint_and_scale_agree_with_the_constructor(rng):
    # adjoint and scale wrap their tables without the constructor; building
    # the same pairs through Element, which combines and rewrites, must give
    # the same table
    for tag in (O2, O3, O(4), O_INF):
        for _ in range(75):
            e = random_element(rng, tag)
            swapped = [((r, l), c.conjugate()) for (l, r), c in e.terms.items()]
            assert adjoint(e).terms == Element(tag, swapped).terms, e
            for c in (_nonzero_scalar(rng), GaussianRational(0, 0)):
                scaled = [(k, c * v) for k, v in e.terms.items()]
                assert scale(c, e).terms == Element(tag, scaled).terms, (c, e)
                assert scale(c, e).tag == tag


def test_one_to_one_maps_run_no_rewrite(monkeypatch, rng):
    # adjoint, scale by a nonzero scalar and decompose_element map a
    # canonical table one-to-one onto canonical tables, so the constructor
    # and its Leavitt rewrite never run
    e = mono(O2, (2, 1), (1,), 3) + mono(O2, (1,), (2, 2), GaussianRational(1, 2)) \
        + mono(O2, (2, 2), (1, 1)) + unit(O2)
    x = random_element(rng, O3) + mono(O3, (3, 1), (2,))
    want = (adjoint(e), adjoint(x), scale(Fraction(-1, 2), x), decompose_element(2, e))

    def refuse(e):
        raise AssertionError("normalize called")

    monkeypatch.setattr(algebra, "normalize", refuse)
    with pytest.raises(AssertionError, match="normalize called"):
        Element(O2, e.terms)
    got = (adjoint(e), adjoint(x), scale(Fraction(-1, 2), x), decompose_element(2, e))
    assert got == want
    assert all(p.terms is not e.terms for p in got[3])


def test_scalars_multiply_on_either_side():
    e = mono(O2, (2, 1), (1,), 3) + gen(O2, 2)
    for c in (2, Fraction(1, 2), GaussianRational(0, 1)):
        assert e * c == c * e == scale(c, e)
    assert e * 0 == 0 * e == zero(O2)


@pytest.mark.parametrize("op", [
    lambda e: e + 1, lambda e: 1 + e, lambda e: e - 1, lambda e: 1 - e,
    lambda e: e * "x", lambda e: e * 2.0, lambda e: 2.0 * e,
], ids=["e + 1", "1 + e", "e - 1", "1 - e", "e * 'x'", "e * 2.0", "2.0 * e"])
def test_operands_that_are_not_elements_or_scalars_raise_type_error(op):
    with pytest.raises(TypeError):
        op(mono(O2, (1,), (2,)))
