"""Randomized property suites for the core calculus."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cuntzlim import (
    GaussianRational,
    O,
    O_INF,
    equals,
    mono,
    normalize,
    unit,
    zero,
)
from cuntzlim.algebra import Element, adjoint, multiply

from conftest import random_element, random_scalar, random_table, random_word
from oracle import expansion_equal, shuffled_leavitt

TAGS = [O(2), O(3), O(4), O_INF]


def test_normal_form_confluence_under_randomized_order(rng):
    # the Leavitt rewrite in a shuffled order reaches the constructor's table,
    # and that table is the raw one's value by the expansion oracle
    for _ in range(300):
        tag = rng.choice(TAGS[:3])
        raw = random_table(rng, tag)
        canon = Element(tag, raw).terms
        assert shuffled_leavitt(raw, tag.ngens, rng) == canon
        assert expansion_equal(raw, canon, tag.ngens)


def test_normalize_idempotent(rng):
    for _ in range(300):
        e = random_element(rng, rng.choice(TAGS))
        assert normalize(e).terms == e.terms


def test_ring_axioms(rng):
    for _ in range(250):
        tag = rng.choice(TAGS)
        a = random_element(rng, tag)
        b = random_element(rng, tag)
        c = random_element(rng, tag)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert equals((a * b) * c, a * (b * c))
        assert equals(a * (b + c), a * b + a * c)
        assert equals((a + b) * c, a * c + b * c)
        assert a * unit(tag) == a and unit(tag) * a == a
        assert (a * zero(tag)).is_zero()


def test_involution_axioms(rng):
    for _ in range(250):
        tag = rng.choice(TAGS)
        a = random_element(rng, tag)
        b = random_element(rng, tag)
        la = random_scalar(rng)
        assert adjoint(adjoint(a)) == a
        assert adjoint(a + b) == adjoint(a) + adjoint(b)
        assert equals(adjoint(multiply(a, b)), multiply(adjoint(b), adjoint(a)))
        assert adjoint(la * a) == la.conjugate() * adjoint(a)


def test_scalar_module_axioms(rng):
    for _ in range(150):
        tag = rng.choice(TAGS)
        a = random_element(rng, tag)
        la, mu = random_scalar(rng), random_scalar(rng)
        assert la * (mu * a) == (la * mu) * a
        assert (la + mu) * a == la * a + mu * a


def test_equality_oracle_consistent_with_normal_form(rng):
    # structurally equal normal forms must be oracle-equal, and the oracle
    # respects the vector space structure
    for _ in range(200):
        tag = rng.choice(TAGS)
        a = random_element(rng, tag)
        b = random_element(rng, tag)
        assert equals(a, a)
        assert equals(a + b - b, a)
        if not equals(a, b):
            assert not (a - b).is_zero()


def test_expansion_soundness(rng):
    # rewriting s_J s_K* as the sum over one-step right extensions is an
    # identity, so canonicalization must map both sides to one table
    for _ in range(200):
        tag = rng.choice(TAGS[:3])
        n = tag.ngens
        l = random_word(rng, n, 3)
        r = random_word(rng, n, 3)
        e = mono(tag, l, r)
        expanded = zero(tag)
        for i in range(1, n + 1):
            expanded = expanded + mono(tag, l + (i,), r + (i,))
        assert e == expanded


def _oracle_pairs(rng, tag):
    """Pairs (a, b, equal by construction or None) over one tag."""
    n = tag.ngens
    letters = n if tag.is_finite else 6
    a, b, c = (random_element(rng, tag, max_terms=3) for _ in range(3))
    yield a, b, None
    yield multiply(multiply(a, b), c), multiply(a, multiply(b, c)), True
    yield adjoint(multiply(a, b)), multiply(adjoint(b), adjoint(a)), True
    l, r = random_word(rng, letters, 3), random_word(rng, letters, 3)
    k = random_scalar(rng)
    siblings = {(l + (i,), r + (i,)): k for i in range(1, letters + 1)}
    yield a + k * mono(tag, l, r), Element(tag, siblings) + a, tag.is_finite or k.is_zero()
    moved = dict(siblings)
    moved[l + (1,), r + (1,)] = k + 1
    yield a + k * mono(tag, l, r), Element(tag, moved) + a, False


def test_structural_equals_agrees_with_expansion_oracle(rng):
    for _ in range(150):
        for tag in TAGS:
            for a, b, want in _oracle_pairs(rng, tag):
                verdict = equals(a, b)
                assert verdict == expansion_equal(a.terms, b.terms, tag.ngens)
                assert verdict == (a == b) and (not verdict or hash(a) == hash(b))
                if want is not None:
                    assert verdict == want


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(1, 2), max_size=3),
            st.lists(st.integers(1, 2), max_size=3),
            st.fractions(min_value=-3, max_value=3),
        ),
        max_size=5,
    )
)
def test_hypothesis_normal_form_is_stable(triples):
    tag = O(2)
    e = zero(tag)
    for l, r, c in triples:
        e = e + GaussianRational(c, Fraction(0)) * mono(tag, l, r)
    again = normalize(e)
    assert again.terms == e.terms
    assert equals(e, again)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=3),
    st.lists(st.integers(1, 3), max_size=3),
    st.lists(st.integers(1, 3), max_size=3),
)
def test_hypothesis_monomial_multiplication_associative(a, b, c):
    tag = O(3)
    x, y, z = mono(tag, a), mono(tag, (), b), mono(tag, c, c)
    assert equals((x * y) * z, x * (y * z))
