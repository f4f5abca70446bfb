import itertools

import pytest

from cuntzlim import (
    Chain,
    CoherentFamily,
    O,
    O_INF,
    apply,
    check_coherent,
    classify_monomial,
    decompose_element,
    decompose_word,
    equals,
    f,
    f_inf,
    in_K,
    in_L,
    in_L_inf,
    mono,
    psi,
    state_omega,
    unit,
    zero,
)
from cuntzlim.limits import is_q_inf_shape, is_v_shape, is_vstar_shape

O2 = O(2)


def all_words(max_len, min_len=1):
    for length in range(min_len, max_len + 1):
        yield from itertools.product((1, 2), repeat=length)


def brute_in_L(n, w):
    """Membership in the semigroup generated by blocks 1, 21, ..., 2^(n-1)1, 2^n."""
    blocks = [tuple([2] * k + [1]) for k in range(n)] + [(2,) * n]
    ok = {(): True}

    def rec(u):
        if u in ok:
            return ok[u]
        res = any(
            u[-len(b):] == b and rec(u[: -len(b)]) for b in blocks if len(b) <= len(u)
        )
        ok[u] = res
        return res

    return w != () and rec(tuple(w))


def test_semigroup_membership_examples():
    assert in_L(2, (2, 2, 1, 1))
    assert not in_L(2, (2, 2, 2))
    assert in_L(2, (2, 2))
    assert in_L_inf((2, 1))
    assert not in_L_inf((2, 2))
    assert in_K(2, (2, 2, 2, 2))
    assert not in_K(2, (2, 2, 1, 2))
    assert not in_K(3, (2, 2))


def test_L_membership_against_brute_force_oracle():
    for n in (1, 2, 3, 4):
        for w in all_words(10):
            assert in_L(n, w) == brute_in_L(n, w), (n, w)


def test_L_splits_as_disjoint_union():
    # L_n = L_inf union Y_n, disjointly
    for n in (2, 3):
        for w in all_words(10):
            if not in_L(n, w):
                continue
            kind, parts = decompose_word(n, w)
            if kind == "L_inf":
                assert in_L_inf(w)
            else:
                x, u = parts
                assert x + u == w
                assert in_K(n, u)
                assert x == () or in_L_inf(x)
                assert not in_L_inf(w)


def test_decompose_word_rejects_nonmembers():
    with pytest.raises(ValueError):
        decompose_word(2, (2, 2, 2))
    # classify_monomial rejects the same words, and letters other than 1, 2
    for left, right in [((2, 2, 2), ()), ((), (1, 2))]:
        with pytest.raises(ValueError, match="not in L_2"):
            classify_monomial(2, left, right)
    for left, right in [((3, 1), ()), ((1,), (1, 3))]:
        with pytest.raises(ValueError, match="letters 1 and 2"):
            classify_monomial(2, left, right)


def test_shape_predicates_disjoint():
    for n in (2, 3):
        for l in all_words(6, min_len=0):
            for r in ((), (1,), (2, 1), (2,) * n):
                flags = [
                    is_q_inf_shape(l, r),
                    is_v_shape(n, l, r),
                    is_vstar_shape(n, l, r),
                ]
                assert sum(flags) <= 1


def test_range_projection_identity():
    # t2^n t2*^n = I - sum_{k<n} t2^k t1 t1* t2*^k
    for n in range(1, 9):
        lhs = mono(O2, (2,) * n, (2,) * n)
        rhs = unit(O2)
        for k in range(n):
            rhs = rhs - mono(O2, (2,) * k + (1,), (2,) * k + (1,))
        assert equals(lhs, rhs), n


def test_classify_monomial_worked_example():
    qp, vp, vs = classify_monomial(2, (2, 2), (2, 2))
    target = unit(O2) - mono(O2, (1,), (1,)) - mono(O2, (2, 1), (2, 1))
    assert equals(qp, target)
    assert vp.is_zero() and vs.is_zero()


def test_classify_monomial_pure_shift_parts():
    # s_22 with trivial right side is a pure V_2 element
    qp, vp, vs = classify_monomial(2, (2, 2), ())
    assert qp.is_zero() and vs.is_zero()
    assert equals(vp, mono(O2, (2, 2), ()))
    qp, vp, vs = classify_monomial(2, (), (2, 2))
    assert qp.is_zero() and vp.is_zero()


def test_decompose_element_sums_back_and_shapes():
    words = [()] + [w for w in all_words(6) if in_L(2, w)]
    for l in words[:20]:
        for r in words[:20]:
            e = mono(O2, l, r)
            qp, vp, vs = decompose_element(2, e)
            assert equals(qp + vp + vs, e)
            for (wl, wr) in qp.terms:
                assert is_q_inf_shape(wl, wr)
            for (wl, wr) in vp.terms:
                assert is_v_shape(2, wl, wr)
            for (wl, wr) in vs.terms:
                assert is_vstar_shape(2, wl, wr)


def test_decompose_element_after_sibling_rewrite():
    # s21 s21' + s22 s22' = s2 s2' = I - s1 s1': canonical words stay in L_2
    e = mono(O2, (2, 1), (2, 1)) + mono(O2, (2, 2), (2, 2))
    qp, vp, vs = decompose_element(2, e)
    assert qp + vp + vs == e
    assert vp.is_zero() and vs.is_zero()
    assert all(is_q_inf_shape(wl, wr) for (wl, wr) in qp.terms)


def test_coherent_family_checks():
    ch = Chain((1, 2, 4))
    x = mono(O_INF, (2,), (5,))
    fam = psi(ch, x)
    assert check_coherent(fam)
    # breaking one entry is detected
    entries = list(fam.entries)
    entries[0] = entries[0] + unit(O(2))
    assert not check_coherent(CoherentFamily(ch, tuple(entries)))


def test_psi_compatible_with_connecting_maps():
    ch = Chain((1, 3, 6))
    x = mono(O_INF, (4, 1), (2,))
    fam = psi(ch, x)
    for (nk, ek) in zip(ch, fam.entries):
        assert equals(ek, apply(f_inf(nk), x))


def test_state_values():
    assert state_omega(1, unit(O2)).re == 1
    assert state_omega(1, mono(O2, (1, 1), (1,))).re == 1
    assert state_omega(1, mono(O2, (2,), (1,))).re == 0
    assert state_omega(1, mono(O2, (1,), (2, 1))).re == 0


def test_state_compatibility_with_connecting_maps():
    for (n, m) in [(1, 2), (1, 4), (2, 4), (3, 6), (2, 6)]:
        h = f(n, m)
        tag = O(m + 1)
        for l in itertools.product(range(1, m + 2), repeat=2):
            e = mono(tag, l, (1,))
            assert state_omega(n, apply(h, e)) == state_omega(m, e)


def test_state_positivity_on_samples(rng):
    from conftest import random_element

    for _ in range(60):
        e = random_element(rng, O2)
        val = state_omega(1, e.star() * e)
        assert val.im == 0 and val.re >= 0
