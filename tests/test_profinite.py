import math

import pytest

from cuntzlim import (
    HomError,
    K0Descriptor,
    O,
    O_INF,
    UHF,
    all_ones,
    discontinuity_report,
    f,
    from_digits,
    from_integer,
    induced_k0_map,
    k0,
    natural_surjection,
    nonintegrality_witness,
    project,
)
from cuntzlim.profinite import PAdicInt, ProfiniteInt, from_integer_p, project_pk


def test_profinite_canonical_value():
    x = ProfiniteInt(3, 100)
    assert x.modulus == 24 and x.value == 100 % 24


def test_digit_expansion_and_reconstruction():
    x = from_integer(1000, 6)
    # value = sum c_k * k!, 0 <= c_k <= k
    total = sum(c * math.factorial(k) for k, c in enumerate(x.digits, start=1))
    assert total == 1000 % x.modulus
    assert from_digits(x.digits).value == x.value


def test_digit_bounds():
    x = from_integer(123456, 8)
    for k, c in enumerate(x.digits, start=1):
        assert 0 <= c <= k


def test_all_ones_element():
    x = all_ones(5)
    assert x.digits == (1, 1, 1, 1, 1)
    assert x.value == sum(math.factorial(k) for k in range(1, 6))


def test_ring_operations_respect_truncation():
    a = from_integer(37, 4)
    b = from_integer(-14, 4)
    assert (a + b).value == from_integer(23, 4).value
    assert (a * b).value == from_integer(-518, 4).value
    assert (a - a).value == 0


def test_projection_and_natural_surjections():
    x = from_integer(1000, 6)
    assert project(x, 7) == 1000 % 7
    g = natural_surjection(12, 4)
    assert g(11) == 11 % 4
    with pytest.raises(ValueError):
        natural_surjection(10, 4)


def test_padic_digits():
    x = from_integer_p(11, 2, 6)
    assert x.digits == (1, 1, 0, 1, 0, 0)
    assert project_pk(x, 3) == 11 % 8
    y = from_integer_p(-1, 2, 4)
    assert y.digits == (1, 1, 1, 1)


def test_k0_descriptors():
    assert k0(O(5)) == K0Descriptor("CyclicMod", 4)
    assert k0(O_INF) == K0Descriptor("FreeRankOne")
    assert k0(UHF(2)) == K0Descriptor("DenominatorGroup", 2)


def test_induced_k0_maps_and_composition():
    # f(n, m): R_m -> R_n induces Z/m -> Z/n on unit classes
    h = f(2, 6)
    km = induced_k0_map(h)
    assert km.source_mod == 6 and km.target_mod == 2
    assert km(5) == 1
    inner = induced_k0_map(f(6, 12))
    assert km.compose(inner).target_mod == 2
    with pytest.raises(ValueError):
        induced_k0_map(f(2, 6)).compose(induced_k0_map(f(2, 4)))


def test_nonintegrality_witness_small_bound():
    # residues of the all-ones element: 1, 3, 9, 33, 153, ...
    # 153 mod 720 separates from [-100, 100]: both 153 and 720-153 exceed 100
    assert nonintegrality_witness(all_ones(12), 100) == 5
    assert nonintegrality_witness(all_ones(3), 100) is None


def test_nonintegrality_witness_large_bound():
    assert nonintegrality_witness(all_ones(12), 10 ** 6) == 10


def test_discontinuity_report_fields():
    rep = discontinuity_report(9, 10 ** 6)
    assert rep.injectivity_guaranteed
    assert rep.residues == [1, 3, 9, 33, 153, 873, 5913, 46233, 409113]
    assert rep.witness_depth == 10 and rep.witness_beyond_requested
    assert rep.witness_residue == 4037913
    assert rep.max_separating_bound == 409112
    assert rep.max_bound_witness_depth == 9
    assert "witness" in rep.to_text()
    assert "witness_depth=10" in rep.to_kv()


def test_discontinuity_report_small_bound_within_depth():
    rep = discontinuity_report(9, 100)
    assert rep.witness_depth == 5 and not rep.witness_beyond_requested


def _binary_digits(v, count):
    return [(v >> k) & 1 for k in range(count)]


def test_discontinuity_report_prints_only_determined_digits():
    # the all-ones element at depth 3 is 9 mod 4! = 24 = 2^3 * 3, so 9 and
    # 9 + 24 = 33 are both representatives: only the digits they share are
    # determined
    rep = discontinuity_report(3, 5)
    a, b = _binary_digits(9, 8), _binary_digits(33, 8)
    shared = next(k for k in range(8) if a[k] != b[k])
    assert list(rep.p_digits) == a[:shared] == [1, 0, 0]
    assert rep.p_determined == 3 and rep.p_precision == 8
    assert "4! determines only the first 3 digits" in rep.to_text()
    assert rep.to_kv().endswith("p_all_ones_digits=1,0,0\np_determined_digits=3\n")
    # v_3(10!) = 4 digits at p = 3; v_2(21!) = 18 covers a precision of 8
    rep = discontinuity_report(9, 10, p=3)
    assert rep.p_determined == 4 and len(rep.p_digits) == 4
    rep = discontinuity_report(20, 10)
    assert rep.p_determined == 18 and len(rep.p_digits) == 8
    assert "determine" not in rep.to_text() + rep.to_kv()


def test_discontinuity_report_default_digits_all_determined():
    # v_2(10!) = 8 is the default precision: every digit is printed
    rep = discontinuity_report(9, 10 ** 6)
    assert rep.p_determined == 8 and len(rep.p_digits) == 8
    assert list(rep.p_digits) == _binary_digits(all_ones(9).value, 8)
    assert "determine" not in rep.to_text() + rep.to_kv()


def test_discontinuity_report_validates_p_and_bound():
    for p, depth in ((4, 9), (9, 9), (1, 9), (0, 9), (5, 3), (11, 9), (10 ** 100, 9)):
        with pytest.raises(ValueError, match="need a prime p <= depth"):
            discontinuity_report(depth, 10, p=p)
    with pytest.raises(ValueError, match="bound must be >= 0"):
        discontinuity_report(9, -5)
    # a precision of 10^8 costs nothing: only v_p((depth+1)!) digits are built
    assert len(discontinuity_report(9, 10, p_precision=10 ** 8).p_digits) == 8
