import hashlib
import math
import random
from fractions import Fraction

import pytest

from cuntzlim import (
    IMAG,
    Element,
    GaussianRational,
    O,
    O_INF,
    apply,
    discontinuity_report,
    f,
    f_inf,
    k0_class,
    mono,
    q,
    unit,
    zero,
)
from cuntzlim.profinite import REPORT_WITNESS_REACH


def test_all_ones_element():
    # the all-ones element has every factorial digit 1: its residue mod
    # (d+1)! is 1! + ... + d!
    rep = discontinuity_report(5, 100)
    assert rep.residues == [sum(math.factorial(k) for k in range(1, d + 1))
                            for d in range(1, 6)] == [1, 3, 9, 33, 153]
    assert "all_ones_residues=1,3,9,33,153\n" in rep.to_kv()


def _range_projection_sum(rng, tag):
    """A random sum of range projections s_w s_w* over a prefix-free word set:
    a random subset of the leaves of a random tree of words (O_inf expands
    over its first 6 letters)."""
    leaves = [()]
    for _ in range(rng.randint(0, 3)):
        w = leaves.pop(rng.randrange(len(leaves)))
        leaves += [w + (i,) for i in range(1, (tag.ngens or 6) + 1)]
    chosen = rng.sample(leaves, rng.randint(1, len(leaves)))
    return Element(tag, [((w, w), 1) for w in chosen])


def _k0_homs():
    homs = [f(n, m) for m in range(1, 13) for n in range(1, m + 1) if m % n == 0]
    return homs + [f_inf(n) for n in (1, 2, 3, 5)] + [q(2, 1), q(3, 1)]


def test_k0_class_is_kept_by_unital_homs():
    # [h(P)] = [P] reduced mod the codomain's k - 1, for P a sum of range
    # projections: every f(n, m) with n | m <= 12, f_inf and q
    rng = random.Random(17)
    homs = _k0_homs()
    assert len(homs) == 41
    for h in homs:
        for _ in range(20):
            p = _range_projection_sum(rng, h.domain)
            assert k0_class(apply(h, p)) == k0_class(p) % (h.codomain.ngens - 1), (h, p)


def test_k0_classes_under_f_and_its_composites():
    # f(n, m): R_m -> R_n induces Z/m -> Z/n, read from projections of each
    # class c: c orthogonal range projections s_k s_k*
    def projections(tag, c):
        return Element(tag, [(((k,), (k,)), 1) for k in range(1, c + 1)])

    assert k0_class(apply(f(2, 6), projections(O(7), 5))) == 1
    # f(2, 6) o f(6, 12) = f(2, 12) on classes: reduction mod 12, then mod 2
    for c in range(12):
        p = projections(O(13), c)
        assert k0_class(p) == c
        assert k0_class(apply(f(6, 12), p)) == c % 6
        assert k0_class(apply(f(2, 6), apply(f(6, 12), p))) == c % 2
        assert k0_class(apply(f(2, 12), p)) == c % 2


def test_k0_class_of_the_unit_and_in_O_inf():
    assert k0_class(unit(O(5))) == 1 and k0_class(zero(O(5))) == 0
    assert k0_class(-3 * unit(O(5))) == 1
    # O_2 has K0 = 0; O_inf's classes are integers, not reduced
    assert k0_class(unit(O(2)) + mono(O(2), (1,), (1,))) == 0
    assert k0_class(-2 * unit(O_INF) + 7 * mono(O_INF, (4, 9), (4, 9))) == 5


def test_k0_class_is_invariant_under_the_leavitt_rewrite():
    # s1 s4 s4* s1* in O_4 is canonically s1 s1* - s11 s11* - s12 s12* - s13 s13*
    e = mono(O(4), (1, 4), (1, 4))
    assert len(e.terms) == 4
    assert k0_class(e) == 1


def test_k0_class_refuses_non_projection_terms():
    for e in (mono(O(2), (1,), (2,)),
              GaussianRational(Fraction(1, 2), 0) * mono(O(2), (1,), (1,)),
              IMAG * unit(O(3))):
        with pytest.raises(ValueError, match="no K0 class"):
            k0_class(e)


def test_nonintegrality_witness_small_bound():
    # residues of the all-ones element: 1, 3, 9, 33, 153, ...
    # 153 mod 720 separates from [-100, 100]: both 153 and 720-153 exceed 100
    rep = discontinuity_report(12, 100)
    assert rep.witness_depth == 5 and not rep.witness_beyond_requested
    # no depth up to 3 separates: the witness lies past the requested depth
    rep = discontinuity_report(3, 100)
    assert rep.witness_depth == 5 and rep.witness_beyond_requested


def test_nonintegrality_witness_large_bound():
    rep = discontinuity_report(12, 10 ** 6)
    assert rep.witness_depth == 10 and not rep.witness_beyond_requested


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
    assert list(rep.p_digits) == _binary_digits(sum(math.factorial(k) for k in range(1, 10)), 8)
    assert "determine" not in rep.to_text() + rep.to_kv()


def test_discontinuity_report_validates_p_and_bound():
    for p, depth in ((4, 9), (9, 9), (5, 3), (11, 9), (10 ** 100, 9)):
        with pytest.raises(ValueError, match="need a prime p <= depth"):
            discontinuity_report(depth, 10, p=p)
    for p in (1, 0):
        with pytest.raises(ValueError, match="p must be >= 2, got %d" % p):
            discontinuity_report(9, 10, p=p)
    for p in (2.0, True):
        with pytest.raises(ValueError, match="p must be an int >= 2"):
            discontinuity_report(9, 10, p=p)
    with pytest.raises(ValueError, match="bound must be >= 0, got -5"):
        discontinuity_report(9, -5)
    # discontinuity_report(3, 1.5) answered for the bound 1.5
    for bound in (1.5, True):
        with pytest.raises(ValueError, match="bound must be an int >= 0"):
            discontinuity_report(3, bound)
    # a precision of 10^8 costs nothing: only v_p((depth+1)!) digits are built
    assert len(discontinuity_report(9, 10, p_precision=10 ** 8).p_digits) == 8


def test_discontinuity_report_refuses_depth_below_one():
    for depth in (0, -1):
        with pytest.raises(ValueError, match=r"^depth must be >= 1, got %d$" % depth):
            discontinuity_report(depth, 5)
    # discontinuity_report(2.0, 1) raised a TypeError
    for depth in (2.0, True):
        with pytest.raises(ValueError, match="depth must be an int >= 1"):
            discontinuity_report(depth, 1)


# SHA-256 of to_text() and to_kv() for (depth, bound, p, p_precision), taken
# from the report that rescanned the element for each depth past the requested
# one and took its p-adic digits from a finite-precision p-adic integer, but
# for (1, 0, 2, 8): that report gave the largest bound separable at depth 1
# no witness depth, and this pair is taken from the one that reads
# "witness depth 1"
GOLDEN_REPORTS = [
    ((1, 0, 2, 8),
     "3bc61f4cd844ce0c7df6112e34d047280e3a0529ffb8d469d28cd939192122eb",
     "14b79c0e42a2c0bd67264f4b6c44bf1b0fd0e0e3ffbb344272db0ccbb2afc664"),
    ((3, 5, 2, 8),
     "7ccade9ccd83c3fbf64b6a3f5783d9672ccdefdf218591054d1d92db9a65fa56",
     "9013737bcef059ca3798feee09cbde9e9ddb914dfffcaeef42a6cc2f5faf948a"),
    ((5, 100, 2, 8),
     "8ba8d82ed7eade283aad5f0701eeecf8de9958e5948c43651dfb613783b6a6c3",
     "4813e7acb619422623e8174a5acfbdfd3e201959916961db5c7a864d1d672828"),
    ((9, 10 ** 6, 2, 8),
     "056d6aaafb49186f3b26670d36e766c887be10f0905bda34187a21cc31012af7",
     "70241c929fccb13ea01cfba17d5a4cf88e60bbdb640bb32eaae4630c88f93c42"),
    ((9, 10, 3, 8),
     "9c33e84a0b131e4867d22ae889fb7f99be5988aae127a904eb9927be9602e8c9",
     "c2a4559beaf26800e4276d4872150c067ca09365da01fa278c791df15fcf08bc"),
    ((12, 100, 5, 50),
     "605b7ea4e030c3ad7cab71cdba25c7cdc5fa01f52695602a8e59d704650c2ee9",
     "9cdc4c98e0cb40e7ae3115f59aa2a848365d451bf0e4ca631ecc87196012780a"),
    ((20, 10, 7, 3),
     "fd627fc6024bf81ce348f1865c68d2944d474d11453cf6b3aee938e370b446e3",
     "ffedaa883d972ea046e0280ceabf819e5834aea3636e4cd06657e91c63ca5eb5"),
    ((40, 10 ** 200, 3, 1),
     "a00dea669282aafa1cffef56b81ecea72170a8f9253e666f5fdd69cc7fd4db95",
     "b33420ab277e28d0a18f12f977645913cba0cbde98bf3ea969dafe35b94afbab"),
    ((200, 10 ** 50, 7, 8),
     "a91b92d90bf386e69cf4bb2e14e9d1d0ab480c15a860107cbcb2a5bf9890bccb",
     "1cd5df539d9be0d7834a068ab65c2af91a80c8e13757c8f2fac84912c50fb117"),
    ((1000, 10 ** 3000, 2, 8),
     "f3a6ad9cd6c6649ab5b5209ff8728cfa37d0da04adbc9051552f69798e1b1c51",
     "3ecd25db3602a827731a61d96ea9aad997d3afba6e2e4e7fd97ddeb6292deccd"),
]


def _golden_id(params):
    depth, bound, p, precision = params
    return "%d-%s-%d-%d" % (depth, bound if bound < 10 ** 7 else "1e%d" % (len(str(bound)) - 1),
                            p, precision)


@pytest.mark.parametrize("params, text_sha, kv_sha", GOLDEN_REPORTS,
                         ids=[_golden_id(g[0]) for g in GOLDEN_REPORTS])
def test_discontinuity_report_golden(params, text_sha, kv_sha):
    depth, bound, p, precision = params
    rep = discontinuity_report(depth, bound, p=p, p_precision=precision)
    assert hashlib.sha256(rep.to_text().encode()).hexdigest() == text_sha
    assert hashlib.sha256(rep.to_kv().encode()).hexdigest() == kv_sha


def test_witness_is_looked_for_64_depths_past_the_requested_one():
    # against bound 73! the all-ones element first separates at depth 73 =
    # 9 + 64; against 74! it would first separate at depth 74, one too far
    rep = discontinuity_report(9, math.factorial(73))
    assert rep.witness_depth == 73 and rep.witness_beyond_requested
    assert rep.witness_residue == sum(math.factorial(k) for k in range(1, 74))
    assert discontinuity_report(10, math.factorial(74)).witness_depth == 74
    rep = discontinuity_report(9, math.factorial(74))
    assert rep.witness_depth is None and not rep.witness_beyond_requested
    assert "inconclusive" in rep.to_text()


def test_discontinuity_report_refuses_precision_below_one():
    for precision in (0, -1):
        with pytest.raises(ValueError, match="p_precision must be >= 1, got %d" % precision):
            discontinuity_report(9, 10, p_precision=precision)
    for precision in (2.5, True):
        with pytest.raises(ValueError, match="p_precision must be an int >= 1"):
            discontinuity_report(9, 10, p_precision=precision)


def _reference_report(depth, bound, sums):
    """The report's facts from their definitions: sums[d] = 1! + ... + d!
    reduced mod (d+1)!, the witness as the first depth, scanning up to
    REPORT_WITNESS_REACH past the requested one, at which neither
    representative of the class nearest 0 lies in [-bound, bound], and the
    largest bound some depth <= depth separates."""
    moduli = [math.factorial(d + 1) for d in range(1, depth + 1)]
    residues = [sums[d] for d in range(1, depth + 1)]
    wit = None
    for d in range(1, depth + REPORT_WITNESS_REACH + 1):
        m, r = math.factorial(d + 1), sums[d]
        if not (r <= bound or m - r <= bound):
            wit = d
            break
    seps = [min(r, m - r) - 1 for m, r in zip(moduli, residues)]
    best = max(seps + [0])
    return {
        "residue_moduli": moduli,
        "residues": residues,
        "injectivity_guaranteed": math.factorial(depth + 1) > 2 * bound,
        "witness_depth": wit,
        "witness_residue": sums[wit] if wit is not None else None,
        "witness_beyond_requested": wit is not None and wit > depth,
        "max_separating_bound": best,
        "max_bound_witness_depth": seps.index(best) + 1,
    }


def test_discontinuity_report_matches_its_definitions():
    top = 30 + REPORT_WITNESS_REACH
    sums = {d: sum(math.factorial(k) for k in range(1, d + 1)) % math.factorial(d + 1)
            for d in range(1, top + 1)}
    bounds = {0, 1}
    for k in range(1, top + 2):
        bounds |= {math.factorial(k) - 1, math.factorial(k), math.factorial(k) + 1}
    for depth in range(1, 31):
        for bound in sorted(bounds):
            rep = discontinuity_report(depth, bound)
            ref = _reference_report(depth, bound, sums)
            assert {key: getattr(rep, key) for key in ref} == ref, (depth, bound)
        # the largest separable bound is separated within the depth, one
        # more is not
        best = rep.max_separating_bound
        assert discontinuity_report(depth, best).witness_depth == \
            rep.max_bound_witness_depth <= depth
        past = discontinuity_report(depth, best + 1)
        assert past.witness_depth is None or past.witness_beyond_requested
