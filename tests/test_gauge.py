import itertools
from fractions import Fraction

import pytest

from cuntzlim import (
    AlgebraError,
    AlgebraTag,
    DigitMap,
    GenHom,
    HomError,
    O,
    apply,
    compose,
    f,
    f_inf,
    gauge_witness,
    gen,
    is_diagonal,
    is_gauge_invariant,
    mono,
    q,
    rn,
    uhf_chain_check,
    unit,
    validate_prefix_code,
)

from conftest import run_python, uncoded
from oracle import gauge_witness_by_enumeration, uhf_member

O2 = O(2)


def test_grade_predicates():
    assert is_gauge_invariant(unit(O2))
    assert is_gauge_invariant(mono(O2, (1, 2), (2, 1)))
    assert not is_gauge_invariant(gen(O2, 1))
    assert is_diagonal(mono(O2, (1, 2), (1, 2)) + unit(O2))
    assert not is_diagonal(mono(O2, (1, 2), (2, 1)))


def test_connecting_maps_preserve_diagonal():
    for (n, m) in [(1, 2), (2, 4), (1, 4), (3, 6)]:
        tag = O(m + 1)
        for w in itertools.chain.from_iterable(
                itertools.product(range(1, m + 2), repeat=k) for k in (1, 2)):
            assert is_diagonal(apply(f(n, m), mono(tag, w, w))), (n, m, w)


def test_connecting_maps_break_gauge_grading():
    # generator n+1 maps to the word (n+1, 1) and generator 1 to (1,), so
    # s_1 s_{n+1}* has grade 0 but its image does not
    for (n, m) in [(1, 2), (2, 4), (2, 6)]:
        (l, r), img = gauge_witness(f(n, m))
        assert (l, r) == ((1,), (n + 1,))
        assert len(l) == len(r) and not is_gauge_invariant(img)


def test_identity_preserves_gauge():
    assert gauge_witness(f(2, 2)) is None


def _gauge_cases():
    # every f(n, m) with n | m <= 12 and n < m, which break the grading, and
    # maps that keep it; f(n, n) for n up to 12 would take about 12 s to
    # enumerate at length 2
    homs = [f(n, m) for m in range(2, 13) for n in range(1, m) if m % n == 0]
    return homs + [f(2, 2), q(2, 1), q(3, 1), DigitMap(O(5), 2, 3)]


@pytest.mark.parametrize("max_len", [1, 2])
def test_gauge_witness_agrees_with_enumeration(max_len):
    # the witness read from image words against applying h to every grade-0
    # monomial up to max_len; a hom that breaks the grading already breaks it
    # on some s_i s_j*, so both find the same first pair
    homs = _gauge_cases()
    assert len(homs) == 27
    for h in homs:
        assert gauge_witness(h) == gauge_witness_by_enumeration(h, max_len), h


def test_gauge_witness_needs_word_images_and_finite_tags():
    h = q(2, 1)
    bad = GenHom(h.domain, h.codomain,
                 lambda k: gen(O2, 1) + gen(O2, 2) if k == 1 else h.image(k))
    with pytest.raises(HomError):
        gauge_witness(bad)
    with pytest.raises(AlgebraError):
        gauge_witness(f_inf(2))


@pytest.mark.parametrize("call, out", [
    # f(1, 10^11) has 10^11 + 1 generators: the witness reads two words
    ("gauge_witness(f(1, 10 ** 11))", "((1,), (2,)) s1 s1' s2'"),
    # q(2, 5) has 2^32 generators and the digit code (2^16, 2): all its words
    # have two letters
    ("gauge_witness(q(2, 5))", "None"),
])
def test_gauge_witness_stops_at_its_answer(call, out):
    code = ("from cuntzlim import *\n"
            "w = %s\n"
            "print(w if w is None else '%%s %%s' %% (w[0], render(w[1])))" % call)
    proc = run_python("-c", code, timeout=10)
    assert proc.returncode == 0 and proc.stdout == out + "\n", proc.stderr


def test_uhf_membership():
    assert uhf_member(2, 3, (1,) * 4, (2,) * 8)
    assert not uhf_member(2, 3, (1,) * 4, (2,) * 6)
    assert uhf_member(2, 1, (1,), ())
    with pytest.raises(ValueError):
        uhf_member(1, 1, (), ())


def test_uhf_chain_check_reports():
    for r in (2, 3):
        rep = uhf_chain_check(r, 3)
        assert rep.ok
        assert [lv.grade_scale for lv in rep.levels] == [2, 4]
        assert all(lv.code_maximal and lv.member_ok for lv in rep.levels)


def test_uhf_chain_check_fails_a_level_without_word_images():
    # generator 1 of q(2, 1) goes to s1 + s2, which has no prefix-code
    # certificate: the level fails instead of the check raising
    h = q(2, 1)
    bad = GenHom(h.domain, h.codomain,
                 lambda k: gen(O2, 1) + gen(O2, 2) if k == 1 else h.image(k))
    rep = uhf_chain_check(2, 3, maps=lambda n: bad if n == 1 else q(2, n))
    assert not rep.ok
    assert [lv.n for lv in rep.levels if not lv.code_maximal] == [1]
    assert [lv.n for lv in rep.levels if not lv.member_ok] == [1, 2]
    # with no digit code there is no grade scale to read
    assert [lv.grade_scale for lv in rep.levels] == [None, None]


def test_uhf_chain_check_depth_guard():
    for r, depth, message in ((2, 1, "depth must be >= 2, got 1"),
                              (1, 10 ** 6, "r must be >= 2, got 1"),
                              (2, 3.0, "depth must be an int >= 2"),
                              (2, True, "depth must be an int >= 2"),
                              (2.0, 3, "r must be an int >= 2"),
                              (True, 3, "r must be an int >= 2")):
        with pytest.raises(ValueError, match=message):
            uhf_chain_check(r, depth)


def test_uhf_chain_check_depth_is_bounded_only_by_q():
    # levels are decided from digit codes, so depths whose maps have 2^32 or
    # 3^16 generators are checked without building an image
    assert uhf_chain_check(2, 6).ok and uhf_chain_check(3, 5).ok
    # q(2, 16) is the last squaring map q builds (Q_MAX_BITS); maps is never
    # asked for a later level, even one that would not raise itself
    asked = []

    def maps(n):
        asked.append(n)
        size = rn(2, n)
        return DigitMap(AlgebraTag(size * size), size, 2)

    assert uhf_chain_check(2, 17, maps=maps).ok and asked == list(range(1, 17))
    for depth in (18, 10 ** 6):
        asked.clear()
        with pytest.raises(ValueError, match="too large"):
            uhf_chain_check(2, depth, maps=maps)
        assert asked == list(range(1, 17))


@pytest.mark.parametrize("r, depth", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_uhf_code_certificates_agree_with_enumeration(r, depth):
    # the verdicts read from digit codes against the enumerating ones: the
    # prefix-code certificate of every image word and the block membership
    # of every pushed word, through uncoded copies and apply (depth 5 takes
    # about 6 s to enumerate)
    rep = uhf_chain_check(r, depth)
    push = None
    for lv in rep.levels:
        step = uncoded(q(r, lv.n))
        push = step if push is None else compose(push, step, validate=False)
        assert push.code is None
        assert lv.code_maximal == validate_prefix_code(step.image_words(), rn(r, lv.n)).maximal
        pushed = push.image_words()
        assert lv.member_ok == (bool(pushed) and all(
            len(w) == lv.grade_scale and uhf_member(r, lv.n + 1, w, ()) for w in pushed))
    assert rep.ok


@pytest.mark.parametrize("r", [2, 3])
def test_uhf_words_one_letter_too_long_are_rejected_by_both_certificates(r):
    # the --corrupt map of level 1: the digit code (r, 3) on O_{r^2}
    bad = DigitMap(O(r * r), r, 3)
    rep = uhf_chain_check(r, 3, maps=lambda n: bad if n == 1 else q(r, n))
    assert [(lv.code_maximal, lv.member_ok) for lv in rep.levels] == [(False, False),
                                                                        (True, False)]
    assert not rep.ok
    # enumerated: prefix-free with Kraft sum 1/r, and pushed words of length 3
    # and 6 where 2 and 4 are due
    code = validate_prefix_code(bad.image_words(), r)
    assert code.prefix_free and code.kraft_sum == Fraction(1, r) and not code.maximal
    pushed = compose(uncoded(bad), uncoded(q(r, 2)), validate=False).image_words()
    assert {len(w) for w in bad.image_words()} == {3} and {len(w) for w in pushed} == {6}


@pytest.mark.parametrize("r", [2, 3])
def test_uhf_grade_scale_is_read_from_the_push_composite(r):
    # the --corrupt map of level 1, the digit code (r, 3), scales the gauge
    # grade by 3 where 2 is due: level 1 reports that scale and the report
    # fails; (r, 3) after q(r, 2)'s code (r^2, 2) substitutes into no code
    bad = DigitMap(O(r * r), r, 3)
    rep = uhf_chain_check(r, 3, maps=lambda n: bad if n == 1 else q(r, n))
    assert [lv.grade_scale for lv in rep.levels] == [3, None]
    assert not rep.ok
