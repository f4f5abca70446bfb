import pytest

from cuntzlim import (
    GenHom,
    O,
    f,
    fixed_point_report,
    gen,
    is_diagonal,
    is_gauge_invariant,
    mono,
    q,
    uhf_chain_check,
    uhf_graded_vanishing,
    uhf_member,
    unit,
)

O2 = O(2)


def test_grade_predicates():
    assert is_gauge_invariant(unit(O2))
    assert is_gauge_invariant(mono(O2, (1, 2), (2, 1)))
    assert not is_gauge_invariant(gen(O2, 1))
    assert is_diagonal(mono(O2, (1, 2), (1, 2)) + unit(O2))
    assert not is_diagonal(mono(O2, (1, 2), (2, 1)))


def test_connecting_maps_preserve_diagonal():
    for (n, m) in [(1, 2), (2, 4), (1, 4), (3, 6)]:
        rep = fixed_point_report(f(n, m), sample_len=2)
        assert rep.diagonal_preserved, (n, m, rep.diagonal_failures)


def test_connecting_maps_break_gauge_grading():
    # the last generator maps to a word of length m/n > 1, so some
    # gauge-invariant monomial leaves the gauge-invariant part
    for (n, m) in [(1, 2), (2, 4), (2, 6)]:
        rep = fixed_point_report(f(n, m), sample_len=1)
        assert rep.gauge_witness is not None
        (l, r), img = rep.gauge_witness
        assert len(l) == len(r) and not is_gauge_invariant(img)


def test_identity_preserves_gauge():
    rep = fixed_point_report(f(2, 2), sample_len=2)
    assert rep.diagonal_preserved and rep.gauge_witness is None


def test_uhf_membership():
    assert uhf_member(2, 3, (1,) * 4, (2,) * 8)
    assert not uhf_member(2, 3, (1,) * 4, (2,) * 6)
    assert uhf_member(2, 1, (1,), ())
    with pytest.raises(ValueError):
        uhf_member(1, 1, (), ())


def test_graded_vanishing_pattern():
    # grades not divisible by the block length are absent from the block algebra
    for n in range(1, 5):
        block = 2 ** (n - 1)
        for l in range(-6, 7):
            if l == 0:
                continue
            expected_vanish = bool(l % block)
            assert uhf_graded_vanishing(2, n, l, 12) == expected_vanish, (n, l)


def test_uhf_chain_check_reports():
    for r in (2, 3):
        rep = uhf_chain_check(r, 3)
        assert rep.ok
        assert [lv.grade_scale for lv in rep.levels] == [2, 4]
        assert all(lv.code_maximal and lv.member_ok for lv in rep.levels)
        assert all(rep.vanishing.values())


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


def test_uhf_chain_check_depth_guard():
    with pytest.raises(ValueError):
        uhf_chain_check(2, 1)
    with pytest.raises(ValueError):
        uhf_chain_check(1, 10**6)


def test_uhf_chain_check_refuses_depths_past_the_generator_bound():
    class LevelBuilt(Exception):
        pass

    def first_level(n):
        raise LevelBuilt

    # q(3, 4) has 3^16 generators: refused before level 1 is built
    with pytest.raises(ValueError, match="too deep"):
        uhf_chain_check(3, 5, maps=first_level)
    # q(2, 4) has exactly 2^16: the check goes on to build level 1
    with pytest.raises(LevelBuilt):
        uhf_chain_check(2, 5, maps=first_level)
    # rn(2, 10**6) has about 2^999999 bits: the bound is compared level by
    # level, so the refusal is immediate
    with pytest.raises(ValueError, match="too deep"):
        uhf_chain_check(2, 10**6)
