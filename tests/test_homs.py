import math
import random

import pytest

from cuntzlim import (
    CodeReport,
    DigitMap,
    GenHom,
    HomError,
    O,
    O_INF,
    apply,
    compose,
    equals,
    f,
    f_inf,
    gen,
    hom_exists,
    identity,
    make_hom,
    mono,
    q,
    rn,
    unit,
    validate_prefix_code,
    zero,
)
from cuntzlim.homs import IMAGE_WORD_MAX_LEN
from cuntzlim.parser import render


def test_f_1_2_generator_images():
    assert f(1, 2).image_words() == [(1,), (2, 1), (2, 2)]


def test_f_2_4_generator_images():
    assert f(2, 4).image_words() == [(1,), (2,), (3, 1), (3, 2), (3, 3)]


def test_f_1_4_generator_images():
    assert f(1, 4).image_words() == [
        (1,),
        (2, 1),
        (2, 2, 1),
        (2, 2, 2, 1),
        (2, 2, 2, 2),
    ]


def test_f_general_formula():
    h = f(3, 6)
    # generator 3*l+i -> s4^l s_i, last generator -> s4^(6/3)
    assert h.image_words() == [
        (1,), (2,), (3,),
        (4, 1), (4, 2), (4, 3),
        (4, 4),
    ]


def test_f_requires_divisibility():
    with pytest.raises(HomError):
        f(2, 3)
    with pytest.raises(HomError):
        f(0, 4)


def test_f_validates_as_unital_star_hom():
    for h in (f(2, 6), f(1, 5)):
        make_hom(h.domain, h.codomain, h.image)


def test_compose_matches_direct_connecting_map():
    c = compose(f(1, 2), f(2, 4), validate=False)
    d = f(1, 4)
    assert all(equals(c.image(k), d.image(k)) for k in d.gens())


def test_identity_and_apply():
    e = mono(O(3), (1, 2), (3,))
    for h in (identity(O(3)), f(2, 2)):
        assert [h.image(k) for k in h.gens()] == [gen(O(3), k) for k in (1, 2, 3)]
        assert apply(h, e) == e


def test_image_rule_runs_once_per_requested_generator():
    calls = []

    def rule(k):
        calls.append(k)
        return mono(O(2), (2,) * (k - 1) + (1,))

    h = GenHom(O(5), O(2), rule)
    assert h.image(3) == h.image(3) == mono(O(2), (2, 2, 1))
    h.image(1)
    assert calls == [3, 1]


def test_image_sequence_checked():
    with pytest.raises(HomError):
        GenHom(O(3), O(2), [gen(O(2), 1), gen(O(2), 2)])
    with pytest.raises(HomError):
        GenHom(O_INF, O(2), [gen(O(2), 1), gen(O(2), 2)])


def test_apply_is_star_homomorphism():
    h = f(1, 2)
    a = mono(O(3), (1,), (2,)) + gen(O(3), 3)
    b = mono(O(3), (2, 3), ())
    assert equals(apply(h, a * b), apply(h, a) * apply(h, b))
    assert equals(apply(h, a.star()), apply(h, a).star())
    assert equals(apply(h, unit(O(3))), unit(O(2)))


def test_f_inf_images():
    h = f_inf(2)
    assert next(iter(h.image(1).terms))[0] == (1,)
    assert next(iter(h.image(2).terms))[0] == (2,)
    assert next(iter(h.image(3).terms))[0] == (3, 1)
    assert next(iter(h.image(5).terms))[0] == (3, 3, 1)
    assert next(iter(h.image(30).terms))[0] == (3,) * 14 + (2,)


def test_f_inf_isometry_relations_spot_check():
    h = f_inf(3)
    for i in (1, 4, 9):
        for j in (1, 4, 9):
            p = apply(h, mono(O_INF, (), (i,)) * mono(O_INF, (j,), ()))
            expected = unit(O(4)) if i == j else zero(O(4))
            assert equals(p, expected)


def test_q_images_and_rn():
    assert rn(2, 1) == 2 and rn(2, 2) == 4 and rn(2, 3) == 16
    assert rn(3, 2) == 9
    h = q(2, 1)
    assert h.image_words() == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert h.domain == O(4) and h.codomain == O(2)


def test_q_validates():
    h = q(2, 2)
    make_hom(h.domain, h.codomain, h.image)


def test_digit_map_images():
    # generator k goes to the base-a digits of k - 1, most significant first
    h = DigitMap(O(9), 3, 2)
    assert h.code == (3, 2) and h.codomain == O(3)
    assert h.image_words() == [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    assert DigitMap(O(4), 2, 3).image_words() == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)]
    assert q(3, 1).code == (3, 2) and q(2, 2).code == (4, 2)
    assert identity(O(2)).code is None and f(1, 2).code is None
    for domain, a, length in ((O(9), 2, 3), (O_INF, 2, 3), (O(2), 1, 5), (O(2), 2, 0)):
        with pytest.raises(HomError):
            DigitMap(domain, a, length)


def _uncoded(h):
    return GenHom(h.domain, h.codomain, h.image)


@pytest.mark.parametrize("r", [2, 3])
def test_coded_composites_equal_applied_images(r):
    # D(a, L1) after D(a^L1, L2) is D(a, L1*L2), with no apply; two and three
    # levels of the doubling chain against images pushed through apply
    two = compose(q(r, 1), q(r, 2), validate=False)
    three = compose(two, q(r, 3), validate=False)
    assert (two.code, three.code) == ((r, 4), (r, 8))
    assert two.domain == q(r, 2).domain and three.domain == q(r, 3).domain
    for comp, outer, inner in ((two, q(r, 1), q(r, 2)), (three, two, q(r, 3))):
        for k in comp.gens():
            assert comp.image(k) == apply(outer, inner.image(k))
    assert compose(_uncoded(q(r, 1)), q(r, 2), validate=False).code is None


@pytest.mark.parametrize("r", [2, 3])
def test_coded_compose_needs_a_full_outer_domain(r):
    # D(r, 3) on O_{r^2} is not full (b = r^2 != r^3): composing it with
    # q(r, 2) applies its images instead of substituting codes
    outer = DigitMap(O(r * r), r, 3)
    comp = compose(outer, q(r, 2), validate=False)
    assert comp.code is None
    for k in comp.gens():
        assert comp.image(k) == apply(outer, q(r, 2).image(k))


def test_prefix_code_validation():
    rep = validate_prefix_code([(1,), (2, 1), (2, 2)], 2)
    assert rep.prefix_free and rep.maximal and rep.kraft_sum == 1
    rep = validate_prefix_code([(1,), (2, 1)], 2)
    assert rep.prefix_free and not rep.maximal
    rep = validate_prefix_code([(1,), (1, 2)], 2)
    assert not rep.prefix_free
    rep = validate_prefix_code([(1,), (1,)], 2)
    assert not rep.prefix_free
    rep = validate_prefix_code([(), (1,)], 2)
    assert not rep.prefix_free


def test_invalid_word_images_rejected():
    # images {s1, s2 s1} are prefix-free but not maximal: relations fail
    with pytest.raises(HomError):
        make_hom(O(2), O(2), [mono(O(2), (1,)), mono(O(2), (2, 1))])
    # overlapping images break isometry orthogonality
    with pytest.raises(HomError):
        make_hom(O(2), O(2), [mono(O(2), (1,)), mono(O(2), (1, 2))])


def _maximal_codes(rng, n, count):
    """Random maximal prefix codes over n letters: split random leaves."""
    for _ in range(count):
        code = [(i,) for i in range(1, n + 1)]
        for _ in range(rng.randint(0, 3)):
            w = code.pop(rng.randrange(len(code)))
            code += [w + (i,) for i in range(1, n + 1)]
        rng.shuffle(code)
        yield code


def _corruptions(rng, code):
    """Word sets near a maximal code: a word cut to its proper prefix, a
    duplicated word, a lengthened word, a dropped word, an added word."""
    i, j = rng.sample(range(len(code)), 2)
    long = max(range(len(code)), key=lambda k: len(code[k]))
    cut = list(code)
    cut[long] = code[long][:-1]
    dup = list(code)
    dup[i] = code[j]
    grown = list(code)
    grown[i] = code[i] + (1,)
    dropped = code[:i] + code[i + 1:]
    added = code + [code[j] + (1,)]
    return [c for c in (cut, dup, grown, dropped, added) if len(c) >= 2]


@pytest.mark.parametrize("n", [2, 3])
def test_pairwise_validation_agrees_with_prefix_code_certificate(n):
    # for a word hom the Cuntz relations hold exactly when the image words
    # form a maximal prefix code, so either check decides validity
    rng = random.Random(20261018 + n)
    cod = O(n)
    seen = {True: 0, False: 0}
    for code in _maximal_codes(rng, n, 12):
        for ws in [code] + _corruptions(rng, code):
            maximal = validate_prefix_code(ws, n).maximal
            try:
                make_hom(O(len(ws)), cod, [mono(cod, w) for w in ws])
                valid = True
            except HomError:
                valid = False
            assert valid == maximal, ws
            seen[maximal] += 1
    assert seen[True] >= 12 and seen[False] >= 12 * 3


def test_hom_exists_divisibility_rule():
    # unital hom O_m -> O_n exists iff (n-1) | (m-1)
    assert hom_exists(3, 2)
    assert hom_exists(5, 3)
    assert not hom_exists(4, 3)
    assert hom_exists(2, 2)
    # none into O_inf, always out of it
    assert not hom_exists(2, None)
    assert hom_exists(None, 2)
    assert hom_exists(None, None)


def test_compose_tag_mismatch():
    with pytest.raises(Exception):
        compose(f(1, 2), f(1, 4), validate=False)


def test_compose_validates_only_when_asked():
    # overlapping images s1, s1 s2 break orthogonality; GenHom does not check
    bad = GenHom(O(2), O(2), [mono(O(2), (1,)), mono(O(2), (1, 2))])
    with pytest.raises(HomError):
        compose(identity(O(2)), bad)
    c = compose(identity(O(2)), bad, validate=False)
    assert c.image_words() == [(1,), (1, 2)]


def _word_len(e):
    ((l, r),) = e.terms
    return len(l) + len(r)


def test_family_image_words_stop_at_the_bound():
    # f_inf(n) sends generator n*l+i to a word of l + 1 letters, and f(n, m)
    # sends generator m+1 to one of m/n letters: words of IMAGE_WORD_MAX_LEN
    # letters are built, one letter more is refused
    top = IMAGE_WORD_MAX_LEN
    for n in (1, 3):
        assert _word_len(f_inf(n).image(n * top)) == top
        with pytest.raises(HomError, match="word of %d letters, past the bound of %d"
                           % (top + 1, top)):
            f_inf(n).image(n * top + 1)
    for n in (1, 2):
        assert _word_len(f(n, n * top).image(n * top + 1)) == top
        with pytest.raises(HomError, match="word of %d letters" % (top + 1)):
            f(n, n * (top + 1)).image(n * (top + 1) + 1)


def test_f_builds_its_last_word_on_first_use():
    # f(1, 10^11) sent generator 10^11 + 1 to a word of 10^11 letters when it
    # was built, before any image was asked for
    h = f(1, 10 ** 11)
    assert render(apply(h, gen(h.domain, 1))) == "s1"
    with pytest.raises(HomError, match="image of generator %d is a word of %d letters"
                       % (10 ** 11 + 1, 10 ** 11)):
        h.image(10 ** 11 + 1)
