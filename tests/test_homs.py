import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cuntzlim import (
    AlgebraError,
    Chain,
    CodeReport,
    DigitMap,
    Element,
    GaussianRational,
    GenHom,
    HomError,
    O,
    O_INF,
    WordHom,
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
    psi,
    q,
    rn,
    unit,
    validate_prefix_code,
    zero,
)
from cuntzlim import homs
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


# ---------------------------------------------------------------------------
# word homs: apply by concatenating code words, against the multiply chain
# ---------------------------------------------------------------------------

WORD_HOMS = ([f_inf(n) for n in range(1, 7)]
             + [q(2, 1), q(3, 1), DigitMap(O(8), 2, 3), DigitMap(O(9), 3, 2)]
             + [identity(O(3)), identity(O_INF)])
# letters drawn for an O_inf domain: f_inf(n) words up to about 20/n + 1 long
INF_LETTERS = 20


def _by_products(h):
    """The same generator images behind an Element rule, so apply multiplies
    them out one letter at a time."""
    return GenHom(h.domain, h.codomain, h.image)


def _letters(h):
    return h.domain.ngens or INF_LETTERS


@st.composite
def _word_hom_inputs(draw):
    """A word hom and an element of its domain: random terms, and for a
    DigitMap (a, L) sometimes a block sum  sum_d c s_{J g_d} s_{K g'_d}*  over
    two runs of a generators whose words differ only in their last letter d,
    which the Leavitt rewrite collapses to one term of the codomain."""
    h = draw(st.sampled_from(WORD_HOMS))
    k = _letters(h)
    word = st.lists(st.integers(1, k), max_size=3).map(tuple)
    coeff = st.builds(GaussianRational, st.fractions(-3, 3, max_denominator=4),
                      st.sampled_from([Fraction(0), Fraction(1, 2)]))
    pairs = draw(st.lists(st.tuples(st.tuples(word, word), coeff), max_size=5))
    if h.code and draw(st.booleans()):
        a = h.code[0]
        j, r, c = draw(word), draw(word), draw(coeff)
        b1, b2 = (draw(st.integers(0, k // a - 1)) for _ in range(2))
        pairs += [((j + (b1 * a + d,), r + (b2 * a + d,)), c) for d in range(1, a + 1)]
    return h, Element(h.domain, pairs)


@settings(max_examples=200, deadline=None)
@given(_word_hom_inputs())
@example((q(2, 1), mono(O(4), (2,), (4,))))
@example((q(2, 1), mono(O(4), (1,), (3,)) + mono(O(4), (2,), (4,))))
def test_word_apply_equals_multiply_chain(case):
    h, e = case
    assert isinstance(h, WordHom)
    assert apply(h, e) == apply(_by_products(h), e)


def test_word_apply_rewrites_and_combines():
    # q(2, 1) sends s2, s3, s4 to s1 s2, s2 s1, s2 s2: s2 s4* concatenates
    # to s_{12} s_{22}*, whose words both end in 2, and the Leavitt rewrite
    # leaves s1 s2* - s_{11} s_{21}*, whose second term cancels the image of
    # s1 s3*
    h = q(2, 1)
    e = mono(O(4), (2,), (4,))
    img = apply(h, e)
    assert img == mono(O(2), (1,), (2,)) - mono(O(2), (1, 1), (2, 1))
    both = e + mono(O(4), (1,), (3,))
    assert apply(h, both) == mono(O(2), (1,), (2,))
    for x in (e, both):
        assert apply(h, x) == apply(_by_products(h), x)


def test_word_homs_apply_without_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("a word hom applied by products")

    cases = []
    for h in WORD_HOMS:
        k = _letters(h)
        e = mono(h.domain, (1, k, 2), (k, k), GaussianRational(1, 2)) + unit(h.domain)
        cases.append((h, e, apply(_by_products(h), e)))
    monkeypatch.setattr(homs, "multiply", refuse)
    monkeypatch.setattr(homs, "adjoint", refuse)
    for h, e, want in cases:
        assert apply(h, e) == want
    with pytest.raises(AssertionError, match="by products"):
        apply(f(1, 2), gen(O(3), 1))
    # generator 65536 of O_inf goes to s2^65535 s1 under f_inf(1)
    fam = psi(Chain((1, 2)), gen(O_INF, 65536))
    ((first, right),) = fam.entries[0].terms
    assert first == (2,) * 65535 + (1,) and right == ()


def test_word_hom_checks_and_caches_its_words():
    calls = []

    def rule(k):
        calls.append(k)
        return (1,) * k

    h = WordHom(O(3), O(2), rule)
    assert h.word(2) == h.word(2) == (1, 1)
    assert h.image(2) == mono(O(2), (1, 1))
    assert h.image_words() == [(1,), (1, 1), (1, 1, 1)]
    assert calls == [2, 1, 3]
    for k in (0, 4):
        with pytest.raises(AlgebraError, match="out of range"):
            h.word(k)
    assert calls == [2, 1, 3]
