import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cuntzlim import (
    AlgebraError,
    Chain,
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
    f_preimage,
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

from conftest import random_element, uncoded


def test_f_general_formula():
    h = f(3, 6)
    # generator 3*l+i -> s4^l s_i, last generator -> s4^(6/3)
    assert h.image_words() == [
        (1,), (2,), (3,),
        (4, 1), (4, 2), (4, 3),
        (4, 4),
    ]


def test_image_words_refuse_an_image_that_is_no_word():
    # generator 3 of this O4 -> O2 map goes to s1 + s2, no isometry word:
    # word(3) and image_words() name it, and word(1) still reads its word
    h = q(2, 1)
    bad = GenHom(h.domain, h.codomain,
                 lambda k: gen(O(2), 1) + gen(O(2), 2) if k == 3 else h.image(k))
    for read in (bad.image_words, lambda: bad.word(3)):
        with pytest.raises(HomError, match="image of generator 3 is no single isometry word"):
            read()
    assert bad.word(1) == (1, 1)


def test_f_and_f_inf_share_the_comb_code():
    # f(n, m) sends its first m generators to the words of f_inf(n) and its
    # top generator to (n+1)^(m/n); f_preimage decodes every one of them
    for m in range(1, 41):
        for n in (d for d in range(1, m + 1) if m % d == 0):
            words = f(n, m).image_words()
            assert words[:m] == [f_inf(n).word(k) for k in range(1, m + 1)]
            assert words[m:] == [(n + 1,) * (m // n)]
            for k, w in enumerate(words, 1):
                assert f_preimage(n, m, mono(O(n + 1), w)) == gen(O(m + 1), k)


def test_f_requires_divisibility():
    with pytest.raises(HomError):
        f(2, 3)
    with pytest.raises(HomError):
        f(0, 4)


def test_f_validates_as_unital_star_hom():
    for h in (f(2, 6), f(1, 5)):
        make_hom(h.domain, h.codomain, h.image)


def test_identity_and_apply():
    e = mono(O(3), (1, 2), (3,))
    for h in (identity(O(3)), f(2, 2)):
        assert [h.image(k) for k in h.gens()] == [gen(O(3), k) for k in (1, 2, 3)]
        assert apply(h, e) == e


def test_image_rule_runs_on_each_call():
    # a GenHom keeps nothing: its rule runs, and its image's tag is checked,
    # on every call; the index is checked before the rule runs
    calls = []

    def rule(k):
        calls.append(k)
        return mono(O(2), (2,) * (k - 1) + (1,))

    h = GenHom(O(5), O(2), rule)
    assert h.image(3) == h.image(3) == mono(O(2), (2, 2, 1))
    h.image(1)
    assert calls == [3, 3, 1]
    for k in (0, 6, 2.0, True):
        with pytest.raises(AlgebraError):
            h.image(k)
    assert calls == [3, 3, 1]
    wrong = GenHom(O(5), O(2), lambda k: gen(O(3), 1))
    for _ in range(2):
        with pytest.raises(HomError, match="image of generator 2 has wrong tag"):
            wrong.image(2)


def test_f_images_hold_no_memory():
    # the images of f(1, 10^11) held 35.6 MB for k <= 3000 while GenHom
    # cached every image it built
    import tracemalloc

    h = f(1, 10 ** 11)
    tracemalloc.start()
    try:
        for k in range(1, 3001):
            h.image(k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20
    assert h.image(3000) == mono(O(2), (2,) * 2999 + (1,))


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


def test_f_inf_is_built_once_per_n():
    assert f_inf(3) is f_inf(3)
    h = f_inf(3)
    h.word(40)
    assert f_inf(3)._words[40] == (4,) * 13 + (1,)
    assert f_inf(2) is not f_inf(3) and f_inf(2).codomain == O(3)


def test_f_inf_memo_is_bounded():
    top = homs.F_INF_MEMO_SIZE
    first = f_inf(1)
    for n in range(2, 2 * top + 2):
        f_inf(n)
    info = homs._f_inf.cache_info()
    assert info.maxsize == top and info.currsize <= top
    # the least recently used hom was dropped and is built anew; the others
    # stay
    assert f_inf(1) is not first and f_inf(1).word(7) == first.word(7)
    assert f_inf(2 * top) is f_inf(2 * top)


def test_f_inf_memo_holds_a_bounded_word_table():
    # f_inf(1)'s word for s_k has k letters: a kept hom keeps words only up
    # to IMAGE_WORD_MAX_LEN letters in all, and builds later ones on each use
    import tracemalloc

    homs._f_inf.cache_clear()
    tracemalloc.start()
    try:
        for k in range(1, 2001):
            psi(Chain((1, 2)), gen(O_INF, k))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2 ** 20
    for n in (1, 2):
        words = f_inf(n)._words
        assert sum(len(w) or 1 for w in words.values()) <= IMAGE_WORD_MAX_LEN
        assert 2000 not in words and f_inf(n).word(2000) == homs._comb_word(n, None, 2000)


def test_f_inf_refusals_are_never_cached():
    for _ in range(2):
        with pytest.raises(HomError, match="n must be >= 1, got 0"):
            f_inf(0)
    for bad in (2.0, True, "2", [2], None):
        with pytest.raises(HomError, match="n must be an int >= 1"):
            f_inf(bad)
    h = f_inf(2)
    size = homs._f_inf.cache_info().currsize
    # without the type check, 2.0 == 2 would hit or poison f_inf(2)'s entry
    with pytest.raises(HomError, match="n must be an int >= 1"):
        f_inf(2.0)
    assert f_inf(2) is h and homs._f_inf.cache_info().currsize == size


def test_families_refuse_parameters_that_are_not_ints():
    # each parameter is an int with a lower bound: rn(2.0, 2) was 16.0 and
    # DigitMap(O(4), 2.0, 2) a hom whose words held float letters
    for build, args, message in (
            (f, (2, 4.0), "m must be an int >= 1"), (f, (2.0, 4), "n must be an int >= 1"),
            (f, (True, 2), "n must be an int >= 1"), (f, (1, "2"), "m must be an int >= 1"),
            (f, (0, 2), "n must be >= 1, got 0"), (f, (2, 0), "m must be >= 1, got 0"),
            (q, (2.0, 1), "r must be an int >= 2"), (q, (2, 1.0), "n must be an int >= 1"),
            (q, (2, True), "n must be an int >= 1"), (q, (None, 1), "r must be an int >= 2"),
            (q, (1, 1), "r must be >= 2, got 1"), (q, (2, 0), "n must be >= 1, got 0"),
            (rn, (2.0, 2), "r must be an int >= 2"), (rn, (True, 2), "r must be an int >= 2"),
            (rn, (2, 2.0), "n must be an int >= 1"), (rn, (1, 2), "r must be >= 2, got 1"),
            (rn, (2, 0), "n must be >= 1, got 0"),
            (DigitMap, (O(4), 2.0, 2), "a must be an int >= 2"),
            (DigitMap, (O(4), True, 2), "a must be an int >= 2"),
            (DigitMap, (O(4), 2, 2.0), "length must be an int >= 1"),
            (DigitMap, (O(4), 1, 2), "a must be >= 2, got 1"),
            (DigitMap, (O(4), 2, 0), "length must be >= 1, got 0"),
            # validate_prefix_code(ws, 2.0) raised TypeError and (ws, True)
            # reported a Kraft sum over an alphabet of one letter
            (validate_prefix_code, ([(1,), (2,)], 2.0), "alphabet_size must be an int >= 2"),
            (validate_prefix_code, ([(1,), (2,)], True), "alphabet_size must be an int >= 2"),
            (validate_prefix_code, ([(1,), (2,)], None), "alphabet_size must be an int >= 2"),
            (validate_prefix_code, ([(1,), (2,)], 1), "alphabet_size must be >= 2, got 1")):
        with pytest.raises(HomError, match="^" + message):
            build(*args)


def test_q_images_and_rn():
    assert rn(2, 1) == 2 and rn(2, 2) == 4 and rn(2, 3) == 16
    assert rn(3, 2) == 9 and rn(2, 16) == 2 ** 2 ** 15
    h = q(2, 1)
    assert h.image_words() == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert h.domain == O(4) and h.codomain == O(2)


def test_rn_refuses_a_count_past_the_bit_bound_at_once():
    # rn(2, 28) built a 134,217,729-bit integer in about a second, and each
    # n doubles it; the bound q had is now rn's, checked before r_n is built
    for n in (17, 10 ** 6):
        with pytest.raises(HomError, match="too large"):
            rn(2, n)
    with pytest.raises(HomError, match="too large"):
        q(2, 17)


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
    assert compose(uncoded(q(r, 1)), q(r, 2), validate=False).code is None


@pytest.mark.parametrize("r", [2, 3])
def test_coded_compose_needs_a_full_outer_domain(r):
    # D(r, 3) on O_{r^2} is not full (b = r^2 != r^3): composing it with
    # q(r, 2) applies its images instead of substituting codes
    outer = DigitMap(O(r * r), r, 3)
    comp = compose(outer, q(r, 2), validate=False)
    assert comp.code is None
    for k in comp.gens():
        assert comp.image(k) == apply(outer, q(r, 2).image(k))


def test_prefix_code_validation_checks_its_letters():
    # each of these read as a maximal code, or (True,) as a duplicate of (1,)
    for ws, message in (([(1,), (5,)], "generator index 5 out of range for O_2"),
                        ([(1,), (0,)], "generator index must be >= 1, got 0"),
                        ([(1,), (2.0,)], "generator index must be an int >= 1, got 2.0"),
                        ([(1,), (True,)], "generator index must be an int >= 1, got True")):
        with pytest.raises(AlgebraError, match="^" + re.escape(message)):
            validate_prefix_code(ws, 2)


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
    # a finite count below 2 is refused next to O_inf as well
    for m, n in ((3, 1), (None, 1), (1, None), (1, math.inf)):
        with pytest.raises(HomError, match=">= 2"):
            hom_exists(m, n)
    # an O_2.5 does not exist; neither does O_3.0 as a float count, and O_inf
    # is None, not math.inf
    for m, n in ((7, 2.5), (2.5, 2), (3.0, 2), (3, 2.0), (None, 3.0), (3.0, math.inf),
                 (math.inf, 0), (math.inf, 2), (2, math.inf), (math.inf, None),
                 (True, 2), (3, True)):
        with pytest.raises(HomError, match="generator count must be an int >= 2"):
            hom_exists(m, n)


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
# f's preimage: decoding through the prefix code of f's words
# ---------------------------------------------------------------------------

DIVISOR_PAIRS = [(n, m) for m in range(1, 13) for n in range(1, m + 1) if m % n == 0]


@st.composite
def _f_domain_elements(draw):
    """n | m <= 12 and a canonical element y of R_m = O_{m+1}; each drawn word
    may get the letter m+1 appended, the one generator whose word under
    f(n, m) ends in n+1."""
    n, m = draw(st.sampled_from(DIVISOR_PAIRS))
    word = st.tuples(st.lists(st.integers(1, m + 1), max_size=4), st.booleans()).map(
        lambda wt: tuple(wt[0]) + ((m + 1,) if wt[1] else ()))
    coeff = st.builds(GaussianRational, st.fractions(-3, 3, max_denominator=4),
                      st.sampled_from([Fraction(0), Fraction(1, 2)]))
    pairs = draw(st.lists(st.tuples(st.tuples(word, word), coeff), max_size=5))
    return n, m, Element(O(m + 1), pairs)


@settings(max_examples=200, deadline=None)
@given(_f_domain_elements())
@example((1, 2, mono(O(3), (3,), (1, 3)) + mono(O(3), (3, 3, 2), ())))
def test_f_preimage_inverts_f(case):
    n, m, y = case
    x = apply(f(n, m), y)
    # canonical terms go to canonical terms one-to-one, so nothing combines
    assert len(x.terms) == len(y.terms)
    assert f_preimage(n, m, x) == y


@settings(max_examples=200, deadline=None)
@given(_f_domain_elements(), st.data())
def test_f_preimage_builds_a_canonical_table(case, data):
    # f_preimage takes its decoded table as it is; the constructor, which
    # combines, drops zeros and rewrites, leaves it unchanged.  A random
    # element of R_n is added to f's image, so some inputs decode only in
    # part and some decode to terms that f(y) alone does not have
    n, m, y = case
    word = st.lists(st.integers(1, n + 1), max_size=4).map(tuple)
    extra = data.draw(st.lists(st.tuples(st.tuples(word, word),
                                         st.fractions(-2, 2, max_denominator=3)),
                               max_size=3))
    x = apply(f(n, m), y) + Element(O(n + 1), extra)
    p = f_preimage(n, m, x)
    if p is not None:
        assert Element(p.tag, p.terms) == p


@pytest.mark.parametrize("n,m", [p for p in DIVISOR_PAIRS if p[1] // p[0] > 1])
def test_f_preimage_refuses_a_word_inside_a_short_run(n, m):
    # a word ending in (n+1)^j with 0 < j < m/n is no concatenation of f's words
    decodable = apply(f(n, m), mono(O(m + 1), (1, m + 1), (m,)))
    for j in range(1, m // n):
        run = (n + 1,) * j
        for bad in (mono(O(n + 1), (1,) + run), mono(O(n + 1), (n,), run)):
            assert f_preimage(n, m, bad) is None
            assert f_preimage(n, m, decodable + bad) is None
    assert f_preimage(1, 2, gen(O(2), 2)) is None


def test_f_preimage_checks_its_input():
    with pytest.raises(AlgebraError, match="algebra mismatch"):
        f_preimage(1, 2, gen(O(3), 1))
    with pytest.raises(AlgebraError, match="algebra mismatch"):
        f_preimage(2, 4, gen(O_INF, 1))
    with pytest.raises(HomError, match="does not divide"):
        f_preimage(2, 3, gen(O(3), 1))
    with pytest.raises(HomError, match="n must be >= 1, got 0"):
        f_preimage(0, 2, gen(O(2), 1))
    # unrefused, 2.0 would decode to the float letter 1.0 and True would
    # answer as n = 1
    for n, m, x in ((2.0, 4, gen(O(3), 1)), (True, 2, gen(O(2), 1)),
                    (1, 2.0, gen(O(2), 1)), (1, True, gen(O(2), 1))):
        with pytest.raises(HomError, match="must be an int >= 1"):
            f_preimage(n, m, x)


def test_f_preimage_of_f_n_n_is_the_identity():
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(20):
            x = random_element(rng, O(n + 1), max_len=4)
            assert f_preimage(n, n, x) == x


def test_f_preimage_with_a_long_last_word_builds_no_word(monkeypatch):
    # under f(1, 10^11) generator 10^11 + 1 has a word of 10^11 letters; the
    # decoder only counts the run of 2s and never builds a code word
    def refuse(*args):
        raise AssertionError("a code word was built")

    monkeypatch.setattr(homs, "_comb_word", refuse)
    m = 10 ** 11
    assert f_preimage(1, m, gen(O(2), 1)) == gen(O(m + 1), 1)
    assert f_preimage(1, m, mono(O(2), (2,) * 5 + (1,), (1,))) == mono(O(m + 1), (6,), (1,))
    assert f_preimage(1, m, gen(O(2), 2)) is None


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
    them out, each term from its first image."""
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
@example((f_inf(2), mono(O_INF, (), (), GaussianRational(Fraction(1, 2), -3))
          + mono(O_INF, (2, 5), (1,)) + mono(O_INF, (), (3, 1))))
def test_word_apply_equals_multiply_chain(case):
    # the multiplying apply starts each term from its first image, h(s_j)
    # or h(s_k)* when the term has no left letters: a term of n letters
    # takes max(n - 1, 0) products, and c I takes the unit
    h, e = case
    assert isinstance(h, WordHom)
    with mock.patch.object(homs, "multiply", wraps=homs.multiply) as products:
        by_products = apply(_by_products(h), e)
    assert products.call_count == sum(max(len(l) + len(r) - 1, 0) for l, r in e.terms)
    assert apply(h, e) == by_products


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
    # a term of two letters takes one product; one letter takes none
    with pytest.raises(AssertionError, match="by products"):
        apply(_by_products(f(1, 2)), mono(O(3), (1, 2)))
    # generator 65536 of O_inf goes to s2^65535 s1 under f_inf(1)
    fam = psi(Chain((1, 2)), gen(O_INF, 65536))
    ((first, right),) = fam.entries[0].terms
    assert first == (2,) * 65535 + (1,) and right == ()


def test_word_apply_bounds_every_word_it_builds():
    # f_inf(1) sends generator k to a word of k letters.  A word of
    # IMAGE_WORD_MAX_LEN letters is built, from one generator or from
    # several; one letter more is refused on either side, before it is built
    top = IMAGE_WORD_MAX_LEN
    h = f_inf(1)
    for left, right in (((top,), ()), ((top - 5, 5), (2,)), ((1,), (3, top - 3))):
        ((l, r),) = apply(h, mono(O_INF, left, right)).terms
        assert (len(l), len(r)) == (sum(left), sum(right))
    for left, right, size in (((top, 1), (), top + 1), ((1,), (2, top), top + 2),
                              ((60000,) * 300, (), 18000000)):
        with pytest.raises(HomError, match="is a word of %d letters, past the bound of %d"
                           % (size, top)):
            apply(h, mono(O_INF, left, right))
    ((l, _),) = psi(Chain((1, 2)), gen(O_INF, top)).entries[0].terms
    assert len(l) == top
    # a digit code of top/2 + 1 letters maps each generator below the bound,
    # and a word of two generators past it
    d = DigitMap(O(2), 2, top // 2 + 1)
    assert apply(d, gen(O(2), 2)) == mono(O(2), (1,) * (top // 2) + (2,))
    with pytest.raises(HomError, match="past the bound"):
        apply(d, mono(O(2), (1, 2)))


def test_word_hom_refuses_one_word_past_the_bound():
    # a digit code of top + 1 letters: word, image and apply each refuse
    # generator 1's word, and the message sizes it without reading it back
    # through word
    h = DigitMap(O(2), 2, IMAGE_WORD_MAX_LEN + 1)
    message = ("image of a word of 1 letters is a word of 65537 letters, past the bound"
               " of 65536")
    for get in (h.word, h.image, lambda k: apply(h, gen(O(2), k))):
        with pytest.raises(HomError, match=message):
            get(1)


def test_word_apply_refusal_builds_each_distinct_word_once():
    # with the table's letter budget spent, a word is built anew on each
    # use; the refusal still builds each distinct word of the term once for
    # its message, not once per letter
    calls = []

    def rule(k):
        calls.append(k)
        return (2,) * (k - 1) + (1,)

    h = homs.WordHom(O_INF, O(2), rule)
    h.word(IMAGE_WORD_MAX_LEN)
    del calls[:]
    with pytest.raises(HomError, match="is a word of 18000000 letters"):
        apply(h, mono(O_INF, (60000,) * 300))
    # two builds before the bound is passed, one for the message
    assert calls == [60000] * 3 and 60000 not in h._words


def test_multiplied_apply_refuses_words_past_the_bound():
    # f is no word hom: apply multiplies its images out, and 300 letters
    # s60000 under f(1, 10^11) ran for 38 s and printed 43 MB for 240 of
    # them; it stops at the first product past the bound
    h = f(1, 10 ** 11)
    with pytest.raises(HomError, match="builds a word of 120000 letters, past the bound of %d"
                       % IMAGE_WORD_MAX_LEN):
        apply(h, mono(O(10 ** 11 + 1), (60000,) * 300))
    with pytest.raises(HomError, match="past the bound"):
        apply(h, mono(O(10 ** 11 + 1), (), (60000,) * 2))
    # s_32768 goes to a word of 2^15 letters: two of them make a word of
    # exactly IMAGE_WORD_MAX_LEN letters, which is applied, and one letter
    # more is refused
    half = (2,) * 32767 + (1,)
    assert apply(h, mono(O(10 ** 11 + 1), (32768,) * 2)) == mono(O(2), half * 2)
    with pytest.raises(HomError, match="builds a word of 65537 letters"):
        apply(h, mono(O(10 ** 11 + 1), (32768, 32769)))
    # f's rule refuses an image past the bound itself (s65537), so a hom
    # whose generator-1 image is one letter longer shows that apply holds
    # the first factor of a term to the bound too, on either side of it
    top = IMAGE_WORD_MAX_LEN
    long = GenHom(O(2), O(2), [mono(O(2), (1,) * top + (2,)), mono(O(2), (2,) * top)])
    for e in (gen(O(2), 1), mono(O(2), (), (1,))):
        with pytest.raises(HomError, match="term of 1 letters builds a word of %d" % (top + 1)):
            apply(long, e)
    assert apply(long, gen(O(2), 2)) == mono(O(2), (2,) * top)


def test_word_apply_refuses_words_that_are_no_prefix_code():
    # k -> 1^k is no prefix code: s1 s1 and s2 both go to s1 s1, so the rule
    # defines no hom, and apply says so instead of adding the two terms
    h = WordHom(O(3), O(2), lambda k: (1,) * k)
    with pytest.raises(HomError, match="not a prefix code"):
        apply(h, mono(O(3), (1, 1)) + gen(O(3), 2))
    assert apply(h, mono(O(3), (1, 1), (3,))) == mono(O(2), (1, 1), (1, 1, 1))


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
    for get in (h.word, h.image):
        with pytest.raises(AlgebraError, match="generator index 4 out of range"):
            get(4)
    # generator 2 is kept, yet 2.0 and True are refused, not answered from
    # the table; f_inf(2).image(2.0) missed its table with a TypeError
    for get in (h.word, h.image, f_inf(2).image, f(1, 2).image):
        get(2)
        for k, message in ((0, "must be >= 1, got 0"), (2.0, "must be an int >= 1"),
                           (True, "must be an int >= 1")):
            with pytest.raises(AlgebraError, match="generator index " + message):
                get(k)
    assert calls == [2, 1, 3]
