import itertools
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuntzlim import (
    AlgebraError,
    Chain,
    CoherentFamily,
    Element,
    GaussianRational,
    ONE,
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
    f_preimage,
    gen,
    in_K,
    in_L,
    in_L_inf,
    mono,
    psi,
    state_omega,
    unit,
    zero,
)
from cuntzlim import algebra, homs, verify
from cuntzlim.scalars import ZERO
from cuntzlim.verify import Refuted, verify_decomposition, verify_psi

from conftest import uncoded
from oracle import brute_in_L, classify_raw, coherent_all_pairs, decompose_by_monomial

O2 = O(2)


def all_words(max_len, min_len=1):
    for length in range(min_len, max_len + 1):
        yield from itertools.product((1, 2), repeat=length)


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
    with pytest.raises(ValueError, match=r"^word \(\) is not in L_3$"):
        decompose_word(3, ())
    # classify_monomial rejects the same words, and letters other than 1, 2
    # through the word check of O_2
    for left, right in [((2, 2, 2), ()), ((), (1, 2))]:
        with pytest.raises(ValueError, match="not in L_2"):
            classify_monomial(2, left, right)
    for left, right in [((3, 1), ()), ((1,), (1, 3))]:
        with pytest.raises(AlgebraError, match="3 out of range for O_2"):
            classify_monomial(2, left, right)
    # decompose_element reads the trailing 2-run of a canonical term
    for n, left, right in [(2, (2, 2, 2), ()), (2, (1,), (1, 2)), (3, (2, 1, 2, 2), (1,)),
                           (2, (2, 2, 2, 2, 2), (2, 1))]:
        w = left if left[-1:] == (2,) else right
        with pytest.raises(ValueError, match=r"word %s is not in L_%d" % (re.escape(repr(w)), n)):
            decompose_element(n, mono(O2, left, right))


@pytest.mark.parametrize("call, args", [
    (in_L_inf, ((1.0,),)),
    (in_L, (2, (True, 2, 2))),
    (in_K, (1, (2.0,))),
    (decompose_word, (2, (1, 2.0, 2))),
    (classify_monomial, (1, (2.0,), ())),
    (classify_monomial, (2, (1,), (True,))),
], ids=["in_L_inf", "in_L", "in_K", "decompose_word", "classify_left", "classify_right"])
def test_semigroup_words_refuse_letters_that_are_not_ints(call, args):
    # 1.0 and True equal 1 and 2.0 equals 2, so a letter test by equality let
    # them in: in_L_inf((1.0,)) was True and classify_monomial(1, (2.0,), ())
    # built an O_2 element with the letter 2.0
    with pytest.raises(AlgebraError, match="generator index must be an int >= 1"):
        call(*args)


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


def test_classify_monomial_agrees_with_raw_word_reference():
    # the canonical form of every monomial over L_n words up to length 6,
    # mixed monomials x 2^(an) (y 2^(bn))* included, decomposes to the parts
    # the range-projection rewrite writes from its raw words
    for n in (1, 2, 3, 4):
        words = [w for w in all_words(6, min_len=0) if w == () or in_L(n, w)]
        for l in words:
            for r in words:
                assert classify_monomial(n, l, r) == classify_raw(n, l, r), (n, l, r)


def test_decompose_element_sums_back_and_shapes():
    words = [()] + [w for w in all_words(6) if in_L(2, w)]
    for l in words[:20]:
        for r in words[:20]:
            e = mono(O2, l, r)
            qp, vp, vs = decompose_element(2, e)
            assert equals(qp + vp + vs, e)
            assert (qp, vp, vs) == decompose_by_monomial(2, e), (l, r)


def test_decompose_element_after_sibling_rewrite():
    # s21 s21' + s22 s22' = s2 s2' = I - s1 s1': canonical words stay in L_2
    e = mono(O2, (2, 1), (2, 1)) + mono(O2, (2, 2), (2, 2))
    qp, vp, vs = decompose_element(2, e)
    assert qp + vp + vs == e
    assert vp.is_zero() and vs.is_zero()
    assert all(w[-1:] != (2,) for key in qp.terms for w in key)


def _coefficient(rng):
    # a nonzero Gaussian rational other than 1, so a decomposition that
    # drops or flips the coefficient of a term is seen
    while True:
        c = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                             Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        if not c.is_zero() and c != ONE:
            return c


def _random_decomposable(rng, n, words):
    """An O_2 element of 1 to 6 terms over words in L_n or empty of length
    <= 6.  A term is a plain monomial, a mixed monomial x 2^(an) (y 2^(bn))*
    (a, b >= 1), a sibling set s_J1 s_K1* + s_J2 s_K2*, or a mixed monomial
    plus the opposite of one of its range-projection terms, which cancels
    in the sum."""
    mixed = [w for w in words if w[-n:] == (2,) * n]
    parents = [w[:-1] for w in words if w[-1:] == (2,)]
    kinds = []
    e = zero(O2)
    for _ in range(rng.randint(1, 6)):
        c = _coefficient(rng)
        kind = rng.choice(("plain", "mixed", "siblings", "cancel"))
        kinds.append(kind)
        if kind == "plain":
            e = e + c * mono(O2, rng.choice(words), rng.choice(words))
        elif kind == "siblings":
            j, k = rng.choice(parents), rng.choice(parents)
            e = e + c * (mono(O2, j + (1,), k + (1,)) + mono(O2, j + (2,), k + (2,)))
        else:
            l, r = rng.choice(mixed), rng.choice(mixed)
            term = c * mono(O2, l, r)
            if kind == "cancel":
                # the Leavitt rewrite peels the common trailing 2s one at a
                # time, each peel writing -c s_{l[:i] 1} s_{r[:j] 1}*
                run = 0  # the 2-run both words end in
                while l[-run - 1:] == r[-run - 1:] == (2,) * (run + 1):
                    run += 1
                i = len(l) - 1 - rng.randrange(run)
                key = (l[:i] + (1,), r[:i + len(r) - len(l)] + (1,))
                term = term + c * mono(O2, *key)
                assert key not in term.terms
            e = e + term
    return e, kinds


def test_decompose_element_agrees_with_monomial_reference(rng):
    # one-pass decomposition against the raw-word classifier term by term, on
    # elements whose coefficients are not 1; the canonical form of a sum of
    # L_n monomials keeps its words in L_n, so every element decomposes
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        words = [w for w in all_words(6, min_len=0) if w == () or in_L(n, w)]
        e, used = _random_decomposable(rng, n, words)
        parts = decompose_element(n, e)
        assert parts == decompose_by_monomial(n, e), (n, e)
        assert parts[0] + parts[1] + parts[2] == e
        kinds.update(used)
    assert kinds == {"plain", "mixed", "siblings", "cancel"}


def test_decompose_element_negates_no_coefficient(rng, monkeypatch):
    # a canonical element has no mixed monomial, so no range-projection term
    # and no -c is written
    calls = []
    neg = GaussianRational.__neg__
    monkeypatch.setattr(GaussianRational, "__neg__", lambda c: calls.append(c) or neg(c))
    cases = []
    for _ in range(50):
        n = rng.randint(1, 4)
        words = [w for w in all_words(6, min_len=0) if w == () or in_L(n, w)]
        cases.append((n, _random_decomposable(rng, n, words)[0]))
    del calls[:]
    for n, e in cases:
        decompose_element(n, e)
    assert calls == []


def _doubled_sibling_normalize(e):
    """algebra.normalize on O_2 with a wrong Leavitt rewrite, which writes
    -2c for the sibling term: s_{J2} s_{K2}* = s_J s_K* - 2 s_{J1} s_{K1}*."""
    terms = e.terms
    todo = [(l, r) for (l, r) in terms if l[-1:] == r[-1:] == (2,)]
    while todo:
        l, r = todo.pop()
        c = terms.pop((l, r), None)
        if c is None:
            continue
        j, k = l[:-1], r[:-1]
        for key, d in (((j, k), c), ((j + (1,), k + (1,)), -(c + c))):
            s = terms.get(key, ZERO) + d
            if s.is_zero():
                del terms[key]
            else:
                terms[key] = s
        if j[-1:] == k[-1:] == (2,):
            todo.append((j, k))
    return e


def test_decomposition_suite_refutes_a_wrong_sibling_rewrite(monkeypatch):
    # the parts of the wrong canonical form still sum back and still have
    # the shapes of their parts; only the terms of the lemma tell them apart
    verify_decomposition(2, 4)
    monkeypatch.setattr(algebra, "normalize", _doubled_sibling_normalize)
    assert mono(O2, (2,), (2,)).terms == {((), ()): ONE, ((1,), (1,)): -2 * ONE}
    with pytest.raises(Refuted, match=re.escape(
            "bad Q_inf part in I - 2 s1 s1' - 2 s2 s1 s1' s2'")):
        verify_decomposition(2, 4)


def test_decomposition_suite_refutes_swapped_shift_parts(monkeypatch):
    # parts that sum back but put the head term of s_u s_v* on the wrong side
    decompose = verify.decompose_element

    def swapped(n, e):
        qp, vp, vsp = decompose(n, e)
        return qp, vsp, vp

    monkeypatch.setattr(verify, "decompose_element", swapped)
    with pytest.raises(Refuted, match=re.escape("bad V part in s2'") + "$"):
        verify_decomposition(1, 1)


def test_decomposition_suite_decomposes_each_monomial_once(monkeypatch):
    # the suite builds its words as x 2^p; it decomposes the monomials over
    # {()} + L_n that the letter-by-letter enumeration gives, each once
    seen = []
    decompose = verify.decompose_element
    monkeypatch.setattr(verify, "decompose_element",
                        lambda n, e: seen.append(e) or decompose(n, e))
    for n in (1, 2, 3, 4):
        for max_len in range(7):
            words = [w for w in all_words(max_len, min_len=0) if w == () or in_L(n, w)]
            del seen[:]
            verify_decomposition(n, max_len)
            assert Counter(seen) == Counter(mono(O2, l, r) for l in words for r in words), \
                (n, max_len)


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
def test_decomposition_refuses_n_below_one(n):
    # in_L(True, (2,)) answered for L_1, in_L(2.0, (2, 2)) for L_2 and
    # state_omega(True, e) for R_1
    message = ("n must be an int >= 1" if isinstance(n, (bool, float))
               else "n must be >= 1, got %d" % n)
    for left, right in [((), ()), ((1,), (2, 1)), ((2, 2), ())]:
        with pytest.raises(ValueError, match=message):
            classify_monomial(n, left, right)
    # in_L(-1, (2, 2)) was True and decompose_word(-1, (1, 2)) a split; at
    # n = 0 they divided by zero
    for call, w in ((in_L, (2, 2)), (in_L, (1,)), (in_L, (2,)), (in_K, (2, 2)), (in_K, (1,)),
                    (decompose_word, (1, 2)), (decompose_word, (2, 2))):
        with pytest.raises(ValueError, match=message):
            call(n, w)
    for e in (zero(O2), unit(O2), mono(O2, (2, 1), (1,), 3)):
        for call in (decompose_element, state_omega):
            with pytest.raises(ValueError, match=message):
                call(n, e)


def test_coherent_family_checks():
    ch = Chain((1, 2, 4))
    x = mono(O_INF, (2,), (5,))
    fam = psi(ch, x)
    assert check_coherent(fam)
    # breaking one entry is detected
    entries = list(fam.entries)
    entries[0] = entries[0] + unit(O(2))
    assert not check_coherent(CoherentFamily(ch, tuple(entries)))


def test_coherent_family_keeps_its_entries_when_the_callers_list_changes():
    # the family reads its entries into a tuple: replacing an item of the
    # caller's list afterwards leaves the checked family as it was
    ch = Chain((1, 2))
    entries = list(psi(ch, gen(O_INF, 1)).entries)
    fam = CoherentFamily(ch, entries)
    entries[1] = gen(O(2), 1)
    assert fam.entries[1].tag == O(3) and check_coherent(fam)
    with pytest.raises(AlgebraError, match="must live in O_3"):
        CoherentFamily(ch, tuple(entries))


def test_coherent_family_from_a_list_is_hashable():
    ch = Chain((1, 2))
    entries = psi(ch, gen(O_INF, 1)).entries
    assert hash(CoherentFamily(ch, list(entries))) == hash(CoherentFamily(ch, entries))


def test_coherent_family_from_a_list_equals_the_one_from_a_tuple():
    ch = Chain((1, 2))
    entries = psi(ch, gen(O_INF, 1)).entries
    assert CoherentFamily(ch, list(entries)) == CoherentFamily(ch, entries)
    assert not CoherentFamily(ch, list(entries)) != CoherentFamily(ch, entries)


def test_coherent_family_reads_a_generator_of_entries():
    ch = Chain((1, 2, 4))
    entries = psi(ch, mono(O_INF, (2,), (5,))).entries
    fam = CoherentFamily(ch, (e for e in entries))
    assert fam.entries == entries and check_coherent(fam)
    with pytest.raises(ValueError, match="one entry per chain element"):
        CoherentFamily(ch, (e for e in entries[:2]))


def _psi_chains():
    """Chains of 2 to 4 elements from 1, 2, 3, 4 or 6, each step a factor 2
    or 3, up to 24: the chains of the benchmark's psi requests."""
    chains, frontier = [], [(a,) for a in (1, 2, 3, 4, 6)]
    while frontier:
        frontier = [c + (c[-1] * k,) for c in frontier for k in (2, 3)
                    if len(c) < 4 and c[-1] * k <= 24]
        chains += frontier
    return [Chain(c) for c in chains]


def test_consecutive_coherence_agrees_with_all_pairs_oracle():
    # honest psi families, and families with their first, a middle or their
    # last entry replaced by the image of another monomial of the same grade
    x = mono(O_INF, (3, 1), (2,)) + mono(O_INF, (1,), (), 2)
    other = mono(O_INF, (3, 1, 1, 1), (2, 1, 1))
    seen = {True: 0, False: 0}
    for ch in _psi_chains():
        fam = psi(ch, x)
        families = [fam]
        for j in sorted({0, len(ch) // 2, len(ch) - 1}):
            entries = list(fam.entries)
            entries[j] = apply(f_inf(ch[j]), other)
            families.append(CoherentFamily(ch, tuple(entries)))
        for g in families:
            verdict = check_coherent(g)
            assert verdict == coherent_all_pairs(g), (list(ch), g is fam)
            assert verdict == (g is fam)
            seen[verdict] += 1
    assert seen[True] == len(_psi_chains()) and seen[False] > 2 * seen[True]


def _entries(n):
    """Random elements of R_n = O_{n+1}: up to three terms of short words."""
    word = st.lists(st.integers(1, n + 1), max_size=3).map(tuple)
    pairs = st.lists(st.tuples(st.tuples(word, word),
                               st.fractions(-2, 2, max_denominator=3)), max_size=3)
    return pairs.map(lambda ps: Element(O(n + 1), ps))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_psi_chains()), st.data())
def test_coherence_of_random_families_agrees_with_all_pairs_oracle(ch, data):
    # families outside psi's image: the f-images of a random last entry, whose
    # words may end in the letter n+1 that no psi entry ends in, with a random
    # subset of the entries (none, some or all) replaced by random elements
    top = ch[-1]
    last = data.draw(_entries(top))
    entries = [apply(f(n, top), last) for n in ch]
    for j in data.draw(st.sets(st.integers(0, len(ch) - 1))):
        entries[j] = data.draw(_entries(ch[j]))
    fam = CoherentFamily(ch, tuple(entries))
    assert check_coherent(fam) == coherent_all_pairs(fam)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_psi_chains()),
       st.lists(st.tuples(st.lists(st.integers(1, 12), max_size=3),
                          st.lists(st.integers(1, 12), max_size=3),
                          st.fractions(-3, 3, max_denominator=4)), min_size=1, max_size=4),
       st.data())
def test_one_perturbed_coefficient_breaks_coherence(ch, triples, data):
    x = Element(O_INF, [((tuple(l), tuple(r)), c) for l, r, c in triples])
    fam = psi(ch, x)
    assert check_coherent(fam) and coherent_all_pairs(fam)
    entries = list(fam.entries)
    j = data.draw(st.integers(0, len(ch) - 1))
    if entries[j].terms:
        key = data.draw(st.sampled_from(sorted(entries[j].terms)))
        c = entries[j].terms[key] + data.draw(st.sampled_from([ONE, GaussianRational(0, 1)]))
        entries[j] = Element(entries[j].tag, {**entries[j].terms, key: c})
    else:
        entries[j] = unit(entries[j].tag)
    bad = CoherentFamily(ch, tuple(entries))
    assert not check_coherent(bad) and not coherent_all_pairs(bad)


def test_coherent_family_outside_psi_image():
    # f(1, 2) sends s2 to s2 s1 and s3 to s2 s2, so (s2 s2, s3) is coherent;
    # s3 ends in the letter 3 of R_2 = O_3 and decodes under no f(2, m) with
    # m >= 4, so the family is not a psi image and does not extend past 2
    fam = CoherentFamily(Chain((1, 2)), (mono(O(2), (2, 2)), gen(O(3), 3)))
    assert check_coherent(fam) and coherent_all_pairs(fam)
    for m in (4, 6, 8):
        assert f_preimage(2, m, gen(O(3), 3)) is None


def test_coherence_is_decided_without_products(monkeypatch):
    # check_coherent decodes entries through f's prefix code and takes no
    # product, so a 65536-letter entry is decided in linear time
    def refuse(*args):
        raise AssertionError("coherence decided by products")

    x = mono(O_INF, (3, 1), (2,)) + mono(O_INF, (1,), (), 2)
    families = [psi(ch, x) for ch in _psi_chains()]
    monkeypatch.setattr(homs, "multiply", refuse)
    monkeypatch.setattr(homs, "adjoint", refuse)
    assert all(check_coherent(fam) for fam in families)
    verify_psi(Chain((1, 2)), gen(O_INF, 65536))
    with pytest.raises(AssertionError, match="by products"):
        apply(uncoded(f(1, 2)), mono(O(3), (1, 2)))


def test_psi_and_coherence_run_no_constructor(monkeypatch, rng):
    # psi's entries and check_coherent's preimages are canonical tables taken
    # as they are, so neither combines terms nor rewrites through Element()
    from conftest import random_element

    cases = []
    for ch in _psi_chains():
        x = random_element(rng, O_INF)
        fam = psi(ch, x)
        j = rng.randrange(len(ch))
        entries = list(fam.entries)
        # f_inf is injective, so one entry of another element breaks coherence
        entries[j] = apply(f_inf(ch[j]), x + mono(O_INF, (1, 1), (rng.randint(1, 6),)))
        cases += [(ch, x, fam, True), (ch, None, CoherentFamily(ch, tuple(entries)), False)]
    for ch, x, fam, want in cases:
        assert coherent_all_pairs(fam) is want

    def refuse(*args):
        raise AssertionError("an element was built by the constructor")

    monkeypatch.setattr(Element, "__init__", refuse)
    for ch, x, fam, want in cases:
        if x is not None:
            assert psi(ch, x).entries == fam.entries
        assert check_coherent(fam) is want
    with pytest.raises(AssertionError, match="by the constructor"):
        mono(O_INF, (1,))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_psi_chains()),
       st.lists(st.tuples(st.lists(st.integers(1, 30), max_size=4),
                          st.lists(st.integers(1, 30), max_size=4),
                          st.fractions(-3, 3, max_denominator=4)), max_size=6))
def test_psi_entries_are_canonical_tables(ch, triples):
    # psi builds each entry's table in one dict; the constructor, which
    # combines, drops zeros and rewrites, leaves it unchanged
    x = Element(O_INF, [((tuple(l), tuple(r)), c) for l, r, c in triples])
    for entry in psi(ch, x).entries:
        assert Element(entry.tag, entry.terms) == entry


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_psi_chains()),
       st.lists(st.tuples(st.lists(st.integers(1, 30), max_size=4),
                          st.lists(st.integers(1, 30), max_size=4),
                          st.fractions(-3, 3, max_denominator=4)), max_size=6))
def test_psi_entries_keep_the_terms_of_x(ch, triples):
    # f_inf(n) sends each letter to a word of the prefix code (n+1)*{1..n}:
    # distinct keys stay distinct and no image word ends in n+1, so every
    # entry has the terms and coefficients of x, with no rewrite and no
    # combination
    x = Element(O_INF, [((tuple(l), tuple(r)), c) for l, r, c in triples])
    for n, entry in zip(ch, psi(ch, x).entries):
        assert len(entry.terms) == len(x.terms)
        assert Counter(entry.terms.values()) == Counter(x.terms.values())
        assert all(w[-1:] != (n + 1,) for key in entry.terms for w in key)


def _divisibility_chains(top):
    """Every chain of 2 to 4 elements n_1 | n_2 | ... within top."""
    chains, frontier = [], [(a,) for a in range(1, top + 1)]
    while frontier:
        frontier = [c + (m,) for c in frontier if len(c) < 4
                    for m in range(2 * c[-1], top + 1, c[-1])]
        chains += frontier
    return [Chain(c) for c in chains]


def test_psi_entries_equal_the_multiply_path(rng):
    # the oracle multiplies out f_inf(n)'s generator images, one letter at a
    # time, and never reads the word table that psi builds its entries from
    from conftest import random_scalar, random_word

    xs = []
    for _ in range(200):
        x = zero(O_INF)
        for _ in range(rng.randint(0, 4)):
            x = x + random_scalar(rng) * mono(O_INF, random_word(rng, 30, 3),
                                              random_word(rng, 30, 3))
        xs.append(x)
    chains = _divisibility_chains(24)
    assert len(chains) == 146
    want = {}
    for n in range(1, 25):
        by_products = homs.GenHom(O_INF, O(n + 1), f_inf(n).image)
        want[n] = [apply(by_products, x) for x in xs]
    for ch in chains:
        for i, x in enumerate(xs):
            for n, entry in zip(ch, psi(ch, x).entries):
                assert entry.tag == O(n + 1) and entry.terms == want[n][i].terms


def test_psi_runs_no_leavitt_rewrite(monkeypatch):
    # f_inf's image tables are canonical as built, so psi never calls
    # normalize; apply of a word hom still does
    ch, x = Chain((1, 2, 6, 12)), mono(O_INF, (3,), (1,)) + mono(O_INF, (7,), (5,), Fraction(1, 2))
    want = psi(ch, x)

    def refuse(e):
        raise AssertionError("normalize called")

    monkeypatch.setattr(algebra, "normalize", refuse)
    assert psi(ch, x) == want and check_coherent(psi(ch, x))
    with pytest.raises(AssertionError, match="normalize called"):
        apply(f_inf(2), x)


def test_f_inf_words_end_in_a_letter_below_the_top():
    # the premise of psi's proof: no word of f_inf(n) ends in n + 1
    for n in range(1, 31):
        h = f_inf(n)
        assert all(h.word(k)[-1] <= n for k in range(1, 301))


def test_decomposition_and_state_refuse_elements_of_other_algebras():
    for x in (gen(O(3), 1), unit(O_INF)):
        with pytest.raises(AlgebraError, match="^decomposition lives in O_2$"):
            decompose_element(2, x)
    for n, x in ((2, gen(O2, 1)), (1, unit(O(3))), (3, unit(O_INF))):
        with pytest.raises(AlgebraError, match=r"^element must live in R_%d = O_%d$" % (n, n + 1)):
            state_omega(n, x)


def test_psi_refuses_an_element_outside_O_inf():
    for x in (gen(O(3), 1), unit(O2)):
        with pytest.raises(AlgebraError, match="algebra mismatch: %s vs hom domain Oinf"
                           % x.tag):
            psi(Chain((1, 2)), x)


def test_psi_builds_each_word_once(monkeypatch):
    # psi reuses the memoised f_inf(n) and the words its earlier calls built
    calls = []
    build = homs._comb_word

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(homs, "_comb_word", counted)
    homs._f_inf.cache_clear()
    ch, x = Chain((1, 2, 6)), mono(O_INF, (5, 7), (3,), 2) + gen(O_INF, 9)
    first = psi(ch, x)
    assert calls
    del calls[:]
    assert psi(ch, x) == first and calls == []


def test_corrupt_psi_leaves_the_memoised_hom_intact():
    ch, x = Chain((1, 2, 4)), mono(O_INF, (3, 1), (2,)) + mono(O_INF, (5,), (), 2)
    homs_before = [f_inf(n) for n in ch]
    with pytest.raises(Refuted):
        verify_psi(ch, x, corrupt=True)
    verify_psi(ch, x)
    assert all(f_inf(n) is h for n, h in zip(ch, homs_before))


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


def test_decompose_element_parts_agree_with_the_constructor(rng):
    # decompose_element wraps each part's table without the constructor; the
    # part must equal the Element built from the terms of e that the raw-word
    # classifier puts in that part.  Keys whose words do not both end in 2
    # are canonical and hold no sibling set, so the words stay in L_n
    for n in (1, 2, 3, 4):
        words = [w for w in all_words(6, min_len=0) if w == () or in_L(n, w)]
        keys = [(l, r) for l in words for r in words if not l[-1:] == r[-1:] == (2,)]
        for _ in range(75):
            pairs = [(key, _coefficient(rng))
                     for key in rng.sample(keys, rng.randint(0, 6))]
            e = Element(O2, pairs)
            assert e.terms == dict(pairs)
            parts = decompose_element(n, e)
            for k, part in enumerate(parts):
                want = [(key, c) for key, c in pairs
                        if not classify_raw(n, *key)[k].is_zero()]
                assert part == Element(O2, want), (n, e, k)
                assert part.terms is not e.terms
