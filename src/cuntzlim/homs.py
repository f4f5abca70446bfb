"""Generator-defined *-homomorphisms between Cuntz algebras.

A GenHom is a rule for its generator images, run on each use; it keeps
nothing.  make_hom validates it symbolically: f(s_i)* f(s_j) = delta_ij I
for all pairs, and sum_i f(s_i) f(s_i)* = I for finite domains; an O_inf
domain is checked on its first INF_VALIDATION_GENS generators.  compose
validates only when asked.  The families f, f_inf and q send each generator
to one isometry word and are built unvalidated: such a hom is valid exactly
when its words form a maximal prefix code (prefix-free, Kraft sum 1), which
validate_prefix_code(h.image_words(), ...) checks with one sort: N log N word
comparisons, each reading at most the shorter word.  Every hom has word(k),
the w with image(k) = s_w (else HomError), listed by image_words().

Their words come from two codes.  The comb code of f and f_inf, written by
_comb_word and read by _comb_decode: generator n*l+i goes to (n+1)^l i for
1 <= i <= n, and f(n, m) stops at l < m/n and sends its top generator m+1
to (n+1)^(m/n).  Only that top word ends in n+1, so a concatenation of comb
words decodes in one left-to-right read.  The digit code (a, L) of DigitMap
and q: generator k goes to the L base-a digits of k-1, each plus 1.  On
O_{a^L} it is a bijection onto A^L, and compose substitutes codes:
D(a, L1) o D(a^L1, L2) = D(a, L1*L2).

A WordHom (f_inf, q, identity) keeps one table, generator -> word, that
only _concat reads and fills, while it holds at most IMAGE_WORD_MAX_LEN
letters: word(k) is _concat of the one letter k, with no Element built, and
image(k) the bare monomial of word(k), built on each call.  _word_table sends
c s_J s_K* to c s_{w(J)} s_{w(K)}*, w(J) the concatenated words of J's
letters: the words form a prefix code, so distinct terms stay distinct, and
two that meet refute the code with HomError.  apply runs the Leavitt rewrite
on that table, through the Element constructor, and limits.psi takes f_inf's
tables as they are.  f is no word hom, and apply multiplies out its images,
as those of every other hom: each term from its first image, not from the
unit, so a term of n letters takes n - 1 products and only a term c I takes
the unit.  As a word hom f makes an inverse-system benchmark pass several
times faster, a timed run then attempts that many more operations, and the
benchmark's peak RSS grows with them.

Bounds: a comb word, and every word that apply builds, has at most
IMAGE_WORD_MAX_LEN letters: a longer one is refused with HomError, by a word
hom before it is built and by any other hom as soon as a factor, the first
included, or a product has it.  rn,
and so q, refuses an r_n of more than Q_MAX_BITS bits.  f_inf(n) is memoised
per process, at most F_INF_MEMO_SIZE homs, and a word hom keeps a word only
while its table then holds at most IMAGE_WORD_MAX_LEN letters, counting each
word as at least one: later words are built on each use.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from .algebra import (
    EPS,
    AlgebraError,
    AlgebraTag,
    Element,
    O_INF,
    Word,
    _trusted,
    adjoint,
    add,
    check_int,
    equals,
    multiply,
    unit,
    zero,
)
from .scalars import ONE

INF_VALIDATION_GENS = 32
# rn(r, n), and so q(r, n), refuses parameters whose r_n = r^(2^(n-1)) may
# have more than Q_MAX_BITS bits: r_n of q(2, 40) has 2^39 + 1 of them
Q_MAX_BITS = 2 ** 16
# f and f_inf refuse to build a generator's image word longer than
# IMAGE_WORD_MAX_LEN letters, and apply refuses any longer word it builds:
# generator 10^11 of f_inf(1) would need 10^11 of them, and 300 letters
# s60000 would need 1.8 * 10^7; a word hom keeps at most that many letters
# of words in its table
IMAGE_WORD_MAX_LEN = 2 ** 16
# the f_inf memo keeps at most F_INF_MEMO_SIZE homs, one per n
F_INF_MEMO_SIZE = 64


class HomError(ValueError):
    pass


@dataclass(frozen=True)
class CodeReport:
    prefix_free: bool
    kraft_sum: Fraction
    maximal: bool


def validate_prefix_code(words: Iterable[Word], alphabet_size: int) -> CodeReport:
    check_int("alphabet_size", alphabet_size, 2, HomError)
    ws = [tuple(w) for w in words]
    if not ws:
        raise HomError("empty word set")
    letters = AlgebraTag(alphabet_size)
    for w in ws:
        letters.check_word(w)
    # in lexicographic order a word is followed by every word it is a prefix
    # of, so the set is prefix-free iff no word is a prefix of the next one;
    # a repeated word is its own prefix, and the empty word is everyone's
    ws.sort()
    prefix_free = not any(v[:len(w)] == w for w, v in itertools.pairwise(ws))
    kraft = sum(Fraction(1, alphabet_size ** len(w)) for w in ws)
    return CodeReport(prefix_free, kraft, prefix_free and kraft == 1)


class GenHom:
    """A *-homomorphism given by its generator images.

    Images come from a rule k -> Element.  image(k) checks k, runs the rule
    and checks the image's tag on every call: a GenHom keeps nothing, and
    word(k) unpacks image(k).  A finite domain also accepts the sequence of
    its images."""

    __slots__ = ("domain", "codomain", "_rule")
    code: Optional[Tuple[int, int]] = None  # set only by DigitMap

    def __init__(
        self,
        domain: AlgebraTag,
        codomain: AlgebraTag,
        images: Union[Sequence[Element], Callable[[int], Element]],
    ):
        self.domain = domain
        self.codomain = codomain
        if not callable(images):
            if not domain.is_finite:
                raise HomError("O_inf domain needs an image rule")
            imgs = tuple(images)
            if len(imgs) != domain.ngens:
                raise HomError(
                    "expected %d generator images, got %d" % (domain.ngens, len(imgs))
                )
            images = lambda k: imgs[k - 1]
        self._rule = images

    def image(self, k: int) -> Element:
        self.domain.check_index(k)
        e = self._rule(k)
        if e.tag != self.codomain:
            raise HomError("image of generator %d has wrong tag" % k)
        return e

    def gens(self) -> range:
        return range(1, (self.domain.ngens or INF_VALIDATION_GENS) + 1)

    def word(self, k: int) -> Word:
        """The word w with image(k) = s_w, or HomError naming k when the
        image is no single bare isometry word."""
        terms = self.image(k).terms
        if len(terms) == 1:
            ((l, r), c), = terms.items()
            if r == () and c == ONE:
                return l
        raise HomError("image of generator %d is no single isometry word" % k)

    def image_words(self) -> list:
        """word(k) for each k in gens(), in order."""
        return [self.word(k) for k in self.gens()]

    def __repr__(self):
        return "<GenHom %s -> %s>" % (self.domain, self.codomain)


def _validate(h: GenHom) -> None:
    one = unit(h.codomain)
    nil = zero(h.codomain)
    imgs = {k: h.image(k) for k in h.gens()}
    stars = {k: adjoint(e) for k, e in imgs.items()}
    for i, ei in imgs.items():
        for j, ej in imgs.items():
            want = one if i == j else nil
            if not equals(multiply(stars[i], ej), want):
                raise HomError("relation violated (%d,%d)" % (i, j))
    if h.domain.is_finite:
        total = nil
        for e in imgs.values():
            total = add(total, multiply(e, adjoint(e)))
        if not equals(total, one):
            raise HomError(
                "completeness violated; residual %r" % (total - one,)
            )


def make_hom(domain: AlgebraTag, codomain: AlgebraTag, images) -> GenHom:
    h = GenHom(domain, codomain, images)
    _validate(h)
    return h


def _monomial(tag: AlgebraTag, w: Word) -> Element:
    """The bare monomial s_w: a word paired with the empty word is
    canonical, and its coefficient 1 is nonzero."""
    return _trusted(tag, {(w, EPS): ONE})


class WordHom(GenHom):
    """A hom that sends each generator to one isometry word, given by a rule
    k -> Word.  word(k) checks the index and reads the word through
    _concat, the one place that reads and fills the word table, with no
    Element built; image(k) is the bare monomial s_w of that word, built on
    each call."""

    __slots__ = ("_words", "_word_rule", "_letters")

    def __init__(self, domain: AlgebraTag, codomain: AlgebraTag,
                 rule: Callable[[int], Word]):
        self.domain = domain
        self.codomain = codomain
        self._words: Dict[int, Word] = {}
        self._word_rule = rule
        self._letters = 0

    def word(self, k: int) -> Word:
        self.domain.check_index(k)
        return _concat(self, (k,))

    def image(self, k: int) -> Element:
        return _monomial(self.codomain, self.word(k))


def identity(tag: AlgebraTag) -> WordHom:
    return WordHom(tag, tag, lambda k: (k,))


def _concat(h: WordHom, letters: Word) -> Word:
    """The concatenated words of h for the letters, refused with HomError
    before it passes IMAGE_WORD_MAX_LEN letters.  The letters are those of
    an element of h's domain, so their indices are not checked.  A word not
    in h's table is built by h's rule and kept while the table then holds at
    most IMAGE_WORD_MAX_LEN letters, counting each word as at least one; a
    later word is built on each use."""
    words = h._words
    out = []
    for k in letters:
        w = words.get(k)
        if w is None:
            w = h._word_rule(k)
            size = h._letters + (len(w) or 1)
            if size <= IMAGE_WORD_MAX_LEN:
                words[k] = w
                h._letters = size
        if len(out) + len(w) > IMAGE_WORD_MAX_LEN:
            # each distinct word once, from the table or the rule: a word
            # past the table's budget is built anew on every use
            lens = {a: len(words[a] if a in words else h._word_rule(a))
                    for a in set(letters)}
            size = sum(lens[a] for a in letters)
            raise HomError("image of a word of %d letters is a word of %d letters,"
                           " past the bound of %d"
                           % (len(letters), size, IMAGE_WORD_MAX_LEN))
        out += w
    return tuple(out)


def _word_table(h: WordHom, e: Element) -> dict:
    """The term table that sends each term c s_J s_K* of e, an element of
    h's domain, to c s_{w(J)} s_{w(K)}*, w(J) the concatenated words of J's
    letters, each word bounded by IMAGE_WORD_MAX_LEN.  The words of a hom
    form a prefix code, so J -> w(J) is one-to-one and the terms of e map to
    distinct keys with their nonzero coefficients; two terms that meet
    refute the prefix code with HomError.  The keys are not rewritten into
    the Leavitt basis."""
    table = {(_concat(h, l), _concat(h, r)): c for (l, r), c in e.terms.items()}
    if len(table) < len(e.terms):
        raise HomError("word hom %s -> %s maps two terms to one: its words are"
                       " not a prefix code" % (h.domain, h.codomain))
    return table


def apply(h: GenHom, e: Element) -> Element:
    """h(e).  A word hom builds its image table with _word_table, and the
    Element constructor takes it into the Leavitt basis.  Any other hom
    multiplies out the generator images of each term c s_J s_K*, starting
    from its first factor: h(s_j) for the first letter j of J, or h(s_k)*
    for the last letter k of K when J is empty.  A term of n letters takes
    n - 1 products; only a term c I takes the unit.  It refuses with
    HomError as soon as a factor or a product has a word past
    IMAGE_WORD_MAX_LEN letters."""
    if e.tag != h.domain:
        raise AlgebraError("algebra mismatch: %s vs hom domain %s" % (e.tag, h.domain))
    if isinstance(h, WordHom):
        return Element(h.codomain, _word_table(h, e))
    pairs = []
    for (l, r), c in e.terms.items():
        acc = None
        factors = itertools.chain((h.image(k) for k in l),
                                  (adjoint(h.image(k)) for k in reversed(r)))
        for x in factors:
            acc = x if acc is None else multiply(acc, x)
            for a, b in acc.terms:
                if len(a) > IMAGE_WORD_MAX_LEN or len(b) > IMAGE_WORD_MAX_LEN:
                    raise HomError("image of a term of %d letters builds a word of %d"
                                   " letters, past the bound of %d"
                                   % (len(l) + len(r), max(len(a), len(b)),
                                      IMAGE_WORD_MAX_LEN))
        if acc is None:
            acc = unit(h.codomain)
        pairs.extend((key, c * v) for key, v in acc.terms.items())
    return Element(h.codomain, pairs)


def compose(outer: GenHom, inner: GenHom, validate: bool = True) -> GenHom:
    if inner.codomain != outer.domain:
        raise AlgebraError(
            "algebra mismatch: inner codomain %s vs outer domain %s"
            % (inner.codomain, outer.domain)
        )
    a, b = outer.code, inner.code
    if a and b and b[0] == a[0] ** a[1]:
        h = DigitMap(inner.domain, a[0], a[1] * b[1])
    else:
        h = GenHom(inner.domain, outer.codomain, lambda k: apply(outer, inner.image(k)))
    if validate:
        _validate(h)
    return h


class DigitMap(WordHom):
    """The digit code (a, length): generator k goes to the length base-a
    digits of k - 1, most significant first and each plus 1, as one isometry
    word of O_a.  The domain may have at most a^length generators."""

    __slots__ = ("code",)

    def __init__(self, domain: AlgebraTag, a: int, length: int):
        check_int("a", a, 2, HomError)
        check_int("length", length, 1, HomError)
        if not domain.is_finite or domain.ngens > a ** length:
            raise HomError("no digit code (%d, %d) on %s" % (a, length, domain))
        cod = AlgebraTag(a)

        def rule(k: int) -> Word:
            k -= 1
            digits = []
            for _ in range(length):
                k, d = divmod(k, a)
                digits.append(d + 1)
            return tuple(reversed(digits))

        super().__init__(domain, cod, rule)
        self.code = (a, length)


def _comb_word(n: int, top: Optional[int], k: int) -> Word:
    """The comb word of generator k: n*l+i -> (n+1)^l i for 1 <= i <= n,
    and, for f(n, m) with top = m/n, m+1 -> (n+1)^top; top is None for
    f_inf.  It is refused with HomError, before it is built, past
    IMAGE_WORD_MAX_LEN letters."""
    l, i = divmod(k - 1, n)
    tail = () if l == top else (i + 1,)
    if l + len(tail) > IMAGE_WORD_MAX_LEN:
        raise HomError("image of generator %d is a word of %d letters, past the"
                       " bound of %d" % (k, l + len(tail), IMAGE_WORD_MAX_LEN))
    return (n + 1,) * l + tail


def _comb_decode(n: int, top: int, w: Word) -> Optional[Word]:
    """The generators of f(n, m), top = m/n, whose comb words concatenate to
    w, or None when w ends inside a run of fewer than top letters n+1.  A
    run of top letters n+1 is generator m+1, and a run of l < top of them
    then a letter i <= n is generator n*l+i; no code word is built."""
    out, run, last = [], 0, n + 1
    for a in w:
        if a != last:
            out.append(n * run + a)
            run = 0
        elif run + 1 == top:
            out.append(n * top + 1)
            run = 0
        else:
            run += 1
    return None if run else tuple(out)


def _check_divides(n: int, m: int) -> None:
    """Refuse with HomError (n, m) unless both are ints >= 1 and n divides m."""
    check_int("n", n, 1, HomError)
    check_int("m", m, 1, HomError)
    if m % n:
        raise HomError("%d does not divide %d" % (n, m))


def _comb_preimage(n: int, m: int, x: Element) -> Optional[dict]:
    """The term table of the y in R_m with f(n, m)(y) = x, for checked n | m
    and x in R_n, or None when some word of x does not decode."""
    top = m // n
    terms = {}
    for (l, r), c in x.terms.items():
        dl, dr = _comb_decode(n, top, l), _comb_decode(n, top, r)
        if dl is None or dr is None:
            return None
        terms[dl, dr] = c
    return terms


def f_preimage(n: int, m: int, x: Element) -> Optional[Element]:
    """The y in R_m with f(n, m)(y) = x, or None when some word of x does
    not decode through f's comb code.  Decoding is one-to-one, and a decoded
    word ends in m+1 iff its code word ends in n+1, so canonical terms of x
    give canonical terms of y: y keeps x's nonzero coefficients and needs no
    rewrite, so its table is taken as it is."""
    _check_divides(n, m)
    if x.tag.ngens != n + 1:
        raise AlgebraError("algebra mismatch: %s vs f(%d, %d) codomain O_%d"
                           % (x.tag, n, m, n + 1))
    terms = _comb_preimage(n, m, x)
    return None if terms is None else _trusted(AlgebraTag(m + 1), terms)


def f(n: int, m: int) -> GenHom:
    """The connecting map R_m -> R_n of the inverse system (n divides m),
    generator k -> its comb word: n*l+i -> (s_{n+1})^l s_i and
    m+1 -> (s_{n+1})^{m/n}.  For n = m this is the identity.
    """
    _check_divides(n, m)
    cod, top = AlgebraTag(n + 1), m // n
    return GenHom(AlgebraTag(m + 1), cod, lambda k: _monomial(cod, _comb_word(n, top, k)))


def f_inf(n: int) -> WordHom:
    """The embedding O_inf -> R_n: generator l*n+i -> (s_{n+1})^l s_i.

    Memoised: every call with the same n returns the same WordHom, whose
    kept words are built once.  At most F_INF_MEMO_SIZE homs are kept, each
    with a word table of at most IMAGE_WORD_MAX_LEN letters.  n is checked
    before the memo is consulted, so a refused n is never cached."""
    check_int("n", n, 1, HomError)
    return _f_inf(n)


@lru_cache(maxsize=F_INF_MEMO_SIZE, typed=True)
def _f_inf(n: int) -> WordHom:
    return WordHom(O_INF, AlgebraTag(n + 1), lambda k: _comb_word(n, None, k))


def rn(r: int, n: int) -> int:
    """Generator count r^(2^(n-1)) of the doubling chain, refused with
    HomError, before it is computed, when it may have more than Q_MAX_BITS
    bits."""
    check_int("r", r, 2, HomError)
    check_int("n", n, 1, HomError)
    # r_n has at most r.bit_length() << (n - 1) bits; as r >= 2, every n past
    # Q_MAX_BITS.bit_length() is refused before that shift is taken
    if n > Q_MAX_BITS.bit_length() or r.bit_length() << (n - 1) > Q_MAX_BITS:
        raise HomError("r_%d = %d^(2^%d) is too large: it may pass the bound of"
                       " %d bits" % (n, r, n - 1, Q_MAX_BITS))
    return r ** (2 ** (n - 1))


def q(r: int, n: int) -> GenHom:
    """The squaring map O_{r_{n+1}} -> O_{r_n}: generator r_n*(i-1)+j -> s_i s_j,
    the digit map (r_n, 2); rn refuses an r_n past Q_MAX_BITS bits."""
    size = rn(r, n)
    return DigitMap(AlgebraTag(size * size), size, 2)


def hom_exists(m_gens: Optional[int], n_gens: Optional[int]) -> bool:
    """Existence of a unital *-homomorphism O_m -> O_n, for int generator
    counts >= 2 (None = O_inf)."""
    for v in (m_gens, n_gens):
        if v is not None:
            check_int("generator count", v, 2, HomError)
    if n_gens is None:
        return m_gens is None  # no O_m -> O_inf for finite m
    if m_gens is None:
        return True
    return (m_gens - 1) % (n_gens - 1) == 0
