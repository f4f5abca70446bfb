"""Generator-defined *-homomorphisms between Cuntz algebras.

A hom is a rule for its generator images, run on first use.  make_hom
always validates it symbolically: f(s_i)* f(s_j) = delta_ij I for all
pairs, and sum_i f(s_i) f(s_i)* = I for finite domains; an O_inf domain is
checked on its first INF_VALIDATION_GENS generators.  The families f, f_inf
and q are built as bare GenHoms; they send every generator to one isometry
word, and for such a word hom the relations hold exactly when the image
words form a maximal prefix code (prefix-free, Kraft sum 1), an exact
certificate that validate_prefix_code(h.image_words(), ...) checks in
linear time.  compose validates only when asked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Sequence, Union

from .algebra import (
    AlgebraError,
    AlgebraTag,
    Element,
    O_INF,
    Word,
    adjoint,
    add,
    equals,
    mono,
    multiply,
    unit,
    zero,
)

INF_VALIDATION_GENS = 32


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


def identity(tag: AlgebraTag) -> GenHom:
    return GenHom(tag, tag, lambda k: mono(tag, (k,)))


def apply(h: GenHom, e: Element) -> Element:
    if e.tag != h.domain:
        raise AlgebraError("algebra mismatch: %s vs hom domain %s" % (e.tag, h.domain))
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
    build = make_hom if validate else GenHom
    return build(inner.domain, outer.codomain, lambda k: apply(outer, inner.image(k)))


def _block_rule(n: int, cod: AlgebraTag) -> Callable[[int], Element]:
    """Generator n*l+i -> (s_{n+1})^l s_i for 1 <= i <= n."""

    def rule(k: int) -> Element:
        l, i = divmod(k - 1, n)
        return mono(cod, (n + 1,) * l + (i + 1,))

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
    block = _block_rule(n, cod)
    last = (n + 1,) * (m // n)
    return GenHom(AlgebraTag(m + 1), cod,
                  lambda k: block(k) if k <= m else mono(cod, last))


def f_inf(n: int) -> GenHom:
    """The embedding O_inf -> R_n: generator l*n+i -> (s_{n+1})^l s_i."""
    if n < 1:
        raise HomError("n must be positive")
    cod = AlgebraTag(n + 1)
    return GenHom(O_INF, cod, _block_rule(n, cod))


def rn(r: int, n: int) -> int:
    """Generator count r^(2^(n-1)) of the doubling chain."""
    return r ** (2 ** (n - 1))


def q(r: int, n: int) -> GenHom:
    """The squaring map O_{r_{n+1}} -> O_{r_n}: generator r_n*(i-1)+j -> s_i s_j."""
    if r < 2 or n < 1:
        raise HomError("need r >= 2 and n >= 1")
    size = rn(r, n)
    cod = AlgebraTag(size)

    def rule(k: int) -> Element:
        i, j = divmod(k - 1, size)
        return mono(cod, (i + 1, j + 1))

    return GenHom(AlgebraTag(size * size), cod, rule)


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
