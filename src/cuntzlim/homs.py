"""Generator-defined *-homomorphisms between Cuntz algebras.

A hom is stored by its generator images and validated symbolically:
f(s_i)* f(s_j) = delta_ij I for all pairs, and sum_i f(s_i) f(s_i)* = I
for finite domains.  When the images are single isometry words this is
equivalent to the image words forming a (maximal) prefix code, which is
reported separately as an exact combinatorial certificate.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Sequence, Union

from .algebra import (
    AlgebraError,
    AlgebraTag,
    Element,
    Word,
    adjoint,
    add,
    equals,
    mono,
    multiply,
    scale,
    unit,
    zero,
)

ENV_BOUND = "CUNTZLIM_INF_VALIDATION_BOUND"
DEFAULT_INF_BOUND = 32


class HomError(ValueError):
    pass


def default_validation_bound() -> int:
    try:
        return max(2, int(os.environ.get(ENV_BOUND, DEFAULT_INF_BOUND)))
    except ValueError:
        return DEFAULT_INF_BOUND


@dataclass(frozen=True)
class CodeReport:
    prefix_free: bool
    kraft_sum: Fraction
    maximal: bool


def validate_prefix_code(words: Iterable[Word], alphabet_size: int) -> CodeReport:
    ws = [tuple(w) for w in words]
    if not ws:
        raise HomError("empty word set")
    # duplicates break prefix-freeness; so does any proper prefix in the set
    seen = set(ws)
    prefix_free = len(seen) == len(ws) and not any(
        w[:d] in seen for w in ws for d in range(1, len(w))
    )
    kraft = sum(Fraction(1, alphabet_size ** len(w)) for w in ws)
    return CodeReport(prefix_free, kraft, prefix_free and kraft == 1)


class GenHom:
    """A *-homomorphism given by generator images.

    Finite domains store an image tuple; O_inf domains store a total rule
    index -> Element together with the bound used during validation.
    """

    __slots__ = ("domain", "codomain", "_images", "_rule", "bound", "_cache")

    def __init__(
        self,
        domain: AlgebraTag,
        codomain: AlgebraTag,
        images: Union[Sequence[Element], Callable[[int], Element]],
        bound: Optional[int] = None,
    ):
        self.domain = domain
        self.codomain = codomain
        self.bound = bound or default_validation_bound()
        self._cache: Dict[int, Element] = {}
        if domain.is_finite:
            imgs = tuple(images)
            if len(imgs) != domain.ngens:
                raise HomError(
                    "expected %d generator images, got %d"
                    % (domain.ngens, len(imgs))
                )
            self._images, self._rule = imgs, None
        else:
            if not callable(images):
                raise HomError("O_inf domain needs an image rule")
            self._images, self._rule = None, images

    def image(self, k: int) -> Element:
        self.domain.check_index(k)
        if self._images is not None:
            e = self._images[k - 1]
        else:
            e = self._cache.get(k)
            if e is None:
                e = self._rule(k)
                self._cache[k] = e
        if e.tag != self.codomain:
            raise HomError("image of generator %d has wrong tag" % k)
        return e

    def gens(self) -> range:
        n = self.domain.ngens
        return range(1, (n if n is not None else self.bound) + 1)

    def image_words(self) -> list:
        """Image words when every image is a single bare isometry word."""
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


def make_hom(
    domain: AlgebraTag,
    codomain: AlgebraTag,
    images,
    bound: Optional[int] = None,
    validate: bool = True,
) -> GenHom:
    h = GenHom(domain, codomain, images, bound)
    if validate:
        _validate(h)
    return h


def identity(tag: AlgebraTag) -> GenHom:
    if tag.is_finite:
        return GenHom(tag, tag, [mono(tag, (i,)) for i in range(1, tag.ngens + 1)])
    return GenHom(tag, tag, lambda k: mono(tag, (k,)))


def apply(h: GenHom, e: Element) -> Element:
    if e.tag != h.domain:
        raise AlgebraError("algebra mismatch: %s vs hom domain %s" % (e.tag, h.domain))
    out = zero(h.codomain)
    one = unit(h.codomain)
    for (l, r), c in e.terms.items():
        acc = one
        for k in l:
            acc = multiply(acc, h.image(k))
        for k in reversed(r):
            acc = multiply(acc, adjoint(h.image(k)))
        out = add(out, scale(c, acc))
    return out


def compose(outer: GenHom, inner: GenHom, validate: bool = True) -> GenHom:
    if inner.codomain != outer.domain:
        raise AlgebraError(
            "algebra mismatch: inner codomain %s vs outer domain %s"
            % (inner.codomain, outer.domain)
        )
    if inner.domain.is_finite:
        images = [apply(outer, inner.image(k)) for k in inner.gens()]
    else:
        images = lambda k: apply(outer, inner.image(k))
    return make_hom(inner.domain, outer.codomain, images,
                    bound=inner.bound, validate=validate)


def f(n: int, m: int, validate: bool = False) -> GenHom:
    """The connecting map R_m -> R_n of the inverse system (n divides m):
    generator n*l+i -> (s_{n+1})^l s_i and generator m+1 -> (s_{n+1})^{m/n}.
    """
    if n < 1 or m < 1:
        raise HomError("n and m must be positive")
    if m % n:
        raise HomError("%d does not divide %d" % (n, m))
    dom, cod = AlgebraTag(m + 1), AlgebraTag(n + 1)
    if n == m:
        return identity(dom)
    top = n + 1
    images = []
    for l in range(m // n):
        for i in range(1, n + 1):
            images.append(mono(cod, (top,) * l + (i,)))
    images.append(mono(cod, (top,) * (m // n)))
    h = GenHom(dom, cod, images)
    if validate:
        _validate(h)
    return h


def f_inf(n: int) -> GenHom:
    """The embedding O_inf -> R_n: generator l*n+i -> (s_{n+1})^l s_i."""
    if n < 1:
        raise HomError("n must be positive")
    cod = AlgebraTag(n + 1)

    def rule(k: int) -> Element:
        l, i = divmod(k - 1, n)
        return mono(cod, (n + 1,) * l + (i + 1,))

    from .algebra import O_INF

    return GenHom(O_INF, cod, rule)


def rn(r: int, n: int) -> int:
    """Generator count r^(2^(n-1)) of the doubling chain."""
    return r ** (2 ** (n - 1))


def q(r: int, n: int, validate: bool = False) -> GenHom:
    """The squaring map O_{r_{n+1}} -> O_{r_n}: generator r_n*(i-1)+j -> s_i s_j."""
    if r < 2 or n < 1:
        raise HomError("need r >= 2 and n >= 1")
    size = rn(r, n)
    dom, cod = AlgebraTag(size * size), AlgebraTag(size)
    images = [
        mono(cod, (i, j))
        for i in range(1, size + 1)
        for j in range(1, size + 1)
    ]
    h = GenHom(dom, cod, images)
    if validate:
        _validate(h)
    return h


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
