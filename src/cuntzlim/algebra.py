"""Words, monomials and exact-coefficient elements of the dense *-subalgebras
of the Cuntz algebras O_n (n generators, n >= 2) and O_inf.

An element is a finite linear combination of reduced monomials s_J s_K*
with Gaussian-rational coefficients, kept in one canonical form.  For O_n it
is the Leavitt basis of L(1, n): the monomials whose words J and K do not
both end in the letter n (Alahmedi-Alsulami-Jain-Zelmanov, J. Algebra Appl.
11 (2012); Abrams-Ara-Siles Molina, Leavitt Path Algebras, LNM 2191).  For
O_inf the reduced monomials themselves are linearly independent.  Equal
elements therefore have equal term tables, so `equals`, `==` and `hash`
agree.  All operations are pure; elements are immutable by convention (term
tables are never mutated after construction).
The Element constructor is the one place where that basis is reached: it
adds like terms and drops zeros with _combine, which normalize's rewrite
uses too, and then runs normalize.  add, multiply, the parser and apply of
a word hom build through it.  A one-to-one map of a canonical table onto a
canonical table (a key swap in adjoint, scaling by a nonzero scalar, a
partition in limits.decompose_element) skips it and wraps its table with
_trusted; add does not, because two tables can meet and cancel.
Words are checked where they enter, by `mono`, `gen` and `parser.parse`;
`Element` and the operations build only from checked words and trust them.
Every parameter of the library (a generator index or count, n and m of
the inverse system, a chain element, a suite size) is an int with a lower
bound: the public entry points refuse any other value, a float or a bool
too, with check_int and their module's ValueError subclass.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Tuple, Union

from .scalars import GaussianRational, ONE, Rationalish

Word = Tuple[int, ...]
EPS: Word = ()


class AlgebraError(ValueError):
    pass


def check_int(name: str, value, low: int, error: type) -> None:
    """Refuse with `error`, a ValueError subclass, a value that is not an
    int, a bool included though bool subclasses int, or is below low."""
    if type(value) is not int:
        raise error("%s must be an int >= %d, got %r" % (name, low, value))
    if value < low:
        raise error("%s must be >= %d, got %d" % (name, low, value))


@dataclass(frozen=True)
class AlgebraTag:
    """Ambient algebra: O_ngens for finite ngens >= 2, O_inf for ngens=None."""

    ngens: Optional[int]

    def __post_init__(self):
        if self.ngens is not None:
            check_int("generator count", self.ngens, 2, AlgebraError)

    @property
    def is_finite(self) -> bool:
        return self.ngens is not None

    def check_index(self, k: int) -> None:
        check_int("generator index", k, 1, AlgebraError)
        if self.ngens is not None and k > self.ngens:
            raise AlgebraError(
                "generator index %d out of range for O_%d" % (k, self.ngens)
            )

    def check_word(self, w: Word) -> None:
        for k in w:
            self.check_index(k)

    def __str__(self) -> str:
        return "Oinf" if self.ngens is None else "O%d" % self.ngens

    # identity first: most tag checks meet one object twice, and the
    # dataclass __eq__ builds two tuples even then; != has its own method,
    # as object.__ne__ would call __eq__ at about three times the cost
    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ngens == other.ngens

    def __ne__(self, other):
        if self is other:
            return False
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ngens != other.ngens


O_INF = AlgebraTag(None)


def O(n: int) -> AlgebraTag:
    return AlgebraTag(n)


Key = Tuple[Word, Word]  # internal dict key (left, right)


class Element:
    """Linear combination of basis monomials over a fixed algebra tag.

    The constructor is the one place where like terms combine (_combine)
    and the canonical form is reached (normalize, called by name, so a
    patched normalize sees every rewrite); the term table never stores zero
    coefficients.  It trusts its words: input from outside goes
    through `mono`, `gen` or `parser.parse`, which check them.  A map that
    sends a canonical table one-to-one onto a canonical table (adjoint,
    scale by a nonzero scalar, a partition of the terms) has nothing to
    combine or rewrite and skips the constructor; add merges two tables and
    does not.
    """

    __slots__ = ("tag", "terms")

    def __init__(
        self,
        tag: AlgebraTag,
        terms: Union[Mapping[Key, Rationalish], Iterable[Tuple[Key, Rationalish]]] = (),
    ):
        """`terms` maps (left, right) word pairs to coefficients, or is an
        iterable of ((left, right), coefficient) pairs in which a pair may
        repeat."""
        self.tag = tag
        self.terms = _combine({}, terms.items() if hasattr(terms, "items") else terms)
        normalize(self)

    def is_zero(self) -> bool:
        return not self.terms

    # -- convenience operators (all delegate to module functions) --
    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return add(self, other)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return add(self, scale(-ONE, other))

    def __mul__(self, other: Union["Element", Rationalish]) -> "Element":
        # scalars are central, so e * c is c * e; scale refuses with
        # TypeError an operand that is neither an Element nor a scalar
        if isinstance(other, Element):
            return multiply(self, other)
        return scale(other, self)

    def __rmul__(self, c: Rationalish) -> "Element":
        return scale(c, self)

    def __neg__(self) -> "Element":
        return scale(-ONE, self)

    def star(self) -> "Element":
        return adjoint(self)

    def __eq__(self, other) -> bool:
        # tables are canonical, so this is equality in the algebra; equals()
        # is the same test but rejects elements of different algebras
        return (
            isinstance(other, Element)
            and self.tag == other.tag
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.tag, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .parser import render

        return "<%s: %s>" % (self.tag, render(self))


def _combine(table: dict, pairs: Iterable[Tuple[Key, Rationalish]]) -> dict:
    """Add each (key, coefficient) pair into table, in place, dropping a key
    whose coefficient sums to zero; returns table.  The one place where like
    terms combine: Element() builds its table with it and normalize adds its
    rewrite moves with it."""
    for key, c in pairs:
        s = table.get(key)
        s = GaussianRational.of(c) if s is None else s + c
        if s.is_zero():
            table.pop(key, None)
        else:
            table[key] = s
    return table


def _trusted(tag: AlgebraTag, table: dict) -> Element:
    """The element whose term table is `table`, taken as it is: no combining,
    no zero check and no Leavitt rewrite.  The caller proves that the keys
    are canonical and that every value is a nonzero GaussianRational; a
    table that may need combining or a rewrite goes through Element().  The
    callers, each with its proof in its docstring, are adjoint, scale,
    homs._monomial, homs.f_preimage, limits.psi and
    limits.decompose_element; tests/test_trusted.py refuses any other."""
    e = Element.__new__(Element)
    e.tag = tag
    e.terms = table
    return e


def zero(tag: AlgebraTag) -> Element:
    return Element(tag)

def unit(tag: AlgebraTag) -> Element:
    return Element(tag, {(EPS, EPS): ONE})

def gen(tag: AlgebraTag, i: int) -> Element:
    return mono(tag, (i,))

def mono(tag: AlgebraTag, left: Iterable[int], right: Iterable[int] = (),
         c: Rationalish = 1) -> Element:
    left, right = tuple(left), tuple(right)
    tag.check_word(left)
    tag.check_word(right)
    return Element(tag, {(left, right): GaussianRational.of(c)})


def _check_tags(a: Element, b: Element) -> None:
    if a.tag != b.tag:
        raise AlgebraError("algebra mismatch: %s vs %s" % (a.tag, b.tag))


def _mul_key(a: Key, b: Key) -> Optional[Key]:
    """(s_J s_K*)(s_L s_M*) under the Cuntz relations, or None if zero."""
    (j, k), (l, m) = a, b
    if len(k) <= len(l):
        if l[: len(k)] == k:
            return (j + l[len(k):], m)
        return None
    if k[: len(l)] == l:
        return (j, m + k[len(l):])
    return None


def pair_products(
    a: Iterable[Tuple[Key, GaussianRational]], b: Iterable[Tuple[Key, GaussianRational]]
) -> Iterator[Tuple[Key, GaussianRational]]:
    """The nonzero products of the (key, coefficient) pairs of a with those
    of b, uncombined; `b` is read once per pair of a, so pass a collection."""
    return (
        (key, ca * cb)
        for ka, ca in a
        for kb, cb in b
        if (key := _mul_key(ka, kb)) is not None
    )


def multiply(a: Element, b: Element) -> Element:
    _check_tags(a, b)
    return Element(a.tag, pair_products(a.terms.items(), b.terms.items()))


def adjoint(e: Element) -> Element:
    """e*: each term c s_J s_K* becomes conj(c) s_K s_J*, and the table is
    taken as it is.  Swapping J and K keeps "J and K do not both end in n",
    so a canonical key stays canonical (over O_inf every reduced monomial
    is canonical).  The swap is a bijection on keys, so no two terms meet,
    and the conjugate of a nonzero scalar is nonzero."""
    return _trusted(e.tag, {(r, l): c.conjugate() for (l, r), c in e.terms.items()})


def add(a: Element, b: Element) -> Element:
    _check_tags(a, b)
    return Element(a.tag, chain(a.terms.items(), b.terms.items()))


def scale(c: Rationalish, e: Element) -> Element:
    """c e.  For c != 0 the table is taken as it is: the keys do not move,
    and a product of two nonzero Gaussian rationals is nonzero, since Q(i)
    is a field.  For c = 0 it is the zero element."""
    c = GaussianRational.of(c)
    if c.is_zero():
        return zero(e.tag)
    return _trusted(e.tag, {k: c * v for k, v in e.terms.items()})


def normalize(e: Element) -> Element:
    """Rewrite the table of e into the Leavitt basis, in place; returns e.

    For O_n every monomial whose words both end in the letter n is replaced
    by way of the completeness relation,
    s_{J.n} s_{K.n}* = s_J s_K* - sum_{i<n} s_{J.i} s_{K.i}*.
    Only s_J s_K* can need a further rewrite and it is shorter, so the loop
    ends; by the basis theorem the result does not depend on the order of
    the rewrites, which _combine adds into the table.  O_inf has no
    completeness relation and no rewrite.  Element() runs this on every
    table it builds, so it changes no existing element.
    """
    n = e.tag.ngens
    if n is None:
        return e
    terms = e.terms
    todo = [(l, r) for (l, r) in terms if l[-1:] == r[-1:] == (n,)]
    while todo:
        l, r = todo.pop()
        c = terms.pop((l, r), None)
        if c is None:
            continue
        j, k = l[:-1], r[:-1]
        _combine(terms, [((j, k), c)] + [((j + (i,), k + (i,)), -c) for i in range(1, n)])
        if j[-1:] == k[-1:] == (n,):
            todo.append((j, k))
    return e


def equals(a: Element, b: Element) -> bool:
    """Exact equality in the algebra: both tables are in the canonical
    basis, so the elements are equal iff their tables are."""
    _check_tags(a, b)
    return a.terms == b.terms
