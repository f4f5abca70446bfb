"""The divisibility poset on the positive integers, cofinal chains (a Chain
is a tuple checked once, when it is built), and the embeddability graph
between Cuntz algebras."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from .algebra import check_int

# graphs have at most POSET_MAX vertices, so at most about 10^5 edges: vertex
# d has fewer than POSET_MAX/d multiples
POSET_MAX = 10 ** 4


def leq(n: int, m: int) -> bool:
    """n precedes m iff n divides m."""
    check_int("poset element", n, 1, ValueError)
    check_int("poset element", m, 1, ValueError)
    return m % n == 0


def join(n: int, m: int) -> int:
    """Least upper bound (lcm), witnessing directedness."""
    check_int("poset element", n, 1, ValueError)
    check_int("poset element", m, 1, ValueError)
    return math.lcm(n, m)


class Chain(tuple):
    """A finite divisibility chain n_1 | n_2 | ... of positive integers: a
    tuple of them, checked once, when it is built, to be nonempty and
    strictly increasing under divisibility.  It equals the plain tuple of
    its elements."""

    __slots__ = ()

    def __new__(cls, elements: Iterable[int]):
        self = super().__new__(cls, elements)
        if not self:
            raise ValueError("chain must be nonempty")
        for a in self:
            check_int("poset element", a, 1, ValueError)
        for a, b in zip(self, self[1:]):
            if b % a or a == b:
                raise ValueError("not strictly increasing under divisibility: %r" % (self,))
        return self


def cofinal_chain(enumeration: Iterable[int], length: int) -> Chain:
    """Totally ordered cofinal subsequence: y_1 = x_1 and y_k = lcm(y_{k-1}, x_k).

    Every enumerated x_i with i <= length divides some chain element; the
    enumeration is read no further than x_length."""
    check_int("chain length", length, 1, ValueError)
    xs = list(itertools.islice(enumeration, length))
    if not xs:
        raise ValueError("empty enumeration")
    ys = xs[:1]
    for x in xs[1:]:
        y = join(ys[-1], x)
        if y != ys[-1]:  # a repeat would make the Chain not strictly increasing
            ys.append(y)
    return Chain(ys)


@dataclass
class Digraph:
    vertices: List[str]
    edges: List[Tuple[str, str]] = field(default_factory=list)

    def to_dot(self, name: str = "g") -> str:
        lines = ["digraph %s {" % name]
        for v in self.vertices:
            lines.append('  "%s";' % v)
        for a, b in self.edges:
            lines.append('  "%s" -> "%s";' % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def embeddability_edges(max_generators: int, reduce: bool = False) -> List[Tuple[int, int]]:
    """Edges O_m -> O_n (as generator-count pairs) for unital embeddings,
    that is (n-1) | (m-1); with reduce=True only covering arrows are kept
    (the Hasse diagram)."""
    check_int("max_generators", max_generators, 2, ValueError)
    return sorted((m + 1, n + 1) for n, m in divisibility_edges(max_generators - 1, reduce))


def divisibility_edges(max_n: int, reduce: bool = False) -> List[Tuple[int, int]]:
    """Edges n -> m for n | m, n != m, on {1..max_n}: the pairs (d, k*d) with
    k >= 2, in sorted order; with reduce=True only those with k prime, the
    covers of the divisibility order (every multiple of d that divides k*d is
    at most max_n)."""
    check_int("max_n", max_n, 0, ValueError)
    if max_n > POSET_MAX:
        raise ValueError("a graph on %d vertices is too large: the bound is %d"
                         % (max_n, POSET_MAX))
    prime = [True] * (max_n + 1)
    for p in range(2, max_n + 1):
        if prime[p]:
            for m in range(p * p, max_n + 1, p):
                prime[m] = False
    return [(d, k * d) for d in range(1, max_n + 1) for k in range(2, max_n // d + 1)
            if prime[k] or not reduce]


def reversed_relabeled(edges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Reverse each O_m -> O_n arrow and relabel k -> k-1; this turns the
    embeddability graph into the divisibility graph."""
    return sorted((n - 1, m - 1) for (m, n) in edges)


def embeddability_graph(max_generators: int, reduce: bool = False) -> Digraph:
    # the edges first: they refuse a graph past POSET_MAX before any vertex
    # label is built
    edges = [
        ("O%d" % m, "O%d" % n) for m, n in embeddability_edges(max_generators, reduce)
    ]
    verts = ["O%d" % k for k in range(2, max_generators + 1)]
    return Digraph(verts, edges)
