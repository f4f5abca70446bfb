"""The divisibility poset on the positive integers, cofinal chains, and the
embeddability graph between Cuntz algebras."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

# graphs have at most POSET_MAX vertices, so at most about 10^5 edges: vertex
# d has fewer than POSET_MAX/d multiples
POSET_MAX = 10 ** 4


def _check_carrier(xs: Sequence) -> None:
    # a bool is refused too, though bool subclasses int
    if not all(isinstance(a, int) and not isinstance(a, bool) and a >= 1 for a in xs):
        raise ValueError("poset elements must be positive integers: %r" % (tuple(xs),))


def leq(n: int, m: int) -> bool:
    """n precedes m iff n divides m."""
    _check_carrier((n, m))
    return m % n == 0


def join(n: int, m: int) -> int:
    """Least upper bound (lcm), witnessing directedness."""
    _check_carrier((n, m))
    return math.lcm(n, m)


@dataclass(frozen=True)
class Chain:
    """A finite divisibility chain n_1 | n_2 | ... of positive integers."""

    elements: Tuple[int, ...]

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValueError("chain must be nonempty")
        _check_carrier(elems)
        for a, b in zip(elems, elems[1:]):
            if not leq(a, b) or a == b:
                raise ValueError("not strictly increasing under divisibility: %r" % (elems,))

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


def cofinal_chain(enumeration: Sequence[int], length: int) -> Chain:
    """Totally ordered cofinal subsequence: y_1 = x_1 and y_k = lcm(y_{k-1}, x_k).

    Every enumerated x_i with i <= length divides some chain element."""
    if length < 1:
        raise ValueError("chain length must be >= 1, got %d" % length)
    xs = list(enumeration)[:length]
    if not xs:
        raise ValueError("empty enumeration")
    ys: List[int] = []
    for x in xs:
        y = x if not ys else join(ys[-1], x)
        ys.append(y)
    # drop repeats so the Chain is strictly increasing
    out = [ys[0]]
    for y in ys[1:]:
        if y != out[-1]:
            out.append(y)
    return Chain(tuple(out))


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
    if max_generators < 2:
        raise ValueError("need at least O_2")
    return sorted((m + 1, n + 1) for n, m in divisibility_edges(max_generators - 1, reduce))


def divisibility_edges(max_n: int, reduce: bool = False) -> List[Tuple[int, int]]:
    """Edges n -> m for n | m, n != m, on {1..max_n}: the pairs (d, k*d) with
    k >= 2, in sorted order; with reduce=True only those with k prime, the
    covers of the divisibility order (every multiple of d that divides k*d is
    at most max_n)."""
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
