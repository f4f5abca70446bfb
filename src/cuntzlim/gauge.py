"""Gauge and torus-diagonal fixed-point checks, and the graded analysis of
the generator-doubling chain whose limit is uniformly hyperfinite."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .algebra import AlgebraError, Element, Word
from .homs import GenHom, apply, compose, q, rn, validate_prefix_code

# q(2, 4), the last map of `verify uhf --r 2 --depth 5`, has 2^16 generators
UHF_MAX_GENS = 2 ** 16


def is_gauge_invariant(e: Element) -> bool:
    """Fixed under the circle action: every monomial has |J| = |K|."""
    return all(len(l) == len(r) for (l, r) in e.terms)


def is_diagonal(e: Element) -> bool:
    """Fixed under the full torus action: every monomial has J = K."""
    return all(l == r for (l, r) in e.terms)


@dataclass
class FixedPointReport:
    diagonal_preserved: bool
    diagonal_failures: List[Tuple[Word, Word]]
    gauge_witness: Optional[Tuple[Tuple[Word, Word], Element]]


def _words(n: int, max_len: int, min_len: int = 0):
    for length in range(min_len, max_len + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


def fixed_point_report(h: GenHom, sample_len: int) -> FixedPointReport:
    """Checks that diagonal monomials stay diagonal, and hunts for a
    gauge-invariant monomial whose image leaves the gauge-invariant part."""
    if not (h.domain.is_finite and h.codomain.is_finite):
        raise AlgebraError("fixed-point checks need finite Cuntz tags")
    from .algebra import mono

    m = h.domain.ngens
    failures = []
    for w in _words(m, sample_len, 1):
        img = apply(h, mono(h.domain, w, w))
        if not is_diagonal(img):
            failures.append((w, w))
    witness = None
    for length in range(1, sample_len + 1):
        for l in _words(m, length, length):
            for r in _words(m, length, length):
                img = apply(h, mono(h.domain, l, r))
                if not is_gauge_invariant(img):
                    witness = ((l, r), img)
                    break
            if witness:
                break
        if witness:
            break
    return FixedPointReport(not failures, failures, witness)


def uhf_member(r: int, n: int, left: Word, right: Word) -> bool:
    """Membership in the n-th block subalgebra of O_r: both word lengths
    must be multiples of 2^(n-1)."""
    if r < 2 or n < 1:
        raise ValueError("need r >= 2 and n >= 1")
    block = 2 ** (n - 1)
    return len(left) % block == 0 and len(right) % block == 0


def uhf_graded_vanishing(r: int, n: int, l: int, max_len: int) -> bool:
    """True iff no block-subalgebra monomial of length <= max_len has grade l
    when 2^(n-1) does not divide l (enumeration verdict over lengths only:
    grades depend only on |J| and |K|)."""
    block = 2 ** (n - 1)
    for a in range(0, max_len + 1, block):
        b = a - l
        if 0 <= b <= max_len and b % block == 0:
            return False
    return True


@dataclass
class UhfLevelCheck:
    n: int
    code_maximal: bool
    member_ok: bool
    grade_scale: int


@dataclass
class UhfChainReport:
    r: int
    depth: int
    levels: List[UhfLevelCheck]
    vanishing: Dict[Tuple[int, int], bool]  # (n, l) -> vanishes as required
    ok: bool


def uhf_chain_check(r: int, depth: int, max_len: int = 12, grade_range: int = 6,
                    maps: Optional[Callable[[int], GenHom]] = None) -> UhfChainReport:
    """Checks the squaring maps O_{r_{n+1}} -> O_{r_n} for n < depth (maps(n),
    by default q(r, n)), pushes their images down to O_r, and records block
    membership, grade doubling, and the graded vanishing pattern.  A level's
    map is a valid *-hom exactly when its image words form a maximal prefix
    code, so that certificate is the one check of each level.  It reads every
    image word, so a depth whose last map has more than UHF_MAX_GENS
    generators raises ValueError before any level is built."""
    if depth < 2 or r < 2:
        raise ValueError("need r >= 2 and depth >= 2")
    # level by level: rn(r, depth) itself may have astronomically many digits
    if any(rn(r, n + 1) > UHF_MAX_GENS for n in range(1, depth)):
        raise ValueError("depth %d is too deep: q(%d, %d) has more than %d generators"
                         % (depth, r, depth - 1, UHF_MAX_GENS))
    maps = maps or (lambda n: q(r, n))
    levels = []
    push = None  # composed map A_{r,n+1} -> A_{r,1}
    for n in range(1, depth):
        step = maps(n)
        words = step.image_words()
        code_maximal = bool(words) and validate_prefix_code(words, rn(r, n)).maximal
        push = step if push is None else compose(push, step, validate=False)
        scale = 2 ** n
        pushed = push.image_words()
        member_ok = bool(pushed) and all(
            len(w) == scale and uhf_member(r, n + 1, w, ()) for w in pushed
        )
        levels.append(UhfLevelCheck(n, code_maximal, member_ok, scale))
    vanishing = {}
    for n in range(1, depth + 1):
        block = 2 ** (n - 1)
        for l in range(-grade_range, grade_range + 1):
            if l != 0 and l % block:
                vanishing[(n, l)] = uhf_graded_vanishing(r, n, l, max_len)
    ok = all(lv.code_maximal and lv.member_ok for lv in levels) and all(
        vanishing.values()
    )
    return UhfChainReport(r, depth, levels, vanishing, ok)
