"""The gauge grade |J| - |K| and torus-diagonal monomials, the gauge
witness of a word hom read from its image words, and the checks of the
generator-doubling chain whose limit is uniformly hyperfinite: each level's
squaring map and its push composite down to O_r are decided from their digit
codes, and a composite's code length is the factor by which it scales the
gauge grade.  Every reported field is read from the maps under test, so a
map that breaks a level changes its report."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .algebra import AlgebraError, Element, Word, check_int, mono
from .homs import GenHom, HomError, apply, compose, q, rn


def is_gauge_invariant(e: Element) -> bool:
    """Fixed under the circle action: every monomial has |J| = |K|."""
    return all(len(l) == len(r) for (l, r) in e.terms)


def is_diagonal(e: Element) -> bool:
    """Fixed under the full torus action: every monomial has J = K."""
    return all(l == r for (l, r) in e.terms)


def gauge_witness(h: GenHom) -> Optional[Tuple[Tuple[Word, Word], Element]]:
    """The first grade-0 monomial s_i s_j*, (i, j) in lexicographic order,
    that h maps out of the gauge-invariant part, with its image; None when h
    keeps the grading.  h must send each generator to one isometry word: it
    maps s_J s_K* to s_{h(J)} s_{h(K)}*, and the Leavitt rewrite keeps the
    grade, so diagonal monomials stay diagonal and the grading breaks iff two
    image words differ in length.  Then (1, j) is the first such pair."""
    if not (h.domain.is_finite and h.codomain.is_finite):
        raise AlgebraError("gauge witnesses need finite Cuntz tags")
    words = h.image_words()
    if not words:
        raise HomError("%r sends some generator to no single isometry word" % (h,))
    j = next((j for j, w in enumerate(words, 1) if len(w) != len(words[0])), None)
    if j is None:
        return None
    return ((1,), (j,)), apply(h, mono(h.domain, (1,), (j,)))


@dataclass
class UhfLevelCheck:
    n: int
    code_maximal: bool
    member_ok: bool
    grade_scale: Optional[int]  # push composite's code length; None without a code


@dataclass
class UhfChainReport:
    r: int
    depth: int
    levels: List[UhfLevelCheck]
    ok: bool


def uhf_chain_check(r: int, depth: int,
                    maps: Optional[Callable[[int], GenHom]] = None) -> UhfChainReport:
    """Checks the squaring maps O_{r_{n+1}} -> O_{r_n} for n < depth (maps(n),
    by default q(r, n)), pushes their images down to O_r, and records block
    membership and the grade scale.  Both certificates are read from digit
    codes, with no image built: a level's map must be a DigitMap (a, L) on
    O_{a^L}, a uniform full code and so a valid *-hom, and its push composite
    the DigitMap (r, 2^n) on O_{r^(2^n)}.  The composite's code length L is
    the level's grade scale: a digit map (a, L) multiplies |J| - |K| by L.  A
    map without a code fails its level.  Depth is bounded by Q_MAX_BITS,
    which q inherits from rn."""
    check_int("r", r, 2, ValueError)
    check_int("depth", depth, 2, ValueError)
    levels = []
    push = None  # composed map A_{r,n+1} -> A_{r,1}
    for n in range(1, depth):
        # q raises HomError past Q_MAX_BITS, before maps(n) is asked for
        step = q(r, n)
        step = maps(n) if maps else step
        code = step.code
        code_maximal = code is not None and step.domain.ngens == code[0] ** code[1]
        push = step if push is None else compose(push, step, validate=False)
        member_ok = push.code == (r, 2 ** n) and push.domain.ngens == rn(r, n) ** 2
        scale = push.code[1] if push.code else None
        levels.append(UhfLevelCheck(n, code_maximal, member_ok, scale))
    ok = all(lv.code_maximal and lv.member_ok for lv in levels)
    return UhfChainReport(r, depth, levels, ok)
