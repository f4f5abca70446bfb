"""Truncated inverse-limit machinery over divisibility chains, the free
subsemigroup word combinatorics of Q_1 = O_2, the direct-sum decomposition
Q_n = Q_inf + V_n + V_n*, and the distinguished state killing every
monomial that is not supported on the first generator."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .algebra import (
    AlgebraError,
    Element,
    O,
    Word,
    equals,
)
from .homs import apply, f, f_inf
from .poset import Chain
from .scalars import GaussianRational, ONE, ZERO

O2 = O(2)


# ---------------------------------------------------------------------------
# coherent families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoherentFamily:
    """A truncated inverse-limit element: entry j lives in R_{n_j} and the
    connecting maps must carry later entries onto earlier ones."""

    chain: Chain
    entries: Tuple[Element, ...]

    def __post_init__(self):
        if len(self.entries) != len(self.chain):
            raise ValueError("one entry per chain element required")
        for n, e in zip(self.chain, self.entries):
            if e.tag != O(n + 1):
                raise AlgebraError(
                    "entry for chain element %d must live in O_%d" % (n, n + 1)
                )


def check_coherent(fam: CoherentFamily) -> bool:
    """All pairwise constraints f(n_j, n_l)(x_l) = x_j (consecutive pairs
    would suffice by functoriality, but every pair is checked)."""
    ns = list(fam.chain)
    for j in range(len(ns)):
        for l in range(j + 1, len(ns)):
            h = f(ns[j], ns[l])
            if not equals(apply(h, fam.entries[l]), fam.entries[j]):
                return False
    return True


def psi(chain: Chain, x: Element) -> CoherentFamily:
    """Truncation of the canonical isomorphism O_inf -> inverse limit:
    the entry over n is the image of x under the embedding into R_n."""
    entries = tuple(apply(f_inf(n), x) for n in chain)
    return CoherentFamily(chain, entries)


# ---------------------------------------------------------------------------
# word combinatorics over {1, 2}
# ---------------------------------------------------------------------------

def _check_sgword(w: Word) -> None:
    if any(a not in (1, 2) for a in w):
        raise ValueError("semigroup words use letters 1 and 2 only")


def _trailing_two_run(w: Word) -> int:
    t = 0
    for a in reversed(w):
        if a != 2:
            break
        t += 1
    return t


def in_K(n: int, w: Word) -> bool:
    """w = (2^n)^k for some k >= 1."""
    _check_sgword(w)
    return len(w) > 0 and all(a == 2 for a in w) and len(w) % n == 0


def in_L_inf(w: Word) -> bool:
    """Words ending in the letter 1 (products of blocks 2^m 1)."""
    _check_sgword(w)
    return len(w) > 0 and w[-1] == 1


def in_L(n: int, w: Word) -> bool:
    """Concatenations of blocks {1, 21, ..., 2^(n-1) 1, 2^n}: any maximal
    2-run before a 1 splits greedily, so membership reduces to the trailing
    2-run having length divisible by n."""
    _check_sgword(w)
    return len(w) > 0 and _trailing_two_run(w) % n == 0


def decompose_word(n: int, w: Word) -> Tuple[str, Optional[Tuple[Word, Word]]]:
    """Split of L_n into L_inf and Y_n = {u, xu : x in L_inf, u in K_n}.

    Returns ("L_inf", None) or ("Y", (x, u)) with w = x + u, u a 2-run."""
    w = tuple(w)
    if not in_L(n, w):
        raise ValueError("word %r is not in L_%d" % (w, n))
    t = _trailing_two_run(w)
    if t == 0:
        return ("L_inf", None)
    return ("Y", (w[: len(w) - t], w[len(w) - t:]))


# ---------------------------------------------------------------------------
# decomposition Q_n = Q_inf + V_n + V_n*
# ---------------------------------------------------------------------------

def _split_ln(n: int, w: Word) -> Tuple[Word, int]:
    """Write w in L_n or empty as x + (2,)*(a*n) with x in L_inf or empty."""
    w = tuple(w)
    if w == ():
        return (), 0
    _check_sgword(w)
    t = _trailing_two_run(w)
    if t % n:
        raise ValueError("word %r is not in L_%d" % (w, n))
    return w[: len(w) - t], t // n


def is_q_inf_shape(left: Word, right: Word) -> bool:
    return (left == () or in_L_inf(left)) and (right == () or in_L_inf(right))


def is_v_shape(n: int, left: Word, right: Word) -> bool:
    if right != () and not in_L_inf(right):
        return False
    t = _trailing_two_run(left)
    return t > 0 and t % n == 0 and (t == len(left) or in_L_inf(left[: len(left) - t]))


def is_vstar_shape(n: int, left: Word, right: Word) -> bool:
    return is_v_shape(n, right, left)


def classify_monomial(n: int, left: Word, right: Word) -> Tuple[Element, Element, Element]:
    """Decompose the monomial s_left s_right* (words in L_n or empty) into
    its (Q_inf, V_n, V_n*) parts; the parts sum back to the input.

    Mixed monomials x 2^(an) (y 2^(bn))* with a, b >= 1 are rewritten with
    the range projection identity
    (t_2)^n (t_2*)^n = I - sum_{k<n} t_2^k t_1 t_1* (t_2*)^k
    before classification."""
    left, right = tuple(left), tuple(right)
    x, a = _split_ln(n, left)
    y, b = _split_ln(n, right)
    c = min(a, b)  # 0 unless the monomial is mixed
    lrem = x + (2,) * ((a - c) * n)
    rrem = y + (2,) * ((b - c) * n)
    q_terms, v_terms, vs_terms = [], [], []
    (v_terms if a > b else vs_terms if a < b else q_terms).append(((lrem, rrem), ONE))
    q_terms.extend(((lrem + (2,) * k + (1,), rrem + (2,) * k + (1,)), -ONE)
                   for k in range(c * n))
    return (Element(O2, q_terms), Element(O2, v_terms), Element(O2, vs_terms))


def decompose_element(n: int, e: Element) -> Tuple[Element, Element, Element]:
    """Linear extension of classify_monomial; parts sum to e."""
    if e.tag != O2:
        raise AlgebraError("decomposition lives in O_2")
    parts = ([], [], [])
    for (l, r), c in e.terms.items():
        for pairs, m in zip(parts, classify_monomial(n, l, r)):
            pairs.extend((key, c * v) for key, v in m.terms.items())
    return tuple(Element(O2, pairs) for pairs in parts)


# ---------------------------------------------------------------------------
# the state fixing the first generator
# ---------------------------------------------------------------------------

def state_omega(n: int, e: Element) -> GaussianRational:
    """The unique state on R_n with value 1 on s_1: a monomial contributes
    its coefficient iff both words consist solely of the letter 1."""
    if e.tag != O(n + 1):
        raise AlgebraError("element must live in R_%d = O_%d" % (n, n + 1))
    total = ZERO
    for (l, r), c in e.terms.items():
        if all(a == 1 for a in l) and all(a == 1 for a in r):
            total = total + c
    return total
