"""Truncated inverse limits over divisibility chains, the word combinatorics
of L_n in {1, 2}*, the state fixing the first generator, and the direct-sum
decomposition Q_n = Q_inf + V_n + V_n* of O_2: decompose_element sorts the
terms of a canonical element into the three parts by their last letters."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .algebra import AlgebraError, Element, O, Word, check_int
from .homs import _comb_preimage, apply, f_inf
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
            if e.tag.ngens != n + 1:
                raise AlgebraError(
                    "entry for chain element %d must live in O_%d" % (n, n + 1)
                )


def check_coherent(fam: CoherentFamily) -> bool:
    """The consecutive constraints f(n_j, n_{j+1})(x_{j+1}) = x_j.  Every
    other pair follows from them by the inverse-system law
    f(n,m) o f(m,l) = f(n,l), which verify_inverse_system checks.

    Each constraint is decided by decoding x_j, not by applying f: f's words
    form a prefix code, so f sends distinct words to distinct words, and
    only generator m+1's word ends in n+1.  A canonical term of x_{j+1}
    therefore maps to a canonical term, one-to-one, with its coefficient,
    and f(y) = x holds iff every term of x decodes and the decoded terms
    are those of y (f_preimage).  The chain and the entries' tags were
    checked when the family was built, so they are not checked again."""
    ns, xs = fam.chain.elements, fam.entries
    return all(_comb_preimage(n, m, x) == y.terms
               for n, m, x, y in zip(ns, ns[1:], xs, xs[1:]))


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
    check_int("n", n, 1, ValueError)
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
    check_int("n", n, 1, ValueError)
    _check_sgword(w)
    return len(w) > 0 and _trailing_two_run(w) % n == 0


def decompose_word(n: int, w: Word) -> Tuple[str, Optional[Tuple[Word, Word]]]:
    """Split of L_n into L_inf and Y_n = {u, xu : x in L_inf, u in K_n}.

    Returns ("L_inf", None) or ("Y", (x, u)) with w = x + u, u a 2-run."""
    check_int("n", n, 1, ValueError)
    w = tuple(w)
    if not w:
        raise ValueError("word () is not in L_%d" % n)
    x, a = _split_ln(n, w)
    return ("Y", (x, w[len(x):])) if a else ("L_inf", None)


# ---------------------------------------------------------------------------
# decomposition Q_n = Q_inf + V_n + V_n*
# ---------------------------------------------------------------------------

def _split_ln(n: int, w: Word) -> Tuple[Word, int]:
    """Write w in L_n or empty as x + (2,)*(a*n) with x in L_inf or empty."""
    w = tuple(w)
    _check_sgword(w)
    t = _trailing_two_run(w)
    if t % n:
        raise ValueError("word %r is not in L_%d" % (w, n))
    return w[: len(w) - t], t // n


# the shape predicates read the words of a canonical O_2 element whose
# words are in L_n or empty: such a word is empty or in L_inf iff it does
# not end in 2, and it is so once its maximal trailing 2-run is cut off
def is_q_inf_shape(left: Word, right: Word) -> bool:
    return left[-1:] != (2,) and right[-1:] != (2,)


def is_v_shape(n: int, left: Word, right: Word) -> bool:
    t = _trailing_two_run(left)
    return right[-1:] != (2,) and t > 0 and t % n == 0


def is_vstar_shape(n: int, left: Word, right: Word) -> bool:
    return is_v_shape(n, right, left)


def classify_monomial(n: int, left: Word, right: Word) -> Tuple[Element, Element, Element]:
    """Decompose the monomial s_left s_right* (words in L_n or empty) into
    its (Q_inf, V_n, V_n*) parts; the parts sum back to the input.  The raw
    words are checked here; the canonical form of a mixed monomial
    x 2^(an) (y 2^(bn))* is already split by the Leavitt rewrite."""
    check_int("n", n, 1, ValueError)
    left, right = tuple(left), tuple(right)
    _split_ln(n, left)
    _split_ln(n, right)
    return decompose_element(n, Element(O2, [((left, right), ONE)]))


def decompose_element(n: int, e: Element) -> Tuple[Element, Element, Element]:
    """Partition of the terms of e (words in L_n or empty) into its
    (Q_inf, V_n, V_n*) parts, one Element each; sums to e.  A term goes to
    V_n if its left word ends in 2, to V_n* if its right word does and to
    Q_inf otherwise: a canonical O_2 term never has both words ending in 2."""
    if e.tag != O2:
        raise AlgebraError("decomposition lives in O_2")
    check_int("n", n, 1, ValueError)
    parts = ([], [], [])
    for key, c in e.terms.items():
        l, r = key
        w, k = (l, 1) if l[-1:] == (2,) else (r, 2) if r[-1:] == (2,) else ((), 0)
        if _trailing_two_run(w) % n:
            raise ValueError("word %r is not in L_%d" % (w, n))
        parts[k].append((key, c))
    return tuple(Element(O2, pairs) for pairs in parts)


# ---------------------------------------------------------------------------
# the state fixing the first generator
# ---------------------------------------------------------------------------

def state_omega(n: int, e: Element) -> GaussianRational:
    """The unique state on R_n with value 1 on s_1: a monomial contributes
    its coefficient iff both words consist solely of the letter 1."""
    check_int("n", n, 1, ValueError)
    if e.tag.ngens != n + 1:
        raise AlgebraError("element must live in R_%d = O_%d" % (n, n + 1))
    total = ZERO
    for (l, r), c in e.terms.items():
        if all(a == 1 for a in l) and all(a == 1 for a in r):
            total = total + c
    return total
