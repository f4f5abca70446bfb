"""Truncated inverse limits over divisibility chains, the word combinatorics
of L_n in {1, 2}*, the state fixing the first generator, and the direct-sum
decomposition Q_n = Q_inf + V_n + V_n* of O_2.  psi builds each entry's
term table from f_inf's comb words, which need no Leavitt rewrite, and
check_coherent decodes through f's comb code.  A word in L_n or empty is
x 2^p with x empty or ending in 1 and n | p: _split_ln reads the trailing
2-run, raw letters go through O_2's word check, and decompose_element sorts
the terms of a canonical element into the three parts by their 2-runs."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .algebra import AlgebraError, Element, O, O_INF, Word, _trusted, check_int
from .homs import _comb_preimage, _word_table, f_inf
from . import homs
from .poset import Chain
from .scalars import GaussianRational, ONE, ZERO

O2 = O(2)
# limits calls no apply; the name stays bound because bench/selftest.py
# checks that its tracer wraps limits.apply
apply = homs.apply


# ---------------------------------------------------------------------------
# coherent families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoherentFamily:
    """A truncated inverse-limit element: entry j lives in R_{n_j} and the
    connecting maps must carry later entries onto earlier ones.  The entries
    are read once, into a tuple, before they are checked."""

    chain: Chain
    entries: Tuple[Element, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
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
    the entry over n is f_inf(n)(x), the image of x under the embedding into
    R_n = O_{n+1}.  x is checked once to live in O_inf.

    Each entry's table is f_inf(n)'s word table of x (homs._word_table),
    taken as it is: it is already in the Leavitt basis of O_{n+1}, so no
    rewrite runs.  f_inf(n) sends generator n*l+i (1 <= i <= n) to
    (n+1)^l i, so every nonempty image word, a concatenation of such words,
    ends in a letter <= n.  No image term therefore has both words ending in
    n+1, the last letter of O_{n+1}, which is the canonical form that
    normalize produces.  The comb words form a prefix code, so distinct
    terms of x go to distinct terms, each with its nonzero coefficient."""
    if x.tag != O_INF:
        raise AlgebraError("algebra mismatch: %s vs hom domain %s" % (x.tag, O_INF))
    entries = []
    for n in chain:
        h = f_inf(n)
        entries.append(_trusted(h.codomain, _word_table(h, x)))
    return CoherentFamily(chain, tuple(entries))


# ---------------------------------------------------------------------------
# word combinatorics over {1, 2}
# ---------------------------------------------------------------------------

def _split_ln(n: int, w: Word) -> Tuple[Word, int]:
    """w as x + (2,)*(a*n) with x empty or ending in 1, read off its
    trailing 2-run; ValueError if n does not divide the run's length.  The
    letters of w are checked by the caller."""
    i = len(w)
    while i and w[i - 1] == 2:
        i -= 1
    t = len(w) - i
    if t % n:
        raise ValueError("word %r is not in L_%d" % (w, n))
    return w[:i], t // n


def in_K(n: int, w: Word) -> bool:
    """w = (2^n)^k for some k >= 1: a word of L_n that is its 2-run."""
    return in_L(n, w) and not _split_ln(n, w)[0]


def in_L_inf(w: Word) -> bool:
    """Words ending in the letter 1 (products of blocks 2^m 1)."""
    O2.check_word(w)
    return len(w) > 0 and _split_ln(1, w)[1] == 0


def in_L(n: int, w: Word) -> bool:
    """Concatenations of blocks {1, 21, ..., 2^(n-1) 1, 2^n}: any maximal
    2-run before a 1 splits greedily, so membership reduces to the trailing
    2-run having length divisible by n."""
    check_int("n", n, 1, ValueError)
    O2.check_word(w)
    try:
        _split_ln(n, w)
    except ValueError:
        return False
    return len(w) > 0


def decompose_word(n: int, w: Word) -> Tuple[str, Optional[Tuple[Word, Word]]]:
    """Split of L_n into L_inf and Y_n = {u, xu : x in L_inf, u in K_n}.

    Returns ("L_inf", None) or ("Y", (x, u)) with w = x + u, u a 2-run."""
    check_int("n", n, 1, ValueError)
    w = tuple(w)
    O2.check_word(w)
    if not w:
        raise ValueError("word () is not in L_%d" % n)
    x, a = _split_ln(n, w)
    return ("Y", (x, w[len(x):])) if a else ("L_inf", None)


# ---------------------------------------------------------------------------
# decomposition Q_n = Q_inf + V_n + V_n*
# ---------------------------------------------------------------------------

def classify_monomial(n: int, left: Word, right: Word) -> Tuple[Element, Element, Element]:
    """Decompose the monomial s_left s_right* (words in L_n or empty) into
    its (Q_inf, V_n, V_n*) parts; the parts sum back to the input.  The raw
    words go through the word check of O_2 and are checked to be in L_n or
    empty; the canonical form of a mixed monomial x 2^(an) (y 2^(bn))* is
    already split by the Leavitt rewrite."""
    check_int("n", n, 1, ValueError)
    left, right = tuple(left), tuple(right)
    for w in (left, right):
        O2.check_word(w)
        _split_ln(n, w)
    return decompose_element(n, Element(O2, [((left, right), ONE)]))


def decompose_element(n: int, e: Element) -> Tuple[Element, Element, Element]:
    """Partition of the terms of e (words in L_n or empty) into its
    (Q_inf, V_n, V_n*) parts, one Element each; sums to e.  A term goes to
    V_n if its left word ends in 2, to V_n* if its right word does and to
    Q_inf otherwise: a canonical O_2 term never has both words ending in 2,
    so the right word is read only when the left one ends in 1 or is empty."""
    if e.tag != O2:
        raise AlgebraError("decomposition lives in O_2")
    check_int("n", n, 1, ValueError)
    parts = ([], [], [])
    for key, c in e.terms.items():
        l, r = key
        k = 1 if _split_ln(n, l)[1] else 2 if _split_ln(n, r)[1] else 0
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
