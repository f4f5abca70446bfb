"""Verification suites for the paper's statements.  A suite returns when
every case it decides holds, raises Refuted with a printable counterexample
when one fails, and raises ValueError for parameters that decide no case.
`corrupt=True` mutates the object under test unconditionally, with no
guard on the case or the size, so the real check fails at every accepted
size."""
from __future__ import annotations

import itertools
import random

from .algebra import Element, O, check_int, equals, mono, unit
from .gauge import uhf_chain_check
from .homs import DigitMap, GenHom, apply, f, q
from .limits import (
    CoherentFamily,
    check_coherent,
    decompose_element,
    psi,
    state_omega,
)
from .parser import render
from .poset import Chain
from .scalars import ONE


# verify_state samples monomials whose words have length <= STATE_WORD_LEN
STATE_WORD_LEN = 3
# the largest sizes the suites accept, refused above before any case is
# checked: the time grows about as max^3 (inverse-system), max^2.2 (state)
# and 3.4^max-len (decomposition at n = 1), timed at three sizes each
INVERSE_SYSTEM_MAX = 256
STATE_MAX = 1000
DECOMPOSITION_MAX_LEN = 10


def _check_size(name: str, value: int, low: int, high: int) -> None:
    check_int(name, value, low, ValueError)
    if value > high:
        raise ValueError("%s %d is too large: this suite runs up to %s %d"
                         % (name, value, name, high))


class Refuted(Exception):
    """Verification failure carrying the printed counterexample."""


def _corrupt(h: GenHom) -> GenHom:
    """Mutation hook: swap the first two generator images without revalidating."""
    return GenHom(h.domain, h.codomain, lambda k: h.image({1: 2, 2: 1}.get(k, k)))


def verify_inverse_system(max_l: int, corrupt: bool = False) -> None:
    """f(n,m) o f(m,l) = f(n,l) generator-wise on all chains n | m | l: the
    image under f(n,m) of each generator image of f(m,l) against the
    generator image of f(n,l).  The corrupt hook swaps two generator images
    of every f(n,m), so f(1,1) o f(1,1) already fails on generator 1."""
    _check_size("max", max_l, 1, INVERSE_SYSTEM_MAX)
    for l in range(1, max_l + 1):
        for m in range(1, l + 1):
            if l % m:
                continue
            for n in range(1, m + 1):
                if m % n:
                    continue
                inner = f(m, l)
                outer = f(n, m)
                if corrupt:
                    outer = _corrupt(outer)
                direct = f(n, l)
                for k in range(1, l + 2):
                    got, want = apply(outer, inner.image(k)), direct.image(k)
                    if not equals(got, want):
                        raise Refuted(
                            "compose(f(%d,%d), f(%d,%d)) != f(%d,%d) on generator %d: "
                            "%s vs %s" % (n, m, m, l, n, l, k, render(got), render(want))
                        )


def verify_psi(chain: Chain, expr: Element, corrupt: bool = False) -> None:
    """psi(expr) is a coherent family over the chain."""
    if len(chain) < 2:
        raise ValueError("psi needs a chain of at least two elements")
    fam = psi(chain, expr)
    if corrupt:
        entries = list(fam.entries)
        entries[0] = entries[0] + unit(entries[0].tag)
        fam = CoherentFamily(chain, tuple(entries))
    if not check_coherent(fam):
        raise Refuted(
            "psi image violates coherence on chain %s for %s"
            % (list(chain), render(expr))
        )


def verify_decomposition(n: int, max_len: int, corrupt: bool = False) -> None:
    """Every monomial s_u s_v* over words in L_n or empty, of length at most
    max_len, splits into parts that sum back and are exactly the terms of
    the trailing-run lemma.  With u = x 2^p, v = y 2^q (x, y empty or
    ending in 1, n | p, n | q) and k = min(p, q),

      s_u s_v* = s_{x 2^(p-k)} s_{y 2^(q-k)}* - sum_{j=1..k} s_{x 2^(p-j) 1} s_{y 2^(q-j) 1}*,

    by induction on k: for k >= 1 both words end in 2, and the Leavitt
    rewrite s_{J2} s_{K2}* = s_J s_K* - s_{J1} s_{K1}* writes the j = 1
    term and a monomial with min k - 1.  Every term on the right is in the
    Leavitt basis, so the head goes to V_n if p > q, to V_n* if q > p and to
    Q_inf if p = q, and the k sibling terms go to Q_inf with coefficient -1.
    Each word is built as x 2^p, so the suite knows p and the sibling words
    without reading the word, and builds each monomial once, without a
    letter check."""
    check_int("n", n, 1, ValueError)
    _check_size("max-len", max_len, 0, DECOMPOSITION_MAX_LEN)
    tag = O(2)
    prefixes = [()] + [
        w + (1,)
        for length in range(max_len)
        for w in itertools.product((1, 2), repeat=length)
    ]
    words = [(p, x + (2,) * p) for x in prefixes for p in range(0, max_len - len(x) + 1, n)]
    # u = x 2^p with its sibling words x 2^(p-j) 1, j = 1..p
    words = [(p, u, [u[:len(u) - j] + (1,) for j in range(1, p + 1)]) for p, u in words]
    minus_one = -ONE
    for p, u, u_sibs in words:
        for q, v, v_sibs in words:
            e = Element(tag, {(u, v): ONE})
            qp, vp, vsp = decompose_element(n, e)
            if corrupt:
                vp = vp + unit(tag)
            if not equals(qp + vp + vsp, e):
                raise Refuted(
                    "decomposition of %s does not sum back" % render(e)
                )
            k = min(p, q)
            want = ({}, {}, {})
            want[1 if p > q else 2 if q > p else 0][u[:len(u) - k], v[:len(v) - k]] = ONE
            if k:
                # zip stops after the k sibling terms
                want[0].update(dict.fromkeys(zip(u_sibs, v_sibs), minus_one))
            if (qp.terms, vp.terms, vsp.terms) != want:
                bad = next(name for name, part, table in zip(("Q_inf", "V", "V*"), (qp, vp, vsp), want)
                           if part.terms != table)
                raise Refuted("bad %s part in %s" % (bad, render(e)))


def verify_state(max_m: int, samples: int = 500, corrupt: bool = False,
                 seed: int = 0) -> None:
    """State compatibility omega_n o f(n,m) = omega_m, decided exactly by
    the loop over generators; the sampled monomials after it add no case.

    Proof.  Both f(n,m) and its corruption (two images swapped) send each
    generator g to one word w_g, so a monomial s_u s_v* goes to
    s_{h(u)} s_{h(v)}*, h(u) the concatenated words of u's letters.  The
    state is omega(s_u s_v*) = [u and v in 1*] on every monomial, canonical
    or not: in the Leavitt rewrite s_{JN} s_{KN}* = s_J s_K* -
    sum_{i<N} s_{Ji} s_{Ki}*, N >= 2 the last letter, the left side has
    value 0 and so has the right, 1 - 1 (the term i = 1) when J and K are
    in 1* and 0 otherwise.  h(u) is in 1* iff the word of every letter of
    u is.  So omega_n o h = omega_m on every monomial iff [w_g in 1*] =
    [g = 1] for every generator g, which the generator loop reads off
    h.word(g); by linearity the identity then holds on every element, and
    no sampled monomial can refute once the generators pass."""
    _check_size("max", max_m, 1, STATE_MAX)
    check_int("samples", samples, 0, ValueError)
    rng = random.Random(seed)
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            if m % n:
                continue
            h = f(n, m)
            if corrupt:
                h = _corrupt(h)
            for g in range(1, m + 2):
                lhs = all(a == 1 for a in h.word(g))
                if lhs != (g == 1):
                    raise Refuted(
                        "state mismatch on generator s%d of R_%d under f(%d,%d):"
                        " %d vs %d" % (g, m, n, m, lhs, g == 1)
                    )
            tag_m = O(m + 1)
            for _ in range(samples // max_m):
                l = tuple(rng.randint(1, m + 1) for _ in range(rng.randint(0, STATE_WORD_LEN)))
                r = tuple(rng.randint(1, m + 1) for _ in range(rng.randint(0, STATE_WORD_LEN)))
                e = mono(tag_m, l, r)
                if state_omega(n, apply(h, e)) != state_omega(m, e):
                    raise Refuted(
                        "state mismatch on %s under f(%d,%d)" % (render(e), n, m)
                    )


def verify_uhf(r: int, depth: int, corrupt: bool = False) -> None:
    """Every level of the doubling chain up to depth passes uhf_chain_check."""
    def maps(n: int) -> GenHom:
        if not (corrupt and n == 1):
            return q(r, n)
        # mutation hook: the words of q(r, 1) one letter too long, the digit
        # code (r, 3) on O_{r^2}: prefix-free with Kraft sum 1/r, not unital
        return DigitMap(O(r * r), r, 3)

    report = uhf_chain_check(r, depth, maps=maps)
    if not report.ok:
        bad = [lv.n for lv in report.levels if not (lv.code_maximal and lv.member_ok)]
        raise Refuted("uhf chain check failed at levels %s" % bad)
