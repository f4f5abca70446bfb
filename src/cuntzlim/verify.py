"""Verification suites for the paper's statements.  A suite returns when
every case it decides holds, raises Refuted with a printable counterexample
when one fails, and raises ValueError for parameters that decide no case.
`corrupt=True` mutates the object under test, so the real check must fail."""
from __future__ import annotations

import itertools
import random

from .algebra import Element, O, equals, gen, mono, unit
from .gauge import uhf_chain_check
from .homs import GenHom, apply, compose, f, q
from .limits import (
    CoherentFamily,
    check_coherent,
    classify_monomial,
    in_L,
    is_q_inf_shape,
    is_v_shape,
    is_vstar_shape,
    psi,
    state_omega,
)
from .parser import render
from .poset import Chain


class Refuted(Exception):
    """Verification failure carrying the printed counterexample."""


def _corrupt(h: GenHom) -> GenHom:
    """Mutation hook: swap the first two generator images without revalidating."""
    return GenHom(h.domain, h.codomain, lambda k: h.image({1: 2, 2: 1}.get(k, k)))


def verify_inverse_system(max_l: int, corrupt: bool = False) -> None:
    """f(n,m) o f(m,l) = f(n,l) generator-wise on all chains n | m | l."""
    if max_l < 1:
        raise ValueError("max must be >= 1, got %d" % max_l)
    for l in range(1, max_l + 1):
        for m in range(1, l + 1):
            if l % m:
                continue
            for n in range(1, m + 1):
                if m % n:
                    continue
                inner = f(m, l)
                outer = f(n, m)
                if corrupt and l > m > n:
                    outer = _corrupt(outer)
                direct = f(n, l)
                comp = compose(outer, inner, validate=False)
                for k in comp.gens():
                    if not equals(comp.image(k), direct.image(k)):
                        raise Refuted(
                            "compose(f(%d,%d), f(%d,%d)) != f(%d,%d) on generator %d: "
                            "%s vs %s"
                            % (n, m, m, l, n, l, k,
                               render(comp.image(k)), render(direct.image(k)))
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
    """Every monomial over L_n words of bounded length splits into parts that
    sum back and satisfy disjoint shape predicates.  Monomials are classified
    from their raw words: the canonical form of x 2^(an) (y 2^(bn))* with
    a, b >= 1 is already split, so decomposing it would never reach the
    mixed branch of classify_monomial.  Every monomial classify_monomial
    writes has a word that is empty or ends in 1, so its tables are checked
    as built."""
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    tag = O(2)
    words = [()] + [
        w
        for length in range(1, max_len + 1)
        for w in itertools.product((1, 2), repeat=length)
        if in_L(n, w)
    ]
    for l in words:
        for r in words:
            e = mono(tag, l, r)
            qp, vp, vsp = classify_monomial(n, l, r)
            if corrupt:
                vp = vp + unit(tag)
            if not equals(qp + vp + vsp, e):
                raise Refuted(
                    "decomposition of %s does not sum back" % render(e)
                )
            for (wl, wr) in qp.terms:
                if not is_q_inf_shape(wl, wr) or is_v_shape(n, wl, wr) or is_vstar_shape(n, wl, wr):
                    raise Refuted("bad Q_inf part monomial in %s" % render(e))
            for (wl, wr) in vp.terms:
                if not is_v_shape(n, wl, wr) or is_q_inf_shape(wl, wr):
                    raise Refuted("bad V part monomial in %s" % render(e))
            for (wl, wr) in vsp.terms:
                if not is_vstar_shape(n, wl, wr) or is_q_inf_shape(wl, wr):
                    raise Refuted("bad V* part monomial in %s" % render(e))


def verify_state(max_m: int, word_len: int = 3, samples: int = 500,
                 corrupt: bool = False, seed: int = 0) -> None:
    """State compatibility omega_n o f(n,m) = omega_m.

    Exhaustive over generator letters (which determines the identity on all
    monomials, since the state tests the all-ones property letterwise) plus
    random monomials up to the sampled word length."""
    if max_m < 1:
        raise ValueError("max must be >= 1, got %d" % max_m)
    rng = random.Random(seed)
    for m in range(1, max_m + 1):
        for n in range(1, m + 1):
            if m % n:
                continue
            h = f(n, m)
            if corrupt and n < m:
                h = _corrupt(h)
            tag_m = O(m + 1)
            for g in range(1, m + 2):
                e = mono(tag_m, (g,))
                lhs = state_omega(n, apply(h, e))
                rhs = state_omega(m, e)
                if lhs != rhs:
                    raise Refuted(
                        "state mismatch on generator s%d of R_%d under f(%d,%d):"
                        " %s vs %s" % (g, m, n, m, lhs, rhs)
                    )
            for _ in range(samples // max(1, max_m)):
                l = tuple(rng.randint(1, m + 1) for _ in range(rng.randint(0, word_len)))
                r = tuple(rng.randint(1, m + 1) for _ in range(rng.randint(0, word_len)))
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
        # mutation hook: generator 1 goes to s1, a proper prefix of s1 s2
        h = q(r, 1)
        return GenHom(h.domain, h.codomain,
                      lambda k: gen(h.codomain, 1) if k == 1 else h.image(k))

    report = uhf_chain_check(r, depth, maps=maps)
    if not report.ok:
        bad = [lv.n for lv in report.levels if not (lv.code_maximal and lv.member_ok)]
        raise Refuted("uhf chain check failed at levels %s" % bad)
