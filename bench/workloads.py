"""Seeded inputs and operations of the three benchmark workloads.

A workload is a fixed list of operations making up one pass.  Each operation
runs one or more timed steps (labelled "build" or "query" where the label
means something), then an untimed check compares the verdict with an answer
known from construction: a theorem of the paper (the inverse-system law,
psi-coherence, the decomposition sums back), an algebraic identity
(associativity, (xy)* = y*x*, the sibling expansion), a perturbation that
must be caught, or the independent reference in `reference.py`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import reference
from cuntzlim import (
    Chain,
    CoherentFamily,
    GaussianRational,
    GenHom,
    O,
    O_INF,
    apply,
    check_coherent,
    compose,
    decompose_element,
    equals,
    f,
    f_inf,
    mono,
    parse,
    psi,
    render,
    uhf_chain_check,
    zero,
)
from cuntzlim.algebra import adjoint, multiply
from cuntzlim.cli import Refuted, verify_decomposition, verify_inverse_system, verify_state

Step = Tuple[Optional[str], Callable]


@dataclass
class Op:
    kind: str
    steps: List[Step]          # each step gets the previous step's result
    check: Callable            # final result -> bool (untimed)
    cases: int                 # cases this operation decides
    request: bool = False      # counted in the op latency percentiles
    spec: tuple = ()           # the generated input, as plain data


def _suite(call):
    """Step running a verify suite; `call` looks the suite up when it runs,
    so a traced run sees the wrapped function."""
    def run(_):
        try:
            call()
        except Refuted:
            return "refuted"
        return "verified"
    return run


def _coeff(rng):
    while True:
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if re or im:
            return re, im


def _gr(c):
    return GaussianRational(c[0], c[1])


def _word(rng, letters, max_len):
    return tuple(rng.randint(1, letters) for _ in range(rng.randint(0, max_len)))


def _element(tag, terms):
    e = zero(tag)
    for c, left, right in terms:
        e = e + mono(tag, left, right, _gr(c))
    return e


# ---------------------------------------------------------------------------
# decomposition: Q_n = Q_inf + V_n + V_n* over the words L_n of O_2
# ---------------------------------------------------------------------------

DECOMP_SUITES = ((2, 5), (3, 5), (4, 5), (3, 6))   # (n, max word length)
DECOMP_REFUTE_SUITES = 2
DECOMP_REQUESTS = 200
DECOMP_REQUEST_LEN = 5


def ln_words(n: int, max_len: int) -> List[tuple]:
    """L_n words (and the empty word) as concatenations of the blocks
    1, 21, ..., 2^(n-1) 1, 2^n, enumerated without cuntzlim."""
    blocks = [(2,) * k + (1,) for k in range(n)] + [(2,) * n]
    words, frontier = {()}, [()]
    while frontier:
        nxt = []
        for w in frontier:
            for b in blocks:
                v = w + b
                if len(v) <= max_len and v not in words:
                    words.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(words, key=lambda w: (len(w), w))


def _sibling_free_terms(rng, words, count):
    """`count` distinct monomials over `words`, no two of them siblings
    s_{Ja} s_{Ka}*, s_{Jb} s_{Kb}*.  Elements whose normal form collapses a
    sibling set are not decomposable: the collapsed words can leave L_n, and
    decompose_element raises on them."""
    keys = set()
    while len(keys) < count:
        left, right = rng.choice(words), rng.choice(words)
        if left and right and left[-1] == right[-1] and (
                left[:-1] + (3 - left[-1],), right[:-1] + (3 - right[-1],)) in keys:
            continue
        keys.add((left, right))
    return [(_coeff(rng), left, right) for left, right in sorted(keys)]


def decomposition(seed: int) -> List[Op]:
    rng = random.Random(seed)
    o2 = O(2)
    ops = []
    for n, length in DECOMP_SUITES:
        ops.append(Op("suite", [(None, _suite(lambda n=n, length=length: verify_decomposition(n, length)))],
                      lambda v: v == "verified", len(ln_words(n, length)) ** 2,
                      spec=("verify_decomposition", n, length)))
    for _ in range(DECOMP_REFUTE_SUITES):
        n, length = rng.choice((2, 3, 4)), rng.choice((2, 3))
        ops.append(Op("refute", [(None, _suite(
            lambda n=n, length=length: verify_decomposition(n, length, corrupt=True)))],
                      lambda v: v == "refuted", 1,
                      spec=("verify_decomposition", n, length, "corrupt")))
    words = {n: ln_words(n, DECOMP_REQUEST_LEN) for n in (2, 3, 4)}
    for i in range(DECOMP_REQUESTS):
        # n, term count and refutation cycle, so every seed has the same mix
        n = (2, 3, 4)[i % 3]
        ws = words[n]
        terms = _sibling_free_terms(rng, ws, 1 + (i // 3) % 4)
        e = _element(o2, terms)
        # a nonzero monomial added to the V part: the parts no longer sum to e
        refute = (i // 12) % 4 == 0
        extra_term = (_coeff(rng), rng.choice(ws), rng.choice(ws)) if refute else None
        extra = None if extra_term is None else _element(o2, [extra_term])

        def build(_, n=n, e=e, extra=extra):
            qp, vp, vsp = decompose_element(n, e)
            return (qp, vp if extra is None else vp + extra, vsp, e)

        def query(parts):
            qp, vp, vsp, e = parts
            return equals(qp + vp + vsp, e)

        ops.append(Op("element", [("build", build), ("query", query)],
                      (lambda v, want=extra is None: v is want), 1, request=True,
                      spec=("element", n, terms, extra_term)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# inverse-system: f(n,m) o f(m,l) = f(n,l), states, f o f_inf, UHF, psi
# ---------------------------------------------------------------------------

INV_MAX = 20
STATE_MAX, STATE_SAMPLES = 8, 500
GEN_MAX = 12                 # generator checks on n | m <= GEN_MAX
GEN_REFUTE = 2
UHF = (2, 4)
UHF_GRADES = 6                # uhf_chain_check default grade_range
PSI_REQUESTS, PSI_CHAIN_MAX, PSI_LETTERS, PSI_LEN = 200, 24, 12, 3


def _divisor_pairs(top):
    return [(n, m) for m in range(1, top + 1) for n in range(1, m + 1) if m % n == 0]


def _inverse_system_cases(top):
    """Generator identities verify_inverse_system(top) decides: l + 1 for
    every chain n | m | l <= top."""
    return sum((l + 1) * sum(1 for n in range(1, m + 1) if m % n == 0)
               for (m, l) in _divisor_pairs(top))


def _uhf_cases(r, depth):
    vanish = sum(1 for n in range(1, depth + 1) for l in range(-UHF_GRADES, UHF_GRADES + 1)
                 if l and l % 2 ** (n - 1))
    return depth - 1 + vanish


def _swapped(h):
    imgs = [h.image(k) for k in h.gens()]
    imgs[0], imgs[1] = imgs[1], imgs[0]
    return GenHom(h.domain, h.codomain, imgs)


def _generator_check(n, m, hom):
    """f(n,m) o f_inf(m) = f_inf(n) on the first 2m+2 generators of O_inf;
    `hom` replaces f(n,m) (a corrupted copy) when given."""
    gens = 2 * m + 2

    def build(_):
        outer = f(n, m) if hom is None else hom
        return compose(outer, f_inf(m), validate=False), f_inf(n)

    def query(pair):
        comp, direct = pair
        return all(equals(comp.image(k), direct.image(k)) for k in range(1, gens + 1))

    return Op("generators" if hom is None else "refute", [("build", build), ("query", query)],
              (lambda v, want=hom is None: v is want), gens,
              spec=("generators", n, m, hom is not None))


def _psi_chains():
    """Every chain of 2 to 4 elements that starts at 1, 2, 3, 4 or 6, steps
    by a factor 2 or 3 and stays within PSI_CHAIN_MAX."""
    chains, frontier = [], [(a,) for a in (1, 2, 3, 4, 6)]
    while frontier:
        frontier = [c + (c[-1] * k,) for c in frontier for k in (2, 3)
                    if len(c) < 4 and c[-1] * k <= PSI_CHAIN_MAX]
        chains += frontier
    return [Chain(c) for c in chains]


def inverse_system(seed: int) -> List[Op]:
    rng = random.Random(seed)
    state_seed, refute_seed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
    ops = [
        Op("suite", [(None, _suite(lambda: verify_inverse_system(INV_MAX)))],
           lambda v: v == "verified", _inverse_system_cases(INV_MAX),
           spec=("verify_inverse_system", INV_MAX)),
        Op("suite", [(None, _suite(lambda: verify_state(
            STATE_MAX, samples=STATE_SAMPLES, seed=state_seed)))],
           lambda v: v == "verified",
           sum(m + 1 + STATE_SAMPLES // STATE_MAX for (n, m) in _divisor_pairs(STATE_MAX)),
           spec=("verify_state", STATE_MAX, STATE_SAMPLES, state_seed)),
        Op("uhf", [(None, lambda _: uhf_chain_check(*UHF).ok)], lambda v: v is True,
           _uhf_cases(*UHF), spec=("uhf_chain_check",) + UHF),
        Op("refute", [(None, _suite(lambda: verify_inverse_system(6, corrupt=True)))],
           lambda v: v == "refuted", 1, spec=("verify_inverse_system", 6, "corrupt")),
        Op("refute", [(None, _suite(lambda: verify_state(4, corrupt=True, seed=refute_seed)))],
           lambda v: v == "refuted", 1, spec=("verify_state", 4, refute_seed, "corrupt")),
    ]
    pairs = [(n, m) for (n, m) in _divisor_pairs(GEN_MAX) if n < m]
    ops += [_generator_check(n, m, None) for (n, m) in pairs]
    ops += [_generator_check(n, m, _swapped(f(n, m))) for (n, m) in rng.sample(pairs, GEN_REFUTE)]

    chains = _psi_chains()
    for i in range(PSI_REQUESTS):
        # chain, word lengths and refutation cycle, so every seed has the same mix
        chain = chains[i % len(chains)]
        left = tuple(rng.randint(1, PSI_LETTERS) for _ in range(i % (PSI_LEN + 1)))
        right = tuple(rng.randint(1, PSI_LETTERS) for _ in range((i // (PSI_LEN + 1)) % (PSI_LEN + 1)))
        c = _coeff(rng)
        x = mono(O_INF, left, right, _gr(c))
        swap = None
        if (i // 16) % 4 == 0:
            # entry j replaced by the image of x' = c s_{J11} s_{K11}*, another
            # reduced monomial of the same grade: f_inf is injective, so the
            # family is no longer coherent, and equals() has to expand the
            # difference two levels deep to see it
            j = rng.randrange(len(chain))
            swap = (j, apply(f_inf(chain[j]), mono(O_INF, left + (1, 1), right + (1, 1), _gr(c))))

        def build(_, chain=chain, x=x, swap=swap):
            fam = psi(chain, x)
            if swap is None:
                return fam
            entries = list(fam.entries)
            entries[swap[0]] = swap[1]
            return CoherentFamily(chain, tuple(entries))

        ops.append(Op("psi", [("build", build), ("query", lambda fam: check_coherent(fam))],
                      (lambda v, want=swap is None: v is want),
                      len(chain) * (len(chain) - 1) // 2, request=True,
                      spec=("psi", tuple(chain), left, right, c, swap and swap[0])))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# calculus: interactive build / query / roundtrip requests
# ---------------------------------------------------------------------------

CALC_TAGS = ((O(2), 2), (O(3), 3), (O(5), 5), (O_INF, 5))   # (tag, letters used)
# Requests of each kind per pass.  Every kind is spread evenly over the tags
# and the term counts, and a quarter of the queries are unequal pairs: costs
# grow with the product of term counts, so leaving the counts to the seed
# would make a pass's cost depend on it.  Builds are over half the requests,
# so the median request is a build (it parses) rather than falling between
# the fast queries and the slow builds.
CALC_MIX = (("build", 220), ("query", 120), ("roundtrip", 60))
CALC_TERMS, CALC_LEN = 4, 4
QUERY_KINDS = ("assoc", "adjoint", "sibling")


def _term_counts(k):
    """Term counts of three operands, cycling through every combination."""
    return (1 + k % CALC_TERMS, 1 + (k // CALC_TERMS) % CALC_TERMS, 1 + (k // 2) % CALC_TERMS)


def _terms(rng, letters, count):
    return [(_coeff(rng), _word(rng, letters, CALC_LEN), _word(rng, letters, CALC_LEN))
            for _ in range(count)]


def _siblings(rng, tag, letters):
    """Terms of s_J s_K* = sum_i s_{Ji} s_{Ki}*, written out on the right."""
    left, right = _word(rng, letters, 3), _word(rng, letters, 3)
    c = _coeff(rng)
    return [(c, left + (i,), right + (i,)) for i in range(1, tag.ngens + 1)], (c, left, right)


def _build_request(rng, tag, letters, k):
    specs = [_terms(rng, letters, n) for n in _term_counts(k)]
    if tag.is_finite and (k // 16) % 2:
        specs[2] += _siblings(rng, tag, letters)[0]   # collapses while parsing
    texts = [reference.render(t) for t in specs]
    known = {}

    def build(_):
        a, b, c = (parse(tag, t) for t in texts)
        p = multiply(a, b)
        s = p + c
        return p, s, adjoint(s)

    def check(out):
        if not known:
            a, b, c = (reference.table(t) for t in specs)
            p = reference.multiply(a, b)
            s = reference.add(p, c)
            known["want"] = (p, s, reference.adjoint(s))
        if "seen" in known and all(e.terms == t for e, t in zip(out, known["seen"])):
            return True
        ok = all(reference.equal(reference.from_element(e), w, tag.ngens)
                 for e, w in zip(out, known["want"]))
        if ok:
            known["seen"] = tuple(e.terms for e in out)
        return ok

    return Op("build", [("build", build)], check, 1, request=True,
              spec=("build", str(tag), tuple(texts)))


def _query_pair(rng, tag, letters, k, kind, equal):
    """Two elements equal by an identity, or made unequal by construction;
    returns (lhs, rhs, spec)."""
    texts = tuple(reference.render(_terms(rng, letters, n)) for n in _term_counts(k))
    x, y, z = (parse(tag, t) for t in texts)
    spec = ("query", str(tag), kind, equal, texts)
    if kind == "assoc":
        lhs, rhs = multiply(multiply(x, y), z), multiply(x, multiply(y, z))
    elif kind == "adjoint":
        lhs, rhs = adjoint(multiply(x, y)), multiply(adjoint(y), adjoint(x))
    else:
        terms, (c, left, right) = _siblings(rng, tag, letters)
        if not equal:
            # one sibling coefficient moved: the difference is a nonzero monomial
            i = rng.randrange(len(terms))
            d = _coeff(rng)
            terms[i] = ((terms[i][0][0] + d[0], terms[i][0][1] + d[1]),) + terms[i][1:]
        lhs, rhs = x + mono(tag, left, right, _gr(c)), _element(tag, terms) + x
        return lhs, rhs, spec + (tuple(terms),)
    if not equal:
        # a nonzero monomial on one side makes the pair unequal
        extra = (_coeff(rng), _word(rng, letters, CALC_LEN), _word(rng, letters, CALC_LEN))
        rhs = rhs + _element(tag, [extra])
        spec += (extra,)
    return lhs, rhs, spec


def calculus(seed: int) -> List[Op]:
    rng = random.Random(seed)
    ops = []
    pool = []
    requests = [(kind, j) for kind, count in CALC_MIX for j in range(count)]
    rng.shuffle(requests)
    roundtrips = []
    for kind, j in requests:
        tag, letters = CALC_TAGS[j % len(CALC_TAGS)]
        k = j // len(CALC_TAGS)
        if kind == "build":
            ops.append(_build_request(rng, tag, letters, k))
        elif kind == "query":
            kinds = QUERY_KINDS if tag.is_finite else QUERY_KINDS[:2]
            block, kind_index = divmod(k, len(kinds))
            want = block % 4 != 0
            lhs, rhs, spec = _query_pair(rng, tag, letters, k, kinds[kind_index], want)
            pool += [lhs, rhs]
            ops.append(Op("query", [("query", lambda _, a=lhs, b=rhs: equals(a, b))],
                          (lambda v, want=want: v is want), 1, request=True, spec=spec))
        else:
            roundtrips.append(Op("roundtrip", [], lambda v: v is True, 1, request=True))
            ops.append(roundtrips[-1])
    # roundtrip requests render and reparse elements built for the queries,
    # picked evenly through the pool
    for r, op in enumerate(roundtrips):
        k = r * len(pool) // len(roundtrips)
        op.steps = [(None, lambda _, e=pool[k]: parse(e.tag, render(e)) == e)]
        op.spec = ("roundtrip", k)
    return ops


WORKLOADS = {
    "decomposition": decomposition,
    "inverse-system": inverse_system,
    "calculus": calculus,
}
