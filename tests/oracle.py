"""References for cuntzlim that tests compare the library against, and the
pair loops that the coherence check and the poset edges replaced.

The canonical form is checked against `reference`, which is
bench/reference.py read as it is: tier-1 and the calculus workload share
it, and it imports nothing from cuntzlim.  Its tables map (left, right)
word pairs to (re, im) Fraction pairs; `pairs` turns a library term table
into one.  `reference.equal` decides equality without any normal form: the
difference is split by gauge grade |J| - |K|, and every monomial of a grade
is expanded to the longest right word of that grade with
s_J s_K* = sum_i s_{Ji} s_{Ki}*.  `reference.multiply` uses only the Cuntz
relation s_i* s_j = delta_ij I.

`shuffled_leavitt` applies the Leavitt rewrite
s_{J.n} s_{K.n}* = s_J s_K* - sum_{i<n} s_{J.i} s_{K.i}* to a reference
table one monomial at a time, choosing the monomial at random and adding
through reference.add; a canonical form must not depend on those choices.
`brute_in_L` tries every split of a word into blocks, `uhf_member` tests
the block membership of a word pair where the library reads it off digit
codes, `prefix_free_all_pairs` compares every pair of words where the
library compares sorted neighbours, and `divisibility_pairs` tests every
pair of integers; none of these calls cuntzlim.  The edge references
reduce by comparing every pair of edges.

The rest share library code, named here:
- `classify_raw` classifies a monomial over L_n words from its raw words: a
  mixed monomial x 2^(an) (y 2^(bn))* (a, b >= 1) is split by the range
  projection (t_2)^n (t_2*)^n = I - sum_{k<n} t_2^k t_1 t_1* (t_2*)^k,
  where the library decomposes the canonical form, which the Leavitt
  rewrite has already split.  `decompose_by_monomial` sums c times each
  part of classify_raw over the monomials of an O_2 element.  Both build
  their parts as `Element`s of library scalars, so they share the
  constructor's canonical form.
- `coherent_all_pairs` checks every connecting map of a family, not only
  the consecutive ones, but applies the library's `f` and `equals`.
- `gauge_witness_by_enumeration` applies the hom `h` under test to every
  grade-0 monomial up to a word length, where the library reads the gauge
  witness off the image words.
- `embeddability_pairs` tests every pair of vertices with the library's
  `hom_exists`.
"""
import itertools

from cuntzlim import ONE, Element, O, apply, equals, f, hom_exists, is_gauge_invariant, mono

from conftest import load_bench

O2 = O(2)
reference = load_bench("reference")


def pairs(table):
    """A term table with GaussianRational coefficients as a reference table,
    with (re, im) Fraction pairs."""
    return {key: (c.re, c.im) for key, c in table.items()}


def shuffled_leavitt(table, n, rng):
    """The Leavitt-basis form of a reference table in O_n, rewriting in an
    order drawn from rng (O_inf, n = None, has no rewrite)."""
    terms = reference.add({}, table)
    if n is None:
        return terms
    while True:
        due = [(l, r) for (l, r) in terms if l and r and l[-1] == r[-1] == n]
        if not due:
            return terms
        l, r = rng.choice(due)
        c = terms.pop((l, r))
        rewrite = {(l[:-1], r[:-1]): c}
        for i in range(1, n):
            rewrite[l[:-1] + (i,), r[:-1] + (i,)] = (-c[0], -c[1])
        terms = reference.add(terms, rewrite)


def brute_in_L(n, w):
    """Membership in the semigroup generated by blocks 1, 21, ..., 2^(n-1)1, 2^n."""
    blocks = [tuple([2] * k + [1]) for k in range(n)] + [(2,) * n]
    ok = {(): True}

    def rec(u):
        if u in ok:
            return ok[u]
        res = any(
            u[-len(b):] == b and rec(u[: -len(b)]) for b in blocks if len(b) <= len(u)
        )
        ok[u] = res
        return res

    return w != () and rec(tuple(w))


def _split_ln(n, w):
    """w (in L_n or empty) as x + (2,)*(a*n) with x empty or ending in 1."""
    if any(a not in (1, 2) for a in w):
        raise ValueError("semigroup words use letters 1 and 2 only")
    x = w
    while x[-1:] == (2,):
        x = x[:-1]
    t = len(w) - len(x)
    if t % n:
        raise ValueError("word %r is not in L_%d" % (w, n))
    return x, t // n


def classify_raw(n, left, right):
    """The (Q_inf, V_n, V_n*) parts of the raw monomial s_left s_right*:
    the leading term x 2^((a-m)n) (y 2^((b-m)n))* with m = min(a, b), and
    for m > 0 minus the range-projection terms, all in Q_inf."""
    if n < 1:
        raise ValueError("n must be >= 1, got %d" % n)
    x, a = _split_ln(n, tuple(left))
    y, b = _split_ln(n, tuple(right))
    m = min(a, b)
    lrem = x + (2,) * ((a - m) * n)
    rrem = y + (2,) * ((b - m) * n)
    parts = ([], [], [])
    parts[1 if a > b else 2 if a < b else 0].append(((lrem, rrem), ONE))
    if m:
        parts[0].extend(((lrem + (2,) * k + (1,), rrem + (2,) * k + (1,)), -ONE)
                        for k in range(m * n))
    return tuple(Element(O2, pairs) for pairs in parts)


def decompose_by_monomial(n, e):
    """The (Q_inf, V_n, V_n*) parts of an O_2 element e: every monomial of e
    is classified on its own and its parts are scaled by its coefficient."""
    parts = ([], [], [])
    for (l, r), c in e.terms.items():
        for pairs, m in zip(parts, classify_raw(n, l, r)):
            pairs.extend((key, c * v) for key, v in m.terms.items())
    return tuple(Element(e.tag, pairs) for pairs in parts)


def coherent_all_pairs(fam):
    """Every constraint f(n_j, n_l)(x_l) = x_j of a coherent family, j < l."""
    ns = list(fam.chain)
    return all(equals(apply(f(ns[j], ns[l]), fam.entries[l]), fam.entries[j])
               for j in range(len(ns)) for l in range(j + 1, len(ns)))


def gauge_witness_by_enumeration(h, max_len):
    """The first s_l s_r* with |l| = |r| <= max_len, by length and then in
    lexicographic order, whose image under h is not gauge-invariant, with
    that image; None when there is none."""
    m = h.domain.ngens
    for length in range(1, max_len + 1):
        words = list(itertools.product(range(1, m + 1), repeat=length))
        for l in words:
            for r in words:
                img = apply(h, mono(h.domain, l, r))
                if not is_gauge_invariant(img):
                    return (l, r), img
    return None


def prefix_free_all_pairs(words):
    """No word is a prefix of the word at another position: a repeated word
    is a prefix of its copy, and the empty word of every other word."""
    return not any(i != j and v[:len(w)] == w
                   for i, w in enumerate(words) for j, v in enumerate(words))


def uhf_member(r, n, left, right):
    """Membership in the n-th block subalgebra of O_r: both word lengths
    must be multiples of 2^(n-1)."""
    if r < 2 or n < 1:
        raise ValueError("need r >= 2 and n >= 1")
    block = 2 ** (n - 1)
    return len(left) % block == 0 and len(right) % block == 0


def transitive_reduction(edges):
    out = set(edges)
    for a, b in edges:
        for c, d in edges:
            if b == c and (a, d) in out:
                out.discard((a, d))
    return out


def embeddability_pairs(max_generators, reduce=False):
    """O_m -> O_n for every pair m != n that hom_exists allows."""
    es = {(m, n) for m in range(2, max_generators + 1) for n in range(2, max_generators + 1)
          if m != n and hom_exists(m, n)}
    return sorted(transitive_reduction(es) if reduce else es)


def divisibility_pairs(max_n, reduce=False):
    """n -> m for every pair n != m with n | m."""
    es = {(n, m) for n in range(1, max_n + 1) for m in range(1, max_n + 1)
          if n != m and m % n == 0}
    return sorted(transitive_reduction(es) if reduce else es)
