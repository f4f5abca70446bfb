"""Independent references for the canonical form of cuntzlim.algebra.

Both work on raw term tables, dicts mapping (left, right) word pairs to
GaussianRational coefficients, and share no code with the library's
canonicalization.

`expansion_equal` decides equality without any normal form: the difference
is split by gauge grade |J| - |K|, and every monomial of a grade is expanded
to the longest right word of that grade with s_J s_K* = sum_i s_{Ji} s_{Ki}*.
Monomials of one grade and one right length are linearly independent, and
so are the grades, so the tables are equal iff every expansion cancels.

`shuffled_leavitt` applies the Leavitt rewrite
s_{J.n} s_{K.n}* = s_J s_K* - sum_{i<n} s_{J.i} s_{K.i}* one monomial at a
time, choosing the monomial at random; a canonical form must not depend on
those choices.
"""


def _acc(table, key, c):
    s = table.get(key)
    s = c if s is None else s + c
    if s.is_zero():
        table.pop(key, None)
    else:
        table[key] = s


def _expand_table(terms, n):
    """Expand every monomial of a single-grade table to the maximal right
    length; the result is empty iff the table is zero in O_n."""
    if not terms:
        return {}
    m = max(len(r) for (_, r) in terms)
    acc = {}
    for (l, r), c in terms.items():
        tails = [()]
        for _ in range(m - len(r)):
            tails = [w + (i,) for w in tails for i in range(1, n + 1)]
        for w in tails:
            _acc(acc, (l + w, r + w), c)
    return acc


def expansion_equal(a, b, n):
    """Exact equality of two raw tables in O_n (n = None for O_inf, where
    reduced monomials are independent)."""
    diff = dict(a)
    for key, c in b.items():
        _acc(diff, key, -c)
    if n is None or not diff:
        return not diff
    grades = {}
    for (l, r), c in diff.items():
        grades.setdefault(len(l) - len(r), {})[(l, r)] = c
    return not any(_expand_table(part, n) for part in grades.values())


def shuffled_leavitt(raw, n, rng):
    """The Leavitt-basis table of a raw table in O_n, rewriting in an order
    drawn from rng (O_inf, n = None, has no rewrite)."""
    terms = {}
    for key, c in raw.items():
        _acc(terms, key, c)
    if n is None:
        return terms
    while True:
        due = [(l, r) for (l, r) in terms if l and r and l[-1] == r[-1] == n]
        if not due:
            return terms
        l, r = rng.choice(due)
        c = terms.pop((l, r))
        _acc(terms, (l[:-1], r[:-1]), c)
        for i in range(1, n):
            _acc(terms, (l[:-1] + (i,), r[:-1] + (i,)), -c)
