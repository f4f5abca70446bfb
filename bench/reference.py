"""Independent reference for the known answers of the calculus workload.

A table maps (J, K) word pairs to (re, im) Fraction pairs and stands for
sum c s_J s_K*.  Products use only the Cuntz relation s_i* s_j = delta_ij I;
equality expands each gauge grade of the difference to its longest right
word with s_J s_K* = sum_i s_{Ji} s_{Ki}* (finite n), where the expanded
monomials are linearly independent.  Nothing here calls cuntzlim.
"""
from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def _acc(tbl, key, c):
    re, im = tbl.get(key, ZERO)
    re, im = re + c[0], im + c[1]
    if re or im:
        tbl[key] = (re, im)
    else:
        tbl.pop(key, None)


def table(terms):
    """Table of a list of (coefficient, left word, right word)."""
    out = {}
    for c, left, right in terms:
        _acc(out, (tuple(left), tuple(right)), c)
    return out


def add(a, b):
    out = dict(a)
    for k, c in b.items():
        _acc(out, k, c)
    return out


def adjoint(a):
    return {(r, l): (c[0], -c[1]) for (l, r), c in a.items()}


def multiply(a, b):
    out = {}
    for (j, k), x in a.items():
        for (l, m), y in b.items():
            if len(k) <= len(l):
                if l[:len(k)] != k:
                    continue
                key = (j + l[len(k):], m)
            else:
                if k[:len(l)] != l:
                    continue
                key = (j, m + k[len(l):])
            _acc(out, key, (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]))
    return out


def equal(a, b, n):
    """a == b in O_n (n = None for O_inf, where reduced monomials are
    independent)."""
    diff = dict(a)
    for k, c in b.items():
        _acc(diff, k, (-c[0], -c[1]))
    if not diff or n is None:
        return not diff
    grades = {}
    for (l, r), c in diff.items():
        grades.setdefault(len(l) - len(r), {})[(l, r)] = c
    for part in grades.values():
        depth = max(len(r) for (_, r) in part)
        expanded = {}
        for (l, r), c in part.items():
            tails = [()]
            for _ in range(depth - len(r)):
                tails = [t + (i,) for t in tails for i in range(1, n + 1)]
            for t in tails:
                _acc(expanded, (l + t, r + t), c)
        if expanded:
            return False
    return True


def from_element(e):
    """Table of a cuntzlim Element, read from its term table."""
    return {key: (c.re, c.im) for key, c in e.terms.items()}


def _render_coeff(c):
    re, im = c
    if im == 0:
        return "(%s)" % re
    if re == 0:
        return "(%s i)" % im
    return "(%s %s %s i)" % (re, "-" if im < 0 else "+", abs(im))


def render(terms):
    """Expression text of (coefficient, left, right) terms, written with the
    benchmark's own renderer so that parsing is exercised independently."""
    if not terms:
        return "0"
    out = []
    for c, left, right in terms:
        word = ["s%d" % k for k in left] + ["s%d'" % k for k in reversed(right)]
        out.append(" ".join([_render_coeff(c)] + word))
    return " + ".join(out)
