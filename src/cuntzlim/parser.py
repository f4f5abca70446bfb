"""Surface syntax for elements.

Grammar (precedence: adjoint > product > sum):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (('*')? factor)*          # juxtaposition multiplies
    factor  := atom "'"*
    atom    := generator | 'I' | 'i' | rational | '(' expr ')'

Generators are written s1, s2, ...; rationals as p or p/q; i is the
imaginary unit.  Rendered elements reparse to structurally equal elements.

The parser evaluates to lists of raw (key, coefficient) pairs.  Terms
combine and reach the canonical form only where an Element is built: once
per parenthesised group, once for each product of two operands that both
have several terms (so a run of such products never grows past its
canonical size), and once for the whole expression.  Groups nest at most
MAX_NESTING deep, so deep input is refused before it can exhaust the stack.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, List, Tuple

from .algebra import EPS, AlgebraError, AlgebraTag, Element, Key, pair_products
from .scalars import IMAG, ONE, GaussianRational

# each level takes four parser frames; 100 levels stay far inside the
# interpreter's default recursion limit of 1000
MAX_NESTING = 100

Pairs = List[Tuple[Key, GaussianRational]]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<gen>s[0-9]+)|(?P<rat>[0-9]+(?:/[0-9]+)?)|(?P<imag>i)|(?P<unit>I)"
    r"|(?P<op>[()+\-*']))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            rest = text[pos:].lstrip()
            if rest == "":
                break
            pos = len(text) - len(rest)
            if rest[0] == "s":
                # a generator without ASCII digits: blame what follows the s
                pos += 1
                if pos == len(text):
                    raise ParseError("unexpected end of input", pos)
            raise ParseError("unexpected character %r" % text[pos], pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def _scalar(c: GaussianRational) -> Pairs:
    return [((EPS, EPS), c)]


def _negated(pairs: Pairs) -> Pairs:
    return [(key, -c) for key, c in pairs]


class _Parser:
    def __init__(self, tag: AlgebraTag, tokens, end: int):
        self.tag = tag
        self.tokens = tokens
        self.end = end  # position reported for the end of input
        self.i = 0
        self.depth = 0  # open parentheses

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def canonical(self, pairs: Iterable[Tuple[Key, GaussianRational]]) -> Pairs:
        return list(Element(self.tag, pairs).terms.items())

    def expr(self) -> Pairs:
        negate = self.peek()[:2] == ("op", "-")
        if negate:
            self.take()
        acc = self.term()
        if negate:
            acc = _negated(acc)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, _ = self.take()
            rhs = self.term()
            acc += rhs if op == "+" else _negated(rhs)
        return acc

    def term(self) -> Pairs:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
            elif not (kind in ("gen", "rat", "imag", "unit") or (kind == "op" and val == "(")):
                return acc
            rhs = self.factor()
            products = pair_products(acc, rhs)
            if len(acc) > 1 and len(rhs) > 1:
                acc = self.canonical(products)
            else:
                acc = list(products)

    def factor(self) -> Pairs:
        pairs = self.atom()
        while self.peek()[:2] == ("op", "'"):
            self.take()
            pairs = [((r, l), c.conjugate()) for (l, r), c in pairs]
        return pairs

    def atom(self) -> Pairs:
        kind, val, pos = self.take()
        if kind == "gen":
            k = int(val[1:])
            try:
                self.tag.check_index(k)
            except AlgebraError as exc:
                raise ParseError(str(exc), pos)
            return [(((k,), EPS), ONE)]
        if kind == "unit":
            return _scalar(ONE)
        if kind == "imag":
            return _scalar(IMAG)
        if kind == "rat":
            try:
                return _scalar(GaussianRational.of(Fraction(val)))
            except ZeroDivisionError:
                raise ParseError("zero denominator in %s" % val, pos)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, pos)
            self.depth += 1
            pairs = self.canonical(self.expr())
            if self.peek()[:2] != ("op", ")"):
                raise ParseError("expected ')'", self.peek()[2])
            self.take()
            self.depth -= 1
            return pairs
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError("unexpected token %r" % (val,), pos)


def parse(tag: AlgebraTag, text: str) -> Element:
    if not text.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(tag, _tokenize(text), len(text))
    pairs = p.expr()
    if p.i != len(p.tokens):
        raise ParseError("trailing input %r" % (p.peek()[1],), p.peek()[2])
    return Element(tag, pairs)


def _render_mono(left, right) -> str:
    parts = ["s%d" % k for k in left]
    parts += ["s%d'" % k for k in reversed(right)]
    return " ".join(parts) if parts else "I"

def render(e: Element) -> str:
    """Deterministic text form; parse(render(e)) is structurally equal to e.
    Terms run from shortest to longest.  A term whose coefficient is a
    negative real or a negative multiple of i follows a minus sign, with
    the coefficient negated; a coefficient 1 is left out, and so is the
    monomial I after any other coefficient."""
    if e.is_zero():
        return "0"
    out = []
    for (l, r) in sorted(e.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
        c = e.terms[(l, r)]
        negative = (c.im == 0 and c.re < 0) or (c.re == 0 and c.im < 0)
        cs, m = str(-c if negative else c), _render_mono(l, r)
        if negative:
            out.append(" - " if out else "-")
        elif out:
            out.append(" + ")
        out.append(m if cs == "1" else cs if m == "I" else "%s %s" % (cs, m))
    return "".join(out)
