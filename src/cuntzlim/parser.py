"""Surface syntax for elements.

Grammar (precedence: adjoint > product > sum):

    expr    := ['-'] term (('+' | '-') term)*
    term    := factor (('*')? factor)*          # juxtaposition multiplies
    factor  := atom "'"*
    atom    := generator | 'I' | 'i' | rational | '(' expr ')'

Generators are written s1, s2, ...; rationals as p or p/q; i is the
imaginary unit.  Rendered elements reparse to structurally equal elements.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .algebra import AlgebraTag, Element, adjoint, add, multiply, scale, unit, mono
from .scalars import IMAG


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN = re.compile(
    r"\s*(?:(?P<gen>s\d+)|(?P<rat>\d+(?:/\d+)?)|(?P<imag>i)|(?P<unit>I)"
    r"|(?P<op>[()+\-*']))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character %r" % text[pos:].lstrip()[0], pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tag: AlgebraTag, tokens, end: int):
        self.tag = tag
        self.tokens = tokens
        self.end = end  # position reported for the end of input
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> Element:
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1
        acc = scale(sign, self.term())
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, _ = self.take()
            rhs = self.term()
            acc = add(acc, scale(1 if op == "+" else -1, rhs))
        return acc

    def term(self) -> Element:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                acc = multiply(acc, self.factor())
            elif kind in ("gen", "rat", "imag", "unit") or (kind == "op" and val == "("):
                acc = multiply(acc, self.factor())
            else:
                return acc

    def factor(self) -> Element:
        e = self.atom()
        while self.peek()[:2] == ("op", "'"):
            self.take()
            e = adjoint(e)
        return e

    def atom(self) -> Element:
        kind, val, pos = self.take()
        if kind == "gen":
            k = int(val[1:])
            try:
                return mono(self.tag, (k,))
            except ValueError as exc:
                raise ParseError(str(exc), pos)
        if kind == "unit":
            return unit(self.tag)
        if kind == "imag":
            return scale(IMAG, unit(self.tag))
        if kind == "rat":
            return scale(Fraction(val), unit(self.tag))
        if kind == "op" and val == "(":
            e = self.expr()
            if self.peek()[:2] != ("op", ")"):
                raise ParseError("expected ')'", self.peek()[2])
            self.take()
            return e
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError("unexpected token %r" % (val,), pos)


def parse(tag: AlgebraTag, text: str) -> Element:
    if not text.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(tag, _tokenize(text), len(text))
    e = p.expr()
    if p.i != len(p.tokens):
        raise ParseError("trailing input %r" % (p.peek()[1],), p.peek()[2])
    return e


def _render_mono(left, right) -> str:
    parts = ["s%d" % k for k in left]
    parts += ["s%d'" % k for k in reversed(right)]
    return " ".join(parts) if parts else "I"

def render(e: Element) -> str:
    """Deterministic text form; parse(render(e)) is structurally equal to e."""
    if e.is_zero():
        return "0"
    bits = []
    for (l, r) in sorted(e.terms, key=lambda k: (len(k[0]) + len(k[1]), k)):
        c = e.terms[(l, r)]
        m = _render_mono(l, r)
        cs = str(c)
        if cs == "1":
            bits.append(m)
        elif cs == "-1":
            bits.append("- %s" % m if bits else "-%s" % m)
            continue
        elif m == "I":
            bits.append(cs)
        else:
            bits.append("%s %s" % (cs, m))
    out = bits[0]
    for b in bits[1:]:
        if b.startswith("- "):
            out += " " + b
        elif b.startswith("-"):
            out += " - " + b[1:]
        else:
            out += " + " + b
    return out
