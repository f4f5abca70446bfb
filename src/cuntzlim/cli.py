"""Command-line surface: argument parsing, output and exit codes.

The verification suites live in cuntzlim.verify; `verify <suite>` runs one
and prints its success line.  Exit codes: 0 = verified/success, 1 = refuted
(a counterexample is printed), 2 = usage or parse error, including suite
parameters that would check nothing.
"""
from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional

from .algebra import AlgebraTag, O, O_INF, equals
from .homs import GenHom, HomError, apply, f, f_inf, q
from .parser import parse, render
from .poset import Chain, embeddability_graph
from .profinite import discontinuity_report
from .verify import (
    Refuted,
    verify_decomposition,
    verify_inverse_system,
    verify_psi,
    verify_state,
    verify_uhf,
)


# `partition --chain 1,13` draws rows of 6 * 2^13 = 49152 characters
PARTITION_MAX_WIDTH = 2 ** 16


def _tag(text: str) -> AlgebraTag:
    text = text.strip()
    if text == "Oinf":
        return O_INF
    k = text[1:]
    if text[:1] == "O" and k.isascii() and k.isdigit() and int(k) >= 2:
        return O(int(k))
    raise argparse.ArgumentTypeError("algebra must be O<k> (k>=2) or Oinf")


class _TooLong(argparse.ArgumentTypeError, ValueError):
    """An integer past the interpreter's digit limit: an argparse type error
    for an option and a ValueError, which main prints, for a command."""


def _int(text: str) -> int:
    """The integer that text spells in ASCII: surrounding spaces, an optional
    '-', then digits 0-9, the rule _tag applies.  int() alone would also
    read other Unicode digits and '_' separators.  A number past the
    interpreter's digit limit raises _TooLong, which argparse prints as it
    is and _ints passes on, with no digits echoed."""
    t = text.strip()
    if re.fullmatch("-?[0-9]+", t) is None:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    try:
        return int(t)
    except ValueError:
        raise _TooLong("integer of more than %d digits"
                       % sys.get_int_max_str_digits()) from None


def _ints(text: str) -> List[int]:
    try:
        return [_int(x) for x in text.split(",") if x.strip()]
    except _TooLong:
        raise
    except argparse.ArgumentTypeError:
        raise ValueError("expected comma-separated integers, got %r" % text) from None


_FAMILIES = {"f": (f, 2, "n,m"), "finf": (f_inf, 1, "n"), "q": (q, 2, "r,n")}


def _family(args) -> GenHom:
    params = _ints(args.args)
    build, arity, usage = _FAMILIES[args.family]
    if len(params) != arity:
        raise HomError("--family %s needs --args %s" % (args.family, usage))
    return build(*params)


def _cmd_normalize(args) -> int:
    e = parse(args.algebra, args.expr)
    print(render(e))
    return 0


def _cmd_equals(args) -> int:
    a = parse(args.algebra, args.expr1)
    b = parse(args.algebra, args.expr2)
    if equals(a, b):
        print("equal")
        return 0
    try:
        print("not equal: difference %s" % render(a - b))
    except ValueError as exc:
        print("not equal: difference not printed: %s" % exc)
    return 1


def _cmd_hom_apply(args) -> int:
    h = _family(args)
    e = parse(h.domain, args.expr)
    print(render(apply(h, e)))
    return 0


def _emit(text: str, out: Optional[str]) -> int:
    """Write text to the file out, or to stdout when out is not given.  A
    file that cannot be written (a missing directory, a directory) is a
    usage error: ValueError with the path and the OS reason."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError("cannot write %s: %s" % (out, exc.strerror)) from None
        print("wrote %s" % out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_profinite_report(args) -> int:
    rep = discontinuity_report(args.depth, args.bound, p=args.p,
                               p_precision=args.p_precision)
    return _emit(rep.to_kv() if args.kv else rep.to_text(), args.out)


def _cmd_partition(args) -> int:
    sys.stdout.write(render_partition(Chain(_ints(args.chain))))
    return 0


def render_partition(chain: Chain) -> str:
    """Embeddings as refinements of a unit-interval partition: row k splits
    [0,1] into the ranges of the generators of R_{n_k}, positioned by their
    image words in the top algebra R_{n_1}.  Rows are cell_w * (n_1 + 1)^L
    characters wide, L the longest image word; a chain whose rows would be
    wider than PARTITION_MAX_WIDTH raises ValueError before any word is
    built.  A row is drawn in generator order: the comb words of f(n_1, n_k)
    are in lexicographic order, the top word last, and form a maximal prefix
    code, so their ranges tile the row from left to right."""
    n1 = chain[0]
    base = n1 + 1
    # f(n, m) sends generator m+1 to (s_{n+1})^{m/n}, its longest image word
    max_len = chain[-1] // n1
    cell_w = 6
    # as base >= 2, a max_len of PARTITION_MAX_WIDTH's bit length is too wide
    # already: it is refused before base ** max_len is taken
    if (max_len >= PARTITION_MAX_WIDTH.bit_length()
            or cell_w * base ** max_len > PARTITION_MAX_WIDTH):
        raise ValueError("chain %s is too wide to draw: rows of %d * %d^%d characters"
                         " exceed %d" % (list(chain), cell_w, base, max_len,
                                         PARTITION_MAX_WIDTH))
    rows = []
    for nk in chain:
        line = ""
        for g, w in enumerate(f(n1, nk).image_words(), 1):
            width = base ** (max_len - len(w)) * cell_w - 1
            line += "|" + ("s%d" % g).ljust(width, ".")[:width]
        rows.append("O%-3d %s|" % (nk + 1, line))
    return "\n".join(rows) + "\n"


def _cmd_verify(args) -> int:
    try:
        args.suite(args)
    except Refuted as exc:
        print("REFUTED: %s" % exc)
        return 1
    print(args.done(args))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cuntzlim",
        description="Exact word calculus for Cuntz algebras and their inverse systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="canonical (Leavitt-basis) form of an expression")
    p.add_argument("--algebra", type=_tag, required=True)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("equals", help="exact equality of two expressions")
    p.add_argument("--algebra", type=_tag, required=True)
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_equals)

    hom = sub.add_parser("hom", help="hom family operations")
    hsub = hom.add_subparsers(dest="hom_command", required=True)
    p = hsub.add_parser("apply", help="apply a family hom to an expression")
    p.add_argument("--family", choices=_FAMILIES, required=True)
    p.add_argument("--args", required=True, help="comma-separated parameters")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_hom_apply)

    ver = sub.add_parser("verify", help="verification suites")
    vsub = ver.add_subparsers(dest="what", required=True)
    p = vsub.add_parser("inverse-system")
    p.add_argument("--max", type=_int, default=24)
    p.set_defaults(suite=lambda a: verify_inverse_system(a.max, corrupt=a.corrupt),
                   done=lambda a: "inverse-system law verified up to %d" % a.max)
    p = vsub.add_parser("psi")
    p.add_argument("--chain", required=True)
    p.add_argument("--expr", required=True)
    p.set_defaults(suite=lambda a: verify_psi(Chain(_ints(a.chain)),
                                              parse(O_INF, a.expr), corrupt=a.corrupt),
                   done=lambda a: "psi image coherent on chain %s" % _ints(a.chain))
    p = vsub.add_parser("decomposition")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--max-len", type=_int, default=8)
    p.set_defaults(suite=lambda a: verify_decomposition(a.n, a.max_len, corrupt=a.corrupt),
                   done=lambda a: "decomposition verified for n=%d up to length %d"
                   % (a.n, a.max_len))
    p = vsub.add_parser("uhf")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--depth", type=_int, required=True)
    p.set_defaults(suite=lambda a: verify_uhf(a.r, a.depth, corrupt=a.corrupt),
                   done=lambda a: "uhf chain verified for r=%d depth %d" % (a.r, a.depth))
    p = vsub.add_parser("state")
    p.add_argument("--max", type=_int, default=12)
    p.set_defaults(suite=lambda a: verify_state(a.max, corrupt=a.corrupt),
                   done=lambda a: "state compatibility verified up to %d" % a.max)
    for p in vsub.choices.values():
        p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
        p.set_defaults(func=_cmd_verify)

    pos = sub.add_parser("poset", help="divisibility poset outputs")
    psub = pos.add_subparsers(dest="poset_command", required=True)
    p = psub.add_parser("graph", help="embeddability graph in DOT format")
    p.add_argument("--max", type=_int, required=True)
    p.add_argument("--out")
    p.add_argument("--reduce", action="store_true",
                   help="emit only covering arrows (Hasse diagram)")
    p.set_defaults(func=lambda a: _emit(embeddability_graph(a.max, reduce=a.reduce), a.out))

    pro = sub.add_parser("profinite", help="profinite K0 reports")
    prsub = pro.add_subparsers(dest="profinite_command", required=True)
    p = prsub.add_parser("report")
    p.add_argument("--depth", type=_int, required=True)
    p.add_argument("--bound", type=_int, required=True)
    p.add_argument("--p", type=_int, default=2)
    p.add_argument("--p-precision", type=_int, default=8)
    p.add_argument("--kv", action="store_true", help="machine-readable key/value output")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_profinite_report)

    p = sub.add_parser("partition", help="interval refinement picture for a chain")
    p.add_argument("--chain", required=True)
    p.set_defaults(func=_cmd_partition)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
