"""Command-line surface.

Exit codes: 0 = verified/success, 1 = refuted (a counterexample is printed),
2 = usage or parse error.
"""
from __future__ import annotations

import argparse
import itertools
import random
import sys
from typing import List, Optional

from .algebra import AlgebraTag, O, O_INF, equals, gen, mono, unit
from .gauge import uhf_chain_check
from .homs import GenHom, HomError, apply, compose, f, f_inf, q
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
from .parser import ParseError, parse, render
from .poset import Chain, embeddability_graph
from .profinite import discontinuity_report


class Refuted(Exception):
    """Verification failure carrying the printed counterexample."""


def _tag(text: str) -> AlgebraTag:
    text = text.strip()
    if text in ("Oinf", "OINF", "O_inf", "Ooo"):
        return O_INF
    if text.startswith("O") and text[1:].isdigit():
        return O(int(text[1:]))
    raise argparse.ArgumentTypeError("algebra must be O<k> (k>=2) or Oinf")


def _ints(text: str) -> List[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _corrupt(h: GenHom) -> GenHom:
    """Mutation hook: swap the first two generator images without revalidating."""
    return GenHom(h.domain, h.codomain, lambda k: h.image({1: 2, 2: 1}.get(k, k)))


_FAMILIES = {"f": (f, 2, "n,m"), "finf": (f_inf, 1, "n"), "q": (q, 2, "r,n")}


def _family(args) -> GenHom:
    params = _ints(args.args)
    build, arity, usage = _FAMILIES[args.family]
    if len(params) != arity:
        raise HomError("--family %s needs --args %s" % (args.family, usage))
    return build(*params)


# ---------------------------------------------------------------------------
# verification suites (shared with the test suite)
# ---------------------------------------------------------------------------

def verify_inverse_system(max_l: int, corrupt: bool = False) -> None:
    """f(n,m) o f(m,l) = f(n,l) generator-wise on all chains n | m | l."""
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


def verify_psi(chain: Chain, expr: "Element", corrupt: bool = False) -> None:
    fam = psi(chain, expr)
    if corrupt:
        if len(chain) < 2:
            raise ValueError("--corrupt needs a chain of at least two elements")
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

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
    print("not equal: difference %s" % render(a - b))
    return 1


def _cmd_hom_apply(args) -> int:
    h = _family(args)
    e = parse(h.domain, args.expr)
    print(render(apply(h, e)))
    return 0


def _emit(text: str, out: Optional[str]) -> int:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print("wrote %s" % out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_poset_graph(args) -> int:
    g = embeddability_graph(args.max, reduce=args.reduce)
    return _emit(g.to_dot("embeddability"), args.out)


def _cmd_profinite_report(args) -> int:
    rep = discontinuity_report(args.depth, args.bound, p=args.p,
                               p_precision=args.p_precision)
    return _emit(rep.to_kv() if args.kv else rep.to_text(), args.out)


def _cmd_partition(args) -> int:
    sys.stdout.write(render_partition(Chain(tuple(_ints(args.chain)))))
    return 0


def render_partition(chain: Chain) -> str:
    """Embeddings as refinements of a unit-interval partition: row k splits
    [0,1] into the ranges of the generators of R_{n_k}, positioned by their
    image words in the top algebra R_{n_1}."""
    n1 = chain[0]
    base = n1 + 1
    words = [f(n1, nk).image_words() for nk in chain]
    max_len = max(len(w) for ws in words for w in ws)
    cell_w = 6
    rows = []
    for nk, ws in zip(chain, words):
        segs = []
        for g, w in enumerate(ws, 1):
            start = 0
            for j, a in enumerate(w):
                start += (a - 1) * base ** (max_len - 1 - j)
            segs.append((start, base ** (max_len - len(w)), "s%d" % g))
        segs.sort()
        line = ""
        for start, width, label in segs:
            body = label.ljust(width * cell_w - 1, ".")[: width * cell_w - 1]
            line += "|" + body
        rows.append("O%-3d %s|" % (nk + 1, line))
    return "\n".join(rows) + "\n"


def _cmd_verify(args) -> int:
    try:
        if args.what == "inverse-system":
            verify_inverse_system(args.max, corrupt=args.corrupt)
            print("inverse-system law verified up to %d" % args.max)
        elif args.what == "psi":
            chain = Chain(tuple(_ints(args.chain)))
            expr = parse(O_INF, args.expr)
            verify_psi(chain, expr, corrupt=args.corrupt)
            print("psi image coherent on chain %s" % _ints(args.chain))
        elif args.what == "decomposition":
            verify_decomposition(args.n, args.max_len, corrupt=args.corrupt)
            print("decomposition verified for n=%d up to length %d"
                  % (args.n, args.max_len))
        elif args.what == "uhf":
            verify_uhf(args.r, args.depth, corrupt=args.corrupt)
            print("uhf chain verified for r=%d depth %d" % (args.r, args.depth))
        elif args.what == "state":
            verify_state(args.max, corrupt=args.corrupt)
            print("state compatibility verified up to %d" % args.max)
    except Refuted as exc:
        print("REFUTED: %s" % exc)
        return 1
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
    p.add_argument("--family", choices=["f", "finf", "q"], required=True)
    p.add_argument("--args", required=True, help="comma-separated parameters")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_hom_apply)

    ver = sub.add_parser("verify", help="verification suites")
    vsub = ver.add_subparsers(dest="what", required=True)
    p = vsub.add_parser("inverse-system")
    p.add_argument("--max", type=int, default=24)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)
    p = vsub.add_parser("psi")
    p.add_argument("--chain", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)
    p = vsub.add_parser("decomposition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)
    p = vsub.add_parser("uhf")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)
    p = vsub.add_parser("state")
    p.add_argument("--max", type=int, default=12)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    pos = sub.add_parser("poset", help="divisibility poset outputs")
    psub = pos.add_subparsers(dest="poset_command", required=True)
    p = psub.add_parser("graph", help="embeddability graph in DOT format")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--reduce", action="store_true",
                   help="emit only covering arrows (Hasse diagram)")
    p.set_defaults(func=_cmd_poset_graph)

    pro = sub.add_parser("profinite", help="profinite K0 reports")
    prsub = pro.add_subparsers(dest="profinite_command", required=True)
    p = prsub.add_parser("report")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--p-precision", type=int, default=8)
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
    except (ParseError, HomError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
