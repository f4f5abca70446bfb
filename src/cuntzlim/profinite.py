"""The K0 class of a diagonal element of a Cuntz algebra, and the report
showing that K0 does not commute with the inverse limit at desk scale: the
all-ones element of lim Z/n has residue S_d = 1! + ... + d! mod (d+1)!, and
these residues stay away from every integer of bounded size.  The report is
built from one running sum of factorials, and its p-adic digits are read off
the residue at the requested depth."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .algebra import Element, check_int

# discontinuity_report refuses depths past REPORT_MAX_DEPTH: at depth 1000 its
# residues mod up to 1001! have up to 2571 digits and the report is 2.4 MB;
# from depth 1558 on, (depth+1)! passes CPython's 4300-digit limit for printing
# an int
REPORT_MAX_DEPTH = 1000
# a witness past the requested depth is looked for this many depths further
REPORT_WITNESS_REACH = 64


# ---------------------------------------------------------------------------
# K0 classes of elements
# ---------------------------------------------------------------------------

def k0_class(e: Element) -> int:
    """The K0 class of a diagonal element with integer coefficients, a sum of
    terms c s_w s_w*.  Every range projection s_w s_w* is equivalent to I, so
    the class is the coefficient sum: mod k-1 in O_k, where K0 = Z/(k-1), and
    the integer itself in O_inf, where K0 = Z.  The Leavitt rewrite changes the
    sum by k-1, so it is well defined on the canonical form."""
    total = 0
    for (l, r), c in e.terms.items():
        if l != r or c.im or c.re.denominator != 1:
            raise ValueError("no K0 class: the term %r is not an integer multiple"
                             " of a range projection" % (Element(e.tag, {(l, r): c}),))
        total += c.re.numerator
    return total % (e.tag.ngens - 1) if e.tag.is_finite else total


# ---------------------------------------------------------------------------
# the discontinuity report
# ---------------------------------------------------------------------------

@dataclass
class DiscontinuityReport:
    depth: int
    bound: int
    residue_moduli: List[int]
    residues: List[int]
    injectivity_guaranteed: bool
    witness_depth: Optional[int]
    witness_residue: Optional[int]
    witness_beyond_requested: bool
    max_separating_bound: int
    max_bound_witness_depth: int
    p: int
    p_precision: int
    p_digits: Tuple[int, ...]
    p_determined: int  # v_p((depth+1)!): the digits the residue class fixes

    def to_kv(self) -> str:
        lines = [
            "depth=%d" % self.depth,
            "bound=%d" % self.bound,
            "limit_k0=FreeRankOne",
            "residue_moduli=%s" % ",".join(map(str, self.residue_moduli)),
            "all_ones_residues=%s" % ",".join(map(str, self.residues)),
            "injectivity_guaranteed=%s" % str(self.injectivity_guaranteed).lower(),
            "witness_depth=%s" % (
                self.witness_depth if self.witness_depth is not None else "inconclusive"
            ),
            "witness_residue=%s" % (
                self.witness_residue if self.witness_residue is not None else ""
            ),
            "witness_beyond_requested=%s" % str(self.witness_beyond_requested).lower(),
            "max_separating_bound=%d" % self.max_separating_bound,
            "max_bound_witness_depth=%d" % self.max_bound_witness_depth,
            "p=%d" % self.p,
            "p_precision=%d" % self.p_precision,
            "p_limit_k0=FreeRankOne",
            "p_all_ones_digits=%s" % ",".join(map(str, self.p_digits)),
        ]
        if self.p_determined < self.p_precision:
            lines.append("p_determined_digits=%d" % self.p_determined)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        w = []
        w.append("K0 discontinuity report (depth %d, bound %d)" % (self.depth, self.bound))
        w.append("  limit side:      K0(lim O_n) = Z (FreeRankOne)")
        w.append("  residue side:    lim K0(O_n) truncated along the factorial chain")
        w.append("    moduli:        %s" % ", ".join(map(str, self.residue_moduli)))
        w.append("    all-ones elt:  %s" % ", ".join(map(str, self.residues)))
        w.append(
            "  injectivity of Z -> Z-hat on [-%d, %d]: %s"
            % (self.bound, self.bound,
               "guaranteed ((depth+1)! > 2*bound)" if self.injectivity_guaranteed else "NOT guaranteed")
        )
        if self.witness_depth is not None and not self.witness_beyond_requested:
            w.append(
                "  non-surjectivity witness: all-ones element separates from"
                " [-%d, %d] at depth %d" % (self.bound, self.bound, self.witness_depth)
            )
        elif self.witness_depth is not None:
            w.append(
                "  non-surjectivity witness vs bound %d needs depth %d"
                " (beyond the requested depth %d)"
                % (self.bound, self.witness_depth, self.depth)
            )
        else:
            w.append("  non-surjectivity witness vs bound %d: inconclusive" % self.bound)
        w.append(
            "  at depth %d the all-ones element separates from every integer"
            " bound up to %d (witness depth %d)"
            % (self.depth, self.max_separating_bound, self.max_bound_witness_depth)
        )
        w.append(
            "  p-adic variant (p=%d, precision %d): K0(lim O_{p^n+1}) = Z (FreeRankOne)"
            " vs truncated Z_p digits %s"
            % (self.p, self.p_precision, list(self.p_digits))
        )
        if self.p_determined < self.p_precision:
            w[-1] += " (%d! determines only the first %d digits)" % (
                self.depth + 1, self.p_determined)
        return "\n".join(w) + "\n"


def discontinuity_report(depth: int, bound: int, p: int = 2,
                         p_precision: int = 8) -> DiscontinuityReport:
    """The all-ones element against the integers in [-bound, bound], up to
    the factorial depth.  Its p-adic digits are printed only as far as its
    class mod (depth+1)! fixes them: v_p((depth+1)!) digits, at most
    p_precision.  So depth must be >= 1, p a prime <= depth + 1, bound
    >= 0 and p_precision >= 1."""
    check_int("depth", depth, 1, ValueError)
    if depth > REPORT_MAX_DEPTH:
        raise ValueError("depth %d is too deep: reports are built up to depth %d"
                         % (depth, REPORT_MAX_DEPTH))
    check_int("bound", bound, 0, ValueError)
    check_int("p", p, 2, ValueError)
    check_int("p_precision", p_precision, 1, ValueError)
    # a p past depth + 1 divides no factor of (depth+1)!: it is refused
    # before its primality is tested
    if p > depth + 1 or any(p % k == 0 for k in range(2, math.isqrt(p) + 1)):
        raise ValueError("need a prime p <= depth + 1 = %d, got %d" % (depth + 1, p))
    determined, pk = 0, p  # Legendre: v_p(N!) = sum of N // p^k
    while pk <= depth + 1:
        determined += (depth + 1) // pk
        pk *= p

    # S_d < (d+1)! is the residue itself, and S_D = S_d mod (d+1)! for D >= d,
    # so one pass over d, carrying d! and S_d, gives every residue and finds
    # the witness up to REPORT_WITNESS_REACH depths past the requested one.
    # The class mod (d+1)! separates from [-bound, bound] iff both of its
    # representatives S_d and S_d - (d+1)! pass the bound.  That margin,
    # min(S_d, (d+1)! - S_d), runs 1, 3, 9, 33, ... and grows strictly with
    # d, as both S_d and (d+1)! - S_d do, so the largest bound separable at
    # the requested depth is its margin there minus 1, and the requested
    # depth is the first to separate it.
    moduli, residues = [], []
    wit = wit_res = None
    fact, total = 1, 0  # d! and S_d
    for d in range(1, depth + REPORT_WITNESS_REACH + 1):
        fact *= d
        total += fact
        modulus = fact * (d + 1)
        sep = min(total, modulus - total)
        if wit is None and sep > bound:
            wit, wit_res = d, total
        if d <= depth:
            moduli.append(modulus)
            residues.append(total)
        elif wit is not None:
            break

    # the first base-p digits of S_depth, as many as (depth+1)! determines
    digits, v = [], residues[-1]
    for _ in range(min(p_precision, determined)):
        v, digit = divmod(v, p)
        digits.append(digit)
    return DiscontinuityReport(
        depth=depth,
        bound=bound,
        residue_moduli=moduli,
        residues=residues,
        injectivity_guaranteed=moduli[-1] > 2 * bound,
        witness_depth=wit,
        witness_residue=wit_res,
        witness_beyond_requested=wit is not None and wit > depth,
        max_separating_bound=min(residues[-1], moduli[-1] - residues[-1]) - 1,
        max_bound_witness_depth=depth,
        p=p,
        p_precision=p_precision,
        p_digits=tuple(digits),
        p_determined=determined,
    )
