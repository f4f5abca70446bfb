"""cuntzlim: exact word calculus for Cuntz algebras and their inverse systems."""

from .scalars import GaussianRational, ZERO, ONE, IMAG
from .algebra import (
    AlgebraError,
    AlgebraTag,
    Element,
    O,
    O_INF,
    equals,
    gen,
    mono,
    normalize,
    unit,
    zero,
)
from .homs import (
    CodeReport,
    DigitMap,
    GenHom,
    HomError,
    WordHom,
    apply,
    compose,
    f,
    f_inf,
    f_preimage,
    hom_exists,
    identity,
    make_hom,
    q,
    rn,
    validate_prefix_code,
)
from .poset import (
    Chain,
    cofinal_chain,
    divisibility_edges,
    embeddability_edges,
    embeddability_graph,
    join,
    leq,
    reversed_relabeled,
)
from .limits import (
    CoherentFamily,
    check_coherent,
    classify_monomial,
    decompose_element,
    decompose_word,
    in_K,
    in_L,
    in_L_inf,
    psi,
    state_omega,
)
from .profinite import DiscontinuityReport, discontinuity_report, k0_class
from .gauge import (
    UhfChainReport,
    gauge_witness,
    is_diagonal,
    is_gauge_invariant,
    uhf_chain_check,
)
from .parser import ParseError, parse, render

__version__ = "0.1.0"
