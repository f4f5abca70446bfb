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
    grade_components,
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
    hom_exists,
    identity,
    make_hom,
    q,
    rn,
    validate_prefix_code,
)
from .poset import (
    Chain,
    Digraph,
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
from .profinite import (
    DiscontinuityReport,
    K0Descriptor,
    K0Map,
    ProfiniteInt,
    UHF,
    all_ones,
    discontinuity_report,
    from_digits,
    induced_k0_map,
    k0,
    nonintegrality_witness,
)
from .gauge import (
    FixedPointReport,
    UhfChainReport,
    fixed_point_report,
    is_diagonal,
    is_gauge_invariant,
    uhf_chain_check,
    uhf_member,
)
from .parser import ParseError, parse, render

__version__ = "0.1.0"
