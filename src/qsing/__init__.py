"""Semi-invariants of Dynkin quivers: generic decomposition, nullcone
geometry, multi-variable b-functions and rational-singularity certificates."""

from .quiver import (
    Classification,
    NonDynkinError,
    Quiver,
    QuiverError,
    classify,
    coxeter,
    coxeter_apply,
    euler_form,
    parse_quiver_file,
)
from .roots import (
    HomTable,
    Representation,
    ext_dim,
    hom_dim,
    hom_matrix_dvw,
    hom_table,
    positive_roots,
    realize,
)
from .decomp import (
    NonSquareError,
    PerpData,
    RepClass,
    evaluate_semiinvariant,
    generic_decomposition,
    make_class,
    perp_simples,
)
from .orbits import (
    ComponentReport,
    ZeroSetSpec,
    components,
    degenerates_to,
    enumerate_classes,
    gradient_condition_a,
    gradient_condition_b_witness,
    h_nonempty,
    in_zero_set,
    is_set_theoretic_ci,
    make_spec,
    reducedness_report,
    zprime_nonempty,
)
from .brackets import (
    BFunctionFamily,
    BracketTerm,
    TerminalRuleInapplicable,
    bracket_identity_check,
    compute_bfunction,
    evaluate,
    expand,
    family_from_terms,
    render_family,
    specialize,
)
from .bsato import (
    Membership,
    Verdict,
    certify_all_good,
    check_form_assumption,
    generator_bc,
    is_good,
    membership_in_ztilde,
    rational_singularities_verdict,
    verify_certificate,
)

__version__ = "0.1.0"
