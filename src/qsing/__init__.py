"""Semi-invariants of Dynkin quivers: generic decomposition, nullcone
geometry, multi-variable b-functions and rational-singularity certificates."""

from .quiver import (
    Classification,
    NonDynkinError,
    Quiver,
    QuiverError,
    classify,
    euler_form,
    parse_quiver_file,
)
from .roots import HomTable, hom_table, positive_roots
from .decomp import (
    PerpData,
    RepClass,
    generic_decomposition,
    make_class,
    perp_simples,
)
from .orbits import (
    ComponentReport,
    ZeroSetSpec,
    components,
    enumerate_classes,
    is_set_theoretic_ci,
    make_spec,
    reducedness_report,
)
from .brackets import (
    BFunctionFamily,
    BracketTerm,
    TerminalRuleInapplicable,
    compute_bfunction,
    expand,
    family_from_terms,
    render_family,
)
from .bsato import (
    Membership,
    Verdict,
    certify_all_good,
    check_form_assumption,
    is_good,
    membership_in_ztilde,
    rational_singularities_verdict,
    verify_certificate,
)

__version__ = "0.1.0"
