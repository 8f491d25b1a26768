"""Symbolic workbench for equations over groups.

Backends with exact arithmetic, free-product word algebra, equation
classification and normal forms, generalized-equation coset rewriting,
unique-product checks and witness search, proper-power detection, and a
finite brute-force solver.
"""

from .backends import (
    DirectProductGroup,
    FiniteTableGroup,
    FoursGroup,
    FreeAbelianGroup,
    FreeGroup,
    FreeProductGroup,
    Group,
    GroupElement,
    PermutationGroup,
    Presentation,
    QuotientFreeAbelianGroup,
    cyclic_group,
    klein_four_group,
    table_from_group,
)
from .config import Caps, DEFAULT_CAPS
from .equations import (
    Classification,
    Equation,
    Form6,
    LengthOneForm,
    NormalFormResult,
    Split,
    bruteforce_min_form6,
    classify,
    emit_system_7,
    normal_form_6,
    universal_solution_group,
)
from .freegroup import (
    CorollaryReport,
    MultiVarEquation,
    PowerDecomposition,
    corollary_precheck,
    exponent_sums,
    proper_power,
)
from .generalized import (
    GeneralizedEquation,
    RewrittenEquation,
    UnimodularVerdict,
    conjugate_family,
    coset_rewrite,
    emit_ky,
    emit_solution_group,
    induced_ordinary,
    reduce_to_ordinary,
    total_product,
    unimodular_verdict,
)
from .finite_solver import (
    SolutionCertificate,
    SolverReport,
    solve_over_finite,
    verify_certificate,
)
from .up import (
    AnnealResult,
    ProductCensus,
    UPReport,
    anneal_nonup_witness,
    naive_no_unique_product,
    search_nonup_witness,
    strojnowski_check,
    strong_up_check,
    up4_check,
    up_check,
    verify_up4_implies_strong,
)
from .words import in_subfreeproduct, relation_falsifier

__version__ = "0.1.0"
