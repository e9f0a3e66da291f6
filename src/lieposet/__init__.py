"""Exact-arithmetic toolkit for Lie poset algebras of the classical families.

Signed posets encode subalgebras between the diagonal and upper-triangular
matrices of sl(n), so(2n+1), sp(2n) and so(2n).  The package constructs
their bases, computes the index both by exact generic rank and by the
combinatorial relation-graph formulas, replays the graph-guided matrix
reduction, and verifies the Frobenius functional / principal element /
binary spectrum story by exhaustive small-case enumeration.
"""

from .errors import (
    AntisymmetryViolation,
    BadElement,
    Condition1Violation,
    Condition2Violation,
    Condition3Violation,
    InputParseError,
    InvariantViolation,
    LiePosetError,
    NoSignRescaling,
    NonEigenbasis,
    NotFrobenius,
    NotInSpan,
    PosetConstructionError,
    SingularForm,
    TablesDiffer,
    UnsupportedHeight,
    UnsupportedPoset,
)
from .linalg import integer_rank
from .posets import (
    FAMILIES,
    GraphComponent,
    HeightPair,
    RelationGraph,
    SignedPoset,
    build_poset,
    covering_relations,
    enumerate_h01,
    graph_components,
    ground_set,
    h01_slots,
    height,
    induced_subposet,
    is_separable,
    mask_of_poset,
    poset_from_graph,
    poset_from_mask,
    positive_part,
    relation_graph,
    rg_connected,
    validate,
)
from .algebra import (
    BasisElement,
    build_basis,
    commutator,
    decompose,
    evaluate,
    matrix_form,
    realize,
    realize_combination,
    structure_constants,
    verify_B_reduction,
    verify_CD_isomorphism,
)
from .index_engine import (
    ReductionStep,
    ReductionTrace,
    generic_rank,
    index_formula,
    index_oracle,
    reduce,
)
from .frobenius import (
    Functional,
    PrincipalElement,
    SpectrumReport,
    frobenius_functional,
    functional,
    is_frobenius_by_graph,
    kernel_dim,
    principal_element,
    spectrum,
)
from .harness import (
    CampaignConfig,
    report_json_bytes,
    report_text,
    run_campaign,
)

__version__ = "0.1.0"
