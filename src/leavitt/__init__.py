"""Exact invariants of finite directed graphs and their Leavitt path algebras.

Subpackages cover graph surgery (restriction, quotient, covering windows),
the hereditary saturated ideal lattice and its prime spectrum, graph monoids
with graded rewriting, K-theoretic invariants with their connecting maps,
filtered K-theory tables, and bounded shift equivalence for nonnegative
integer matrices.  All arithmetic is exact.
"""

from .intlinalg import (
    CoeffCokernel,
    CoeffGroup,
    FgAbGroup,
    GroupMap,
    IntMatrix,
    InvariantFactors,
    PresentedGroup,
    SmithData,
    check_exact,
    check_well_defined,
    coker_with_coefficients,
    cokernel,
    group_iso,
    invariant_factors,
    kernel_basis,
    snf,
)
from .graphs import (
    Edge,
    Graph,
    GraphFormatError,
    covering_window,
    graph_from_matrix,
    is_downward_directed,
    is_irreducible,
    parse_graph,
    parse_matrix,
    quotient,
    relabel,
    restriction,
    subquotient,
)
from .lattice import (
    IdealLattice,
    LatticeCapError,
    LocallyClosed,
    SpectrumTopology,
    enumerate_hsat,
    graded_primes,
    hsat_closure,
    kernel_of,
    lattice_isomorphisms,
    locally_closed_all,
    spectrum,
)
from .monoid import (
    EqBudget,
    EqVerdict,
    GradedElement,
    MonoidElement,
    graded_equal,
    graded_expand_to_level,
    order_ideal_membership,
    parse_graded_element,
    parse_monoid_element,
    quotient_roundtrip,
    ungraded_equal,
)
from .ktheory import (
    ConnectingMap,
    KOneBar,
    KZero,
    SixTermRow,
    connecting_delta,
    k0,
    k1,
    k_matrix,
    phi,
    psi,
    psi_diagram_check,
    six_term_row,
    snake_rho,
    vdb_sequence,
)
from .filtered import (
    ComparisonReport,
    FilteredKTable,
    compare_fkbar,
    fkbar,
    transport_from_certificate,
)
from .shifts import (
    SeResult,
    ShiftEqCertificate,
    bowen_franks,
    det_invariant,
    shift_equivalent_bounded,
    verify_certificate,
)

__version__ = "0.1.0"
