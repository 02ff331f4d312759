"""Exact invariants of finite directed graphs and their Leavitt path algebras.

Its modules cover graph surgery (restriction, quotient, subquotient),
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
    PresentedGroup,
    SmithData,
    check_exact,
    coker_with_coefficients,
    kernel_basis,
    snf,
)
from .graphs import (
    Edge,
    Graph,
    GraphFormatError,
    graph_from_matrix,
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
    lattice_isomorphisms,
    locally_closed_all,
    spectrum,
)
from .monoid import (
    EqVerdict,
    GradedElement,
    MonoidElement,
    graded_equal,
    graded_expand_to_level,
    parse_graded_element,
    parse_monoid_element,
    ungraded_equal,
)
from .ktheory import (
    ConnectingMap,
    KOneBar,
    SixTermRow,
    connecting_delta,
    k0,
    k1,
    k_matrix,
    phi,
    six_term_row,
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
