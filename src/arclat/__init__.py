"""Executable lattice combinatorics for permutations and signed permutations:
noncrossing arc diagrams, subarc forcing, congruences and quotients of the
weak order, with lattice-theoretic and geometric cross-checks."""

from .lattice import (
    Congruence,
    FiniteLattice,
    InvariantError,
    JoinIrreducible,
    NotALattice,
    ScopeExceeded,
    build_lattice,
    cjr_oracle,
    contracted_jis,
    forcing_oracle,
    join_irreducibles,
    principal_congruence,
    quotient,
)
from .permutations import (
    CoxeterType,
    NotSymmetric,
    Permutation,
    Reflection,
    SignedPermutation,
    cjr_weak,
    fold,
    unfold,
    w0_conjugate,
    weak_order_lattice,
    weak_order_leq,
)
from .arcs_a import ArcA, DiagramA
from .arcs_b import (
    DiagramB,
    InvalidArc,
    InvalidPair,
    LongArc,
    NotADiagram,
    NotJoinIrreducible,
    OrbifoldArc,
    OrdinaryArc,
    SymmetricArc,
    SymmetricPair,
    fold_phi,
    unfold_phi_inv,
    validate_long_arc,
)
from .forcing import (
    ArcCongruence,
    ArcCongruenceA,
    NotInConA,
    congruence_join,
    congruence_meet,
    forces,
    has_arrow,
    is_in_con_a,
    is_loose_subarc,
    is_subarc,
    is_subarc_symmetric,
    lift_to_symmetric,
    meet_irreducible_congruence,
    quotient_elements,
    quotient_lattice,
)
from .catalog import (
    Designation,
    MalformedPartition,
    NCPartitionB,
    bicambrian_bipartite,
    bicambrian_linear,
    cambrian_congruence,
    cambrian_meet_rep,
    cambrian_pattern_test,
    diagram_of_ncp,
    hom_congruence,
    ncp_of_diagram,
    parabolic_congruence,
)
from .render import RenderSpec, render as render_diagram

__version__ = "0.1.0"
