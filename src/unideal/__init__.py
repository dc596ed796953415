"""Exact univariate-ideal membership toolkit.

Deciding whether a circuit-represented multivariate polynomial lies in an
ideal generated by univariate polynomials, with three engines: recursive
remainder evaluation for polynomials of low linear-form rank, a randomized
scaled-Hadamard test for power ideals, and finite-precision root certificates
when the generators have distinct roots.  Applications: permanents of low-rank
matrices and vertex cover on low-rank graphs.
"""

from .fields import FieldMismatch, is_probable_prime, random_prime
from .linalg import LinearForm, Matrix, rank_and_row_basis
from .poly import CapExceeded, SparsePoly, UnivariatePoly
from .circuits import (
    Add,
    Circuit,
    CircuitBuilder,
    Const,
    DiagonalCircuit,
    Input,
    Linear,
    Mul,
    expand,
    homogeneous_part_eval,
    syntactic_degree,
)
from .division import (
    UnivariateIdeal,
    divide,
    is_member_brute,
    random_zero_test,
)
from .lowrank import LowRankInput, RemEvaluator, inline_forms, rem_eval
from .apps import (
    Graph,
    blowup_graph,
    build_vc_instance,
    has_vertex_cover_brute,
    permanent_lowrank,
    ryser_permanent,
    vertex_cover_lowrank,
)
from .hadamard import (
    PowerIdealSpec,
    build_detection_circuit,
    coverage_failure_bound,
    coverage_trials,
    membership_powers,
    scaled_hadamard_eval,
)
from .certifier import (
    Certificate,
    NotSquarefree,
    PrecisionBudget,
    Undecided,
    approximate_roots,
    compute_threshold,
    root_bound,
    search_nonmembership,
    verify_certificate,
)
from .reductions import (
    KLinEqInstance,
    OneInThreeInstance,
    graph_coloring_instance,
    reduce_independent_set,
    reduce_klineq,
    reduce_one_in_three,
)

__version__ = "0.1.0"
