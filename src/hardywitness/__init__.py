"""Hardy-type nonlocality tests for (almost) any entangled pure state.

Given a pure state and a bipartition with at least two distinct Schmidt
weights, the package builds four ternary observables whose statistics pin
five joint outcomes to probability exactly zero while a sixth, flagged
outcome keeps a strictly positive closed-form probability.  No local
hidden-variable model can reproduce such a table, and the :mod:`lhv` module
proves it executably: deterministic-strategy enumeration plus an LP
feasibility check that returns either an explicit local model or a
machine-verified Farkas certificate (a violated Bell-type inequality).
"""

from .errors import (
    BadPartition,
    DegeneratePair,
    DimensionMismatch,
    HardyWitnessError,
    NonPositiveWeight,
    NumericalFailure,
    ParseError,
    TooLarge,
    ZeroVector,
)
from .hardy import (
    FLAGGED_CONDITION,
    HARDY_MAX,
    ZERO_CONDITIONS,
    HardyCondition,
    HardyConstruction,
    JointProbabilityTable,
    Observable,
    WitnessReport,
    build_construction,
    build_unitaries,
    distinct_weight_pairs,
    hardy_probability,
    joint_table,
    make_witness_report,
    max_hardy_probability_qubit,
    verify_equivalent_decompositions,
)
from .lhv import (
    ContradictionTrace,
    DeterministicStrategy,
    LhvCertificate,
    StrategySpace,
    certify,
    enumerate_strategies,
    idealized_table,
    strategies_for_table,
    verify_no_deterministic_model,
)
from .multipartite import (
    MultipartiteWitness,
    PeelBranch,
    PeelStep,
    build_t_observable,
    multipartite_table,
    multipartite_witness,
    peel,
)
from .sampling import (
    FrequencyReport,
    ShotRecord,
    ShotRecords,
    analyze,
    export_csv,
    records_to_csv,
    sample_from_table,
    splitmix64,
    uniform_unit,
)
from .schmidt import SchmidtDecomposition, reconstruct, schmidt_decompose, schmidt_weights
from .simplex import FeasibilityResult, solve_equality_feasibility
from .statefile import dump_state, load_state, parse_state_text, state_to_json
from .states import (
    Bipartition,
    StateVector,
    apply_local_complement,
    apply_local_projector,
    basis_state,
    ghz_state,
    make_state,
    matrix_to_state,
    normalize,
    reshape_bipartite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
