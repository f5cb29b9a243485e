"""Hardy-type nonlocality tests for (almost) any entangled pure state.

Given a pure state and a bipartition with at least two distinct Schmidt
weights, the package builds four ternary observables whose statistics pin
five joint outcomes to probability exactly zero while a sixth, flagged
outcome keeps a strictly positive closed-form probability.  No local
hidden-variable model can reproduce such a table, and the :mod:`lhv` module
proves it executably: deterministic-strategy enumeration plus an LP
feasibility check that returns either an explicit local model or a
machine-verified Farkas certificate (a violated Bell-type inequality).

Importing the package loads numpy and the two-party core (``errors``,
``states``, ``jacobi``, ``schmidt``, ``hardy``, ``statefile``).  The
``lhv``, ``simplex``, ``multipartite`` and ``sampling`` layers load on first
use: reading one of their names here, or the module itself, imports it
(PEP 562), so a process that never certifies, peels or samples skips them.
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
from .schmidt import SchmidtDecomposition, reconstruct, schmidt_decompose, schmidt_weights
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

# The layers that load on first use, each with the public names it owns.
_DEFERRED = {
    "lhv": (
        "DeterministicStrategy",
        "LhvCertificate",
        "StrategySpace",
        "certify",
        "enumerate_strategies",
        "idealized_table",
        "paper_inequality",
        "strategies_for_table",
    ),
    "multipartite": (
        "MultipartiteWitness",
        "PeelBranch",
        "PeelStep",
        "build_t_observable",
        "multipartite_table",
        "multipartite_witness",
        "peel",
    ),
    "sampling": (
        "FrequencyReport",
        "ShotRecord",
        "ShotRecords",
        "analyze",
        "export_csv",
        "records_to_csv",
        "sample_from_table",
        "splitmix64",
        "uniform_unit",
    ),
    "simplex": ("FeasibilityResult", "solve_equality_feasibility"),
}
_OWNER = {name: module for module, names in _DEFERRED.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_DEFERRED) | set(_OWNER)
)


def __getattr__(name):
    """Import a deferred layer when it, or a name it owns, is first read."""
    import importlib

    module = _OWNER.get(name, name)
    if module not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

__version__ = "0.1.0"
