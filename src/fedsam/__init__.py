"""Desk-scale laboratory for federated stochastic approximation under Markovian noise.

Exact MDP oracles, the generic federated averaging loop, three federated RL
algorithms (on-policy TD with linear features, off-policy tabular n-step TD,
Q-learning), theory-constant calculators, and an experiment harness for
linear-speedup and synchronization-period studies.
"""

__version__ = "0.1.0"

from .algorithms import (
    OFF_POLICY_TD_TABULAR,
    ON_POLICY_TD_LFA,
    Q_LEARNING,
    AlgorithmInstance,
    TheoryConstants,
    build_problem,
    expected_operator,
    theory_constants,
)
from .engine import (
    FedRunConfig,
    FedSamProblem,
    RunTrace,
    output_time_distribution,
    run_fedsam,
    sync_errors,
)
from .errors import (
    CoverageError,
    DivergenceError,
    ErgodicityError,
    FedSamError,
    GenerationError,
)
from .harness import (
    Cell,
    ExperimentSpec,
    GeneratorParams,
    SweepResult,
    TrialResult,
    generate_instance,
    load_results,
    persist,
    run_trial,
    speedup_slope,
    sweep,
)
from .mdp import (
    FeatureMatrix,
    Mdp,
    Policy,
    importance_ratio,
    policy_transition_matrix,
    projected_fixed_point_oracle,
    q_star_oracle,
    stationary_distribution,
    value_function_oracle,
)
from .sampling import AgentChain, MixingEstimate, mixing_diagnostics, stream
