"""Workload definitions, and the import of the program under test.

Specs are plain data (no numpy, no fedsam), so a workload can be read before
the import of the program is timed. Every spec is a dict accepted by
`fedsam.ExperimentSpec.from_dict`; its `master_seed` is the benchmark's
`--seed`, so the seed picks the instance and every trial stream.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_fedsam():
    """Import fedsam from the checkout's src/; exit loudly if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import fedsam
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fedsam from {SRC}: {exc}")
    if Path(fedsam.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported fedsam from {fedsam.__file__}, not from {SRC}")
    return fedsam


def _speedup_td(seed: int) -> list[dict]:
    # The paper's linear-speedup experiment at the acceptance shape, with few
    # replications. K=1: one block, one barrier and one checkpoint decision
    # per step, so the engine loop and the sync layer do the most work.
    return [{
        "name": "speedup_td",
        "kind": "off_policy_td_tabular",
        "params": {"n_states": 4, "n_actions": 2, "branching": 2, "gamma": 0.5,
                   "d": 2, "n_step": 1, "n_agents": 16},
        "n_agents_grid": [1, 2, 4, 8, 16],
        "sync_periods": [1],
        "alpha_grid": [0.1],
        "horizon": 3000,
        "replications": 2,
        "master_seed": seed,
    }]


def _sync_period_q(seed: int) -> list[dict]:
    # The paper's sync-period experiment with Q-learning: the barrier is
    # amortised over 4-64 steps in three of four cells, so chain sampling and
    # the Q operators dominate; stride-16 checkpoints load recording and persist.
    return [{
        "name": "sync_period_q",
        "kind": "q_learning",
        "params": {"n_states": 4, "n_actions": 2, "branching": 2, "gamma": 0.6,
                   "d": 2, "n_step": 1, "n_agents": 8},
        "n_agents_grid": [8],
        "sync_periods": [1, 4, 16, 64],
        "alpha_grid": [0.3],
        "horizon": 1024,
        "replications": 2,
        "master_seed": seed,
        "checkpoint_stride": 16,
    }]


def _large_instances(seed: int) -> list[dict]:
    # Hundreds of states and short horizons: set-up dominates. Linear-FA
    # theory constants cost O(S^2) 2-norms per call; Q-learning instances pay
    # one dense (S*A)^2 eigen-solve per agent in the mixing diagnostics.
    return [
        {
            "name": "large_lfa",
            "kind": "on_policy_td_lfa",
            "params": {"n_states": 200, "n_actions": 2, "branching": 3, "gamma": 0.8,
                       "d": 4, "n_step": 1, "n_agents": 4},
            "n_agents_grid": [1, 4],
            "sync_periods": [4],
            "alpha_grid": [0.1],
            "horizon": 400,
            "replications": 1,
            "master_seed": seed,
        },
        {
            "name": "large_q",
            "kind": "q_learning",
            "params": {"n_states": 200, "n_actions": 2, "branching": 3, "gamma": 0.8,
                       "d": 2, "n_step": 1, "n_agents": 16},
            "n_agents_grid": [1, 4, 16],
            "sync_periods": [8],
            "alpha_grid": [0.1],
            "horizon": 200,
            "replications": 1,
            "master_seed": seed,
        },
    ]


WORKLOADS = {
    "speedup_td": _speedup_td,
    "sync_period_q": _sync_period_q,
    "large_instances": _large_instances,
}


def specs(workload: str, seed: int) -> list[dict]:
    """The spec dicts of one workload at one seed."""
    return WORKLOADS[workload](int(seed))
