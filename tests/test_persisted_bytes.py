"""Byte-identity gate: the persisted meta / results / series files of one small
sweep per algorithm kind, pinned by sha256, at one and at two workers.

A change to these digests is a change to the output contract; it must be
deliberate and recorded together with the bytes that moved and why.
"""

import hashlib

import pytest

from fedsam.algorithms import OFF_POLICY_TD_TABULAR, ON_POLICY_TD_LFA, Q_LEARNING
from fedsam.harness import ExperimentSpec, persist, sweep

SPECS = {
    ON_POLICY_TD_LFA: {
        "params": {"n_states": 5, "n_actions": 2, "branching": 3, "gamma": 0.7,
                   "d": 2, "n_step": 2, "n_agents": 4},
        "n_agents_grid": [1, 2, 4],
        "sync_periods": [1, 4],
        "alpha_grid": [0.05],
        "horizon": 120,
        "replications": 2,
        "master_seed": 31,
        "checkpoint_stride": 10,
    },
    OFF_POLICY_TD_TABULAR: {
        "params": {"n_states": 4, "n_actions": 2, "branching": 2, "gamma": 0.6,
                   "d": 2, "n_step": 3, "n_agents": 4},
        "n_agents_grid": [1, 2, 4],
        "sync_periods": [1, 4],
        "alpha_grid": [0.1],
        "horizon": 120,
        "replications": 2,
        "master_seed": 32,
        "checkpoint_stride": 10,
    },
    Q_LEARNING: {
        "params": {"n_states": 4, "n_actions": 2, "branching": 2, "gamma": 0.6,
                   "d": 2, "n_step": 1, "n_agents": 4},
        "n_agents_grid": [1, 2, 4],
        "sync_periods": [1, 4],
        "alpha_grid": [0.2],
        "horizon": 120,
        "replications": 2,
        "master_seed": 33,
        "checkpoint_stride": 10,
    },
}

# sha256 of (meta, results, series) per kind, taken before the sampler,
# engine and sweep set-up were reduced to one path each.
DIGESTS = {
    ON_POLICY_TD_LFA: (
        "c73a91dd81553be29c7221f20a1f98216db2c3a988c2a1fd566ba8c6381fb879",
        "375b780b6f98e759e972c0b67ed87260917ffcd8b66688dcb024726921aeb440",
        "44f124f60adf6ee3764a794d343ade0ce3e5a42eb1201a84bf9d7d9bec6d3d98",
    ),
    OFF_POLICY_TD_TABULAR: (
        "fc2d370fa3c1b361d6abe6d12ce1cab375abe27c4c8a9bb6b3bf89a36071c390",
        "f7a1f997cd74d33bff137b652fa91dc18bbb65943cd8f03d70e09fe89da4ca9f",
        "8231e832cae4fb0a585bf59246a0e0ee977498bd23edfc3eadbd54d6173c7c4d",
    ),
    Q_LEARNING: (
        "5bc9f8affabbf5d1efe696211e13742c66178b9547ffec1e047871725cb7aa12",
        "cffc0d6deef7c65e974d00ad8d2c0b443c5581b64e784cc674285951ec343cdf",
        "dd13d9deeeaf5dee2d26b248570eb668bf0a5a7489f66d0a9d4bdaf7c1fe53c8",
    ),
}


def persisted_digests(kind: str, workers: int, out_dir) -> tuple[str, str, str]:
    spec = ExperimentSpec.from_dict({"name": f"bytes_{kind}", "kind": kind, **SPECS[kind]})
    paths = persist(sweep(spec, workers=workers), out_dir)
    return tuple(
        hashlib.sha256(paths[key].read_bytes()).hexdigest() for key in ("meta", "results", "series")
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(SPECS))
def test_persisted_bytes_match_pinned_digests(kind, workers, tmp_path):
    assert persisted_digests(kind, workers, tmp_path) == DIGESTS[kind]
