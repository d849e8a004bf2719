"""Criterion 5 draws its noise averages and paired chain states in arrays and
long walks; these tests hold them to the per-sample loops they replace, float
for float, at a seed other than the suite's and at both `validate` sizes."""

import numpy as np
import pytest

from fedsam.mdp import Policy
from fedsam.sampling import TAG_NOISE, AgentChain, stream
from fedsam.validation import _noise_averages, _thinned_pair_counts, _two_state_sticky_mdp

SEED = 7  # not validation.DEFAULT_SEED


def per_sample_noise_average(seed: int, n_agents: int, samples: int) -> float:
    """E|(1/N) sum_i b_i|, one clipped normal per agent and sample, summed as drawn."""
    rngs = [stream(seed, TAG_NOISE, 1000 + i) for i in range(n_agents)]
    total = 0.0
    for _ in range(samples):
        acc = 0.0
        for rng in rngs:
            acc += float(np.clip(rng.normal(), -4.0, 4.0))
        total += abs(acc / n_agents)
    return total / samples


def per_sample_pair_counts(seed: int, samples: int, thin: int) -> np.ndarray:
    """The 2x2 table of both chains' states after each thin more steps, one sample at a time."""
    mdp, policy, xi = _two_state_sticky_mdp(), Policy(np.ones((2, 1))), np.array([0.5, 0.5])
    chains = [AgentChain(mdp, policy, xi, 1, stream(seed, 34, i), i) for i in range(2)]
    for chain in chains:
        chain.walk(200)
    counts = np.zeros((2, 2))
    for _ in range(samples):
        for chain in chains:
            chain.walk(thin)
        counts[chains[0].states[0], chains[1].states[0]] += 1
    return counts


def test_noise_averages_equal_the_per_sample_loop():
    # `validate` draws 10,000 samples at both sizes
    estimates = _noise_averages(SEED, 10_000)
    assert estimates == {n: per_sample_noise_average(SEED, n, 10_000) for n in (1, 4, 16)}


@pytest.mark.parametrize("samples", [20_000, 100_000])  # `validate --fast`, `validate`
def test_pair_counts_equal_the_per_sample_loop(samples):
    counts = _thinned_pair_counts(SEED, samples, thin=25)
    assert counts.sum() == samples
    assert np.array_equal(counts, per_sample_pair_counts(SEED, samples, thin=25))


@pytest.mark.parametrize("thin", [1, 3])
def test_pair_counts_take_every_thin_th_state(thin):
    # chunks of 4096 samples: the last one is short, and thin=1 reads each state
    assert np.array_equal(_thinned_pair_counts(SEED, 5000, thin), per_sample_pair_counts(SEED, 5000, thin))
