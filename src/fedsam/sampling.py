"""Markovian trajectory generation and mixing-rate diagnostics.

Each agent owns a seeded counter-based random stream (Philox), derived by
hashing (master seed, tag, agent id, ...) through numpy's SeedSequence, so
trajectories are reproducible and independent of worker scheduling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, Policy, cdf_table, eigen_moduli, stationary_distribution

# Stream tags keep the independent random streams of one run disjoint.
TAG_NOISE = 1
TAG_OUTPUT_TIME = 2
TAG_PROBE = 3


def stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Counter-based generator for the (master_seed, *ids) key."""
    seq = np.random.SeedSequence(entropy=(int(master_seed),) + tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(seq))


class AgentChain:
    """One agent's Markov trajectory, read as a sliding window of n transitions.

    Holds the last n+1 states and n actions (S_t..S_{t+n}, A_t..A_{t+n-1}) as
    tuples. Construction draws S_0 ~ xi and n warm-up transitions; `advance`
    samples one more transition and shifts the window, and `step` is the noise
    process: it returns the current window, then advances. Windows are
    immutable, so callers may hold them across steps.

    Every draw is one uniform from `rng`, inverted against a row of the
    cumulative tables that the MDP and the policy build once and share
    (`bisect_right` there equals `np.searchsorted(side="right")`). A block
    kernel may walk the chain itself: it reads `rng`, `n_states`, `n_actions`,
    `policy_cdf` and `trans_cdf`, and writes back `states` and `actions`.
    """

    def __init__(
        self,
        mdp: Mdp,
        behavior: Policy,
        xi: np.ndarray,
        n: int,
        rng: np.random.Generator,
        agent_id: int = 0,
    ):
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (mdp.n_states,) or np.any(xi < 0) or abs(xi.sum() - 1.0) > 1e-12:
            raise ValueError("xi must be a probability distribution over states")
        if behavior.probs.shape != (mdp.n_states, mdp.n_actions):
            raise ValueError("behavior policy shape does not match the MDP")
        self.agent_id = agent_id
        self.rng = rng
        self.n_step = n
        self.n_states = mdp.n_states
        self.n_actions = mdp.n_actions
        self.policy_cdf = behavior.cdf
        self.trans_cdf = mdp.transition_cdf
        self.states: tuple[int, ...] = (bisect_right(cdf_table(xi), rng.random()),)
        self.actions: tuple[int, ...] = ()
        for _ in range(n):
            self.advance()

    def _walk(self, state: int, u_action: float, u_state: float) -> tuple[int, int]:
        """Invert two uniforms into A ~ behavior(.|state) and S' ~ P(.|state, A)."""
        n_actions, n_states = self.n_actions, self.n_states
        lo = state * n_actions
        a = bisect_right(self.policy_cdf, u_action, lo, lo + n_actions) - lo
        lo = (lo + a) * n_states
        return a, bisect_right(self.trans_cdf, u_state, lo, lo + n_states) - lo

    def advance(self) -> tuple[int, int]:
        """Sample A ~ behavior(.|S_newest), S' ~ P(.|S_newest, A) and shift.

        Until the window holds n transitions it grows instead of shifting.
        Returns the newest (action, state) pair.
        """
        a, s_next = self._walk(self.states[-1], self.rng.random(), self.rng.random())
        drop = 1 if len(self.states) > self.n_step else 0
        self.states = self.states[drop:] + (s_next,)
        if self.n_step:
            self.actions = self.actions[drop:] + (a,)
        return a, s_next

    def step(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The current (states, actions) window; the chain then advances."""
        window = (self.states, self.actions)
        self.advance()
        return window

    def steps(self, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The windows of k `step()` calls, from one draw of their 2k uniforms.

        Leaves the chain and its generator as those k calls would: the
        generator yields the same doubles one at a time or as one array. The
        window is full after construction, so every step shifts it.
        """
        u = self.rng.random(2 * k).tolist()
        walk, keep_actions = self._walk, self.n_step > 0
        states, actions = self.states, self.actions
        windows = []
        for j in range(0, 2 * k, 2):
            windows.append((states, actions))
            a, s_next = walk(states[-1], u[j], u[j + 1])
            states = states[1:] + (s_next,)
            if keep_actions:
                actions = actions[1:] + (a,)
        self.states, self.actions = states, actions
        return windows


def pad_cdf(cdf: np.ndarray) -> np.ndarray:
    """Pinned CDF rows (see `mdp.cdf_table`) as a 2-D array, padded with 1.0 to
    a power-of-two width: the table `invert_rows` reads."""
    width = 1 << (cdf.shape[1] - 1).bit_length()
    return np.pad(cdf, ((0, 0), (0, width - cdf.shape[1])), constant_values=1.0)


def invert_rows(padded: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """bisect_right(cdf[rows[i]], u[i]) for every i, by binary lifting.

    `padded` is `pad_cdf(cdf)`. The entries before a pinned row's last are
    nondecreasing, its last is 1.0 and so is its padding, and u < 1: the
    entries <= u are a prefix of the padded row, and the search for the end
    of that prefix is bisect_right's.
    """
    width = padded.shape[1]
    flat = padded.reshape(-1)
    start = rows * width
    pos = start
    step = width >> 1
    while step > 1:
        pos = pos + (flat[pos + (step - 1)] <= u) * step
        step >>= 1
    if step:
        pos = pos + (flat[pos] <= u)
    return pos - start


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@dataclass(frozen=True)
class MixingEstimate:
    """Geometric mixing parameters of an ergodic chain.

    rho is the second-largest eigenvalue modulus; m_bar calibrates the
    total-variation prefactor at t=1 so that TV(t) <~ m_bar * rho^t.
    """

    rho: float
    m_bar: float

    def tau_alpha(self, alpha: float) -> int:
        return tau_alpha(self.rho, alpha)


def tau_alpha(rho: float, alpha: float) -> int:
    """Steps after which the mixing residual is O(alpha): ceil(2 ln a / ln rho).

    Non-decreasing in rho, so an upper bound on rho gives an upper bound on tau.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if rho == 0.0:
        return 1  # chain mixes in a single step
    return int(math.ceil(2.0 * math.log(alpha) / math.log(rho)))


def mixing_diagnostics(p_pi: np.ndarray, *, mu=None, moduli=None, rows=None) -> MixingEstimate:
    """Spectral mixing estimate for a row-stochastic matrix.

    A caller that has them passes the `eigen_moduli` of p_pi and the mu that
    `stationary_distribution(p_pi, moduli)` returned (which also rejects
    chains with rho near 1). `rows` replaces p_pi's rows in the
    total-variation prefactor, for a chain with p_pi's nonzero spectrum whose
    total variation at t=1 is that of `rows` from mu (the Q-learning (s, a)
    chain, see `AlgorithmInstance`).
    """
    p_pi = np.asarray(p_pi, dtype=float)
    if moduli is None:
        moduli = eigen_moduli(p_pi)
    if mu is None:
        mu = stationary_distribution(p_pi, moduli)
    rho = float(moduli[1]) if len(moduli) > 1 else 0.0
    if rho < 1e-15:
        rho = 0.0
    rows = p_pi if rows is None else rows
    tv_at_1 = 0.5 * float(np.abs(rows - mu).sum(axis=1).max())
    m_bar = tv_at_1 / rho if rho > 0.0 else 0.0
    return MixingEstimate(rho=rho, m_bar=m_bar)
