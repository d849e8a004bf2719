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


def stream(master_seed: int, *ids: int) -> np.random.Generator:
    """Counter-based generator for the (master_seed, *ids) key."""
    seq = np.random.SeedSequence(entropy=(int(master_seed),) + tuple(int(i) for i in ids))
    return np.random.Generator(np.random.Philox(seq))


class AgentChain:
    """One agent's Markov trajectory, read as a sliding window of n transitions.

    Holds the last n+1 states and n actions (S_t..S_{t+n}, A_t..A_{t+n-1}) as
    immutable tuples. Construction draws S_0 ~ xi and n warm-up transitions.
    `walk(k)` is the one walk: block kernels call it and keep only their
    arithmetic, and `step` (the noise process) and `steps` are built on it.
    A transition draws two uniforms from `rng`, the action's, then the next
    state's, each inverted with `bisect_right` against a row of the pinned
    tables that the MDP and the policy build once and share.
    """

    def __init__(self, mdp: Mdp, behavior: Policy, xi: np.ndarray, n: int,
                 rng: np.random.Generator, agent_id: int = 0):
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
        self.walk(n)  # until it holds n transitions, the window grows

    def walk(self, k: int) -> tuple[list[int], list[int]]:
        """The current window followed by k new transitions, as (states, actions)
        lists, so step j's window is states[j:j+n+1], actions[j:j+n]. The 2k
        uniforms come from one draw, the same doubles as 2k single draws; the
        chain is left on the last window."""
        u = self.rng.random(2 * k).tolist()
        n_actions, n_states = self.n_actions, self.n_states
        policy_cdf, trans_cdf = self.policy_cdf, self.trans_cdf
        states, actions = [*self.states], [*self.actions]
        s = states[-1]
        for j in range(0, 2 * k, 2):  # u[j] picks the action, u[j + 1] the next state
            lo = s * n_actions
            a = bisect_right(policy_cdf, u[j], lo, lo + n_actions) - lo
            lo = (lo + a) * n_states
            s = bisect_right(trans_cdf, u[j + 1], lo, lo + n_states) - lo
            actions.append(a)
            states.append(s)
        n = self.n_step
        self.states, self.actions = tuple(states[-n - 1:]), tuple(actions[len(actions) - n:])
        return states, actions

    def step(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The current (states, actions) window; the chain then advances."""
        window = (self.states, self.actions)
        self.walk(1)
        return window

    def steps(self, k: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The windows of k `step()` calls, from one `walk(k)`."""
        states, actions = self.walk(k)
        n = self.n_step
        return [(tuple(states[j:j + n + 1]), tuple(actions[j:j + n])) for j in range(k)]


def policy_rows(behaviors: list[Policy]) -> np.ndarray:
    """The behaviors' pinned action tables one after another, agent i's row s
    at i S + s: the table `ChainRows` inverts actions against."""
    return np.concatenate([np.frombuffer(b.cdf) for b in behaviors])


class ChainRows:
    """Chains of one MDP walked together, one per row, as `AgentChain.walk`
    walks each alone: each row keeps its chain's stream and draw order, and
    draws up to LOOKAHEAD steps' uniforms with one `rng.random(out=row)`.
    Each step inverts every row's two uniforms at once, against the behavior
    set's `policy_rows` and a view of the kernel table. The walk runs ahead
    of the estimates, at most to the horizon; the chains are not written.
    """

    LOOKAHEAD = 256

    def __init__(self, chains: list[AgentChain], policy_table: np.ndarray, horizon: int):
        first = chains[0]
        self.n_states, self.n_actions = first.n_states, first.n_actions
        self.policy_cdf, self.trans_cdf = policy_table, np.frombuffer(first.trans_cdf)
        self.rngs = [chain.rng for chain in chains]
        self.states = np.array([chain.states for chain in chains], dtype=np.intp).T
        self.actions = np.array([chain.actions for chain in chains],
                                dtype=np.intp).reshape(len(chains), first.n_step).T
        self.policy_base = np.array([chain.agent_id for chain in chains]) * self.n_states
        self.left = horizon

    def walk_ahead(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' current windows followed by their next k = min(LOOKAHEAD,
        steps left) transitions, as (states, actions) arrays of shapes
        (n+1+k, rows) and (n+k, rows): step j's windows are states[j:j+n+1]
        and actions[j:j+n]. The rows are left on their last windows."""
        k = min(self.LOOKAHEAD, self.left)
        self.left -= k
        n_rows, n, n_states, n_actions = len(self.rngs), len(self.actions), self.n_states, self.n_actions
        draws = np.empty((n_rows, 2 * k))
        for rng, row in zip(self.rngs, draws):
            rng.random(out=row)
        draws = draws.T.copy()  # step j reads rows 2j (action) and 2j + 1 (next state)
        states = np.empty((n + 1 + k, n_rows), dtype=np.intp)
        actions = np.empty((n + k, n_rows), dtype=np.intp)
        states[:n + 1], actions[:n] = self.states, self.actions
        s = states[n]
        for j in range(k):
            a = actions[n + j] = invert_rows(self.policy_cdf, n_actions, self.policy_base + s, draws[2 * j])
            s = states[n + 1 + j] = invert_rows(self.trans_cdf, n_states, s * n_actions + a, draws[2 * j + 1])
        self.states, self.actions = states[k:].copy(), actions[k:].copy()
        return states, actions


def invert_rows(table: np.ndarray, width: int, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """bisect_right(table, u[i], lo, lo + width) - lo, lo = rows[i] * width, for
    every i, over a flat pinned table (`mdp.cdf_table`), by binary lifting.

    The entries <= u < 1 of a pinned row are a prefix of its first m entries,
    m = width - 1. A probe at the largest power of two p <= m puts the
    prefix's end in [0, p) or [m - p + 1, m]; lifting by p/2, ..., 1 finds it.
    """
    m = width - 1
    pos = start = rows * width
    if not m:
        return pos - start
    step = 1 << (m.bit_length() - 1)
    jump = m + 1 - step
    while step > 1:
        pos = pos + (table[pos + (step - 1)] <= u) * jump
        step = jump = step >> 1
    return pos + (table[pos] <= u) - start  # the last probe, with a jump of 1


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
