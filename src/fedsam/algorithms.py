"""The three federated RL algorithms as instances of the generic loop.

Each algorithm exists in two equivalent forms: the raw production update on
the estimate itself (value vector, tabular value function, or Q-table), and
the shifted form theta = estimate - fixed point that plugs into the engine,
where zero is the common fixed point. `build_problem` emits the shifted
form; the raw updates below are what a deployment would run and are kept for
cross-checking the reduction.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from operator import add

import numpy as np

from .engine import NORM_L2, NORM_SUP, FedSamProblem
from .mdp import (
    FeatureMatrix,
    Mdp,
    PickledWithoutCaches,
    Policy,
    certified_stationary,
    eigen_moduli,
    importance_ratio,
    importance_ratio_max,
    importance_ratio_table,
    policy_transition_matrix,
    projected_fixed_point_oracle,
    q_star_oracle,
    stationary_distribution,
    value_function_oracle,
)
from .errors import DivergenceError, ErgodicityError
from .sampling import AgentChain, ChainRows, MixingEstimate, mixing_diagnostics, policy_rows, start_table

ON_POLICY_TD_LFA = "on_policy_td_lfa"
OFF_POLICY_TD_TABULAR = "off_policy_td_tabular"
Q_LEARNING = "q_learning"
KINDS = (ON_POLICY_TD_LFA, OFF_POLICY_TD_TABULAR, Q_LEARNING)

_BETA_MARGIN = 0.01


# ---------------------------------------------------------------------------
# Raw production updates
# ---------------------------------------------------------------------------

def onpolicy_td_update(
    v: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    features: FeatureMatrix,
    mdp: Mdp,
    alpha: float,
) -> np.ndarray:
    """Multi-step TD update of the weight vector under linear features.

    v' = v + a * phi(S_t) * sum_l gamma^{l-t} (R_l + gamma phi(S_{l+1})'v - phi(S_l)'v).
    """
    phi = features.phi
    if v.shape != (phi.shape[1],):
        raise ValueError(f"weight vector has dim {v.shape}, features expect ({phi.shape[1]},)")
    n = len(actions)
    gamma = mdp.gamma
    acc = 0.0
    g_pow = 1.0
    for l in range(n):
        s, a, s2 = int(states[l]), int(actions[l]), int(states[l + 1])
        acc += g_pow * (mdp.reward[s, a] + gamma * (phi[s2] @ v) - (phi[s] @ v))
        g_pow *= gamma
    return v + alpha * acc * phi[int(states[0])]


def offpolicy_td_update(
    values: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    target: Policy,
    behavior: Policy,
    mdp: Mdp,
    alpha: float,
) -> np.ndarray:
    """Tabular n-step TD update reweighted by the running importance product.

    Only the entry at S_t changes; all other states keep their value.
    """
    out = values.copy()
    gamma = mdp.gamma
    acc = 0.0
    g_pow = 1.0
    ratio_prod = 1.0
    for l in range(len(actions)):
        s, a, s2 = int(states[l]), int(actions[l]), int(states[l + 1])
        ratio_prod *= importance_ratio(target, behavior, s, a)
        acc += g_pow * ratio_prod * (mdp.reward[s, a] + gamma * values[s2] - values[s])
        g_pow *= gamma
    out[int(states[0])] += alpha * acc
    return out


def q_learning_update(
    q: np.ndarray, s: int, a: int, s_next: int, mdp: Mdp, alpha: float
) -> np.ndarray:
    """One-transition Q-table update; only entry (s, a) changes."""
    out = q.copy()
    out[s, a] += alpha * (mdp.reward[s, a] + mdp.gamma * q[s_next].max() - q[s, a])
    return out


# ---------------------------------------------------------------------------
# Algorithm instances
# ---------------------------------------------------------------------------

@dataclass
class AlgorithmInstance:
    """A concrete problem: environment, policies, features, and its oracle.

    Derived fields (fixed point, per-agent stationary distributions and
    certified mixing bounds, beta) are computed once at construction; treat
    instances as immutable afterwards. The exact mixing estimates are solved
    when `agent_mixing` or `mixing` is first read. The fixed point and beta
    depend on (mdp, target) only, so `harness.sub_instance` restricts an
    instance by slicing.
    """

    kind: str
    mdp: Mdp
    target: Policy
    behaviors: list[Policy]
    n_step: int = 1
    features: FeatureMatrix | None = None
    xi: np.ndarray | None = None
    beta: float | None = None
    fixed_point: np.ndarray = field(init=False)
    stationary: list[np.ndarray] = field(init=False)
    rho_bounds: list[float] = field(init=False)
    p_target: np.ndarray = field(init=False)
    # exact estimates by behavior bytes, filled on demand; shared by sub-instances
    _exact_mixing: dict[bytes, MixingEstimate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        if not self.behaviors:
            raise ValueError("need at least one behavior policy")
        if self.n_step < 1:
            raise ValueError("n_step must be >= 1")
        if self.kind == Q_LEARNING and self.n_step != 1:
            raise ValueError("q_learning uses single transitions (n_step must be 1)")
        if self.xi is None:
            self.xi = np.full(self.mdp.n_states, 1.0 / self.mdp.n_states)
        self.p_target = policy_transition_matrix(self.mdp, self.target)

        if self.kind == ON_POLICY_TD_LFA:
            if self.features is None:
                raise ValueError("linear function approximation needs a feature matrix")
            for b in self.behaviors:
                if not np.array_equal(b.probs, self.target.probs):
                    raise ValueError("on-policy instances must sample with the target policy")
        elif self.kind == OFF_POLICY_TD_TABULAR:
            for b in self.behaviors:
                importance_ratio_table(self.target, b)  # coverage check

        # one solve and one certificate per distinct behavior chain
        chains = {b.probs.tobytes(): b for b in self.behaviors}
        solved = {key: self._solve_chain(b) for key, b in chains.items()}
        self.stationary = [solved[b.probs.tobytes()][0] for b in self.behaviors]
        self.rho_bounds = [solved[b.probs.tobytes()][1] for b in self.behaviors]

        if self.kind == ON_POLICY_TD_LFA:
            self.fixed_point = projected_fixed_point_oracle(
                self.mdp, self.target, self.features, self.n_step, mu=self.stationary[0]
            )
        elif self.kind == OFF_POLICY_TD_TABULAR:
            self.fixed_point = value_function_oracle(self.mdp, self.target)
        else:
            # tighter than the default so the shifted noise has a vanishing
            # stationary mean well below the property tolerances
            self.fixed_point = q_star_oracle(self.mdp, residual_tol=1e-13)

        if self.kind == ON_POLICY_TD_LFA and self.beta is None:
            self.beta = select_beta(self.expected_update_matrix())

    def _solve_chain(self, behavior: Policy) -> tuple[np.ndarray, float]:
        """Stationary distribution of one behavior's chain and a bound on its rho.

        The squaring certificate (`mdp.certified_stationary`) accepts almost
        every ergodic chain without a spectrum. Any other chain is judged from
        its eigenvalues, as `stationary_distribution` judges it; if it passes,
        its second eigenvalue modulus is its bound.
        """
        p_b = policy_transition_matrix(self.mdp, behavior)
        certified = certified_stationary(p_b)
        if certified is not None:
            mu, bound = certified
        else:
            moduli = eigen_moduli(p_b)
            mu, bound = stationary_distribution(p_b, moduli), float(moduli[1])
        if self.kind == Q_LEARNING and np.any(mu[:, None] * behavior.probs <= 1e-12):
            raise ErgodicityError("stationary distribution has (near-)zero mass (s, a) pairs")
        return mu, bound

    @property
    def agent_mixing(self) -> list[MixingEstimate]:
        """Exact mixing estimate per agent; each distinct behavior is solved on
        first read, from P_b rebuilt for it rather than kept from construction.

        Q-learning's noise lives on (s, a) pairs, with kernel K = A B, where
        A[(s,a), s'] = P(s'|s,a) and B[s', (s',a')] = pi(a'|s'). By Sylvester
        its nonzero eigenvalues are those of B A = P_b, and the total variation
        from its row (s, a) to its stationary law mu(s') pi(a'|s') is that of
        P(.|s,a) from mu; so no (S A)^2 matrix is formed.
        """
        cache = self._exact_mixing
        rows = self.mdp.transition.reshape(-1, self.mdp.n_states) if self.kind == Q_LEARNING else None
        for b, mu in zip(self.behaviors, self.stationary):
            key = b.probs.tobytes()
            if key not in cache:
                p_b = policy_transition_matrix(self.mdp, b)
                cache[key] = mixing_diagnostics(p_b, mu=mu, moduli=eigen_moduli(p_b), rows=rows)
        return [cache[b.probs.tobytes()] for b in self.behaviors]

    @property
    def mixing(self) -> MixingEstimate:
        """Worst case over agents: the largest rho and the largest m_bar."""
        agent_mixing = self.agent_mixing
        return MixingEstimate(max(m.rho for m in agent_mixing), max(m.m_bar for m in agent_mixing))

    @property
    def n_agents(self) -> int:
        return len(self.behaviors)

    @property
    def dim(self) -> int:
        if self.kind == ON_POLICY_TD_LFA:
            return self.features.d
        if self.kind == OFF_POLICY_TD_TABULAR:
            return self.mdp.n_states
        return self.mdp.n_states * self.mdp.n_actions

    @property
    def norm_kind(self) -> str:
        return NORM_L2 if self.kind == ON_POLICY_TD_LFA else NORM_SUP

    def flat_fixed_point(self) -> np.ndarray:
        return np.asarray(self.fixed_point, dtype=float).reshape(-1)

    def expected_update_matrix(self) -> np.ndarray:
        """U = Phi' M (gamma^n P^n - I) Phi, the mean drift direction for LFA."""
        if self.kind != ON_POLICY_TD_LFA:
            raise ValueError("expected_update_matrix applies to linear-FA instances only")
        phi = self.features.phi
        mu = self.stationary[0]  # on-policy: every behavior is the target
        p_n = np.linalg.matrix_power(self.p_target, self.n_step)
        return phi.T @ (mu[:, None] * ((self.mdp.gamma ** self.n_step) * (p_n @ phi) - phi))


def select_beta(u_matrix: np.ndarray, margin: float = _BETA_MARGIN) -> float:
    """Smallest power of two making rho(I + U/beta) <= 1 - margin.

    Powers of two keep the 1/beta inside the operators and the beta-scaled
    engine step exactly inverse in binary floating point.
    """
    eigs = np.linalg.eigvals(u_matrix)
    for k in range(-10, 80):
        beta = 2.0 ** k
        if np.abs(1.0 + eigs / beta).max() <= 1.0 - margin:
            return beta
    raise ArithmeticError("no power-of-two beta meets the spectral-radius margin")


def spectral_radius_at_beta(instance: AlgorithmInstance, beta: float | None = None) -> float:
    """rho(I + U/beta) for the instance's mean update matrix."""
    beta = instance.beta if beta is None else beta
    eigs = np.linalg.eigvals(instance.expected_update_matrix())
    return float(np.abs(1.0 + eigs / beta).max())


# ---------------------------------------------------------------------------
# Reduction to the generic loop (shifted coordinates)
# ---------------------------------------------------------------------------

def build_problem(instance: AlgorithmInstance) -> FedSamProblem:
    """Shifted-coordinate problem: theta = estimate - fixed point.

    The operators follow the algebraic reduction of each update rule; running
    the result through the engine and adding the fixed point back reproduces
    the raw update trajectory exactly (up to float reassociation).
    """
    if instance.kind == ON_POLICY_TD_LFA:
        return LinearTdProblem(instance)
    if instance.kind == OFF_POLICY_TD_TABULAR:
        return OffPolicyTdProblem(instance)
    return QLearningProblem(instance)


class _InstanceProblem(FedSamProblem, PickledWithoutCaches):
    """An instance's FedSamProblem, with the operators and the noise as methods.

    Subclasses hold arrays and plain lists only, so a built problem pickles
    (without its cached tables, rebuilt on first use). The block kernels of
    the tabular kinds read Python floats (per-state rows as lists): the same
    doubles as the operators read, so the same bits. Their noise terms come
    from O(S A) rows, in an (s, a, s') broadcast's order. They take a block's
    trajectory from one `noise.walk(k)` and keep only their arithmetic, so
    every block, a diverged one too, leaves the chain and its generator as k
    `step()` calls would.

    Their finite guard is `FedSamProblem.run_block`'s, made cheaper: while
    every entry lies strictly inside +-finite_bound, the row's sum is finite,
    so a block of k > 1 steps that starts so checks only the entries it writes
    until one is at or beyond the bound (or NaN); then it sums the row."""

    def __init__(self, instance: AlgorithmInstance, window_n: int, norm_kind: str,
                 initial_theta: np.ndarray, step_scale: float = 1.0):
        self.mdp, self.behaviors, self.xi = instance.mdp, instance.behaviors, instance.xi
        self.window_n = window_n
        super().__init__(instance.dim, instance.n_agents, norm_kind, initial_theta, step_scale)

    def _inside_bound(self, theta: np.ndarray) -> bool:
        """Every entry strictly inside +-finite_bound (false on NaN)."""
        return float(np.maximum.reduce(np.abs(theta))) < self.finite_bound

    def make_noise(self, agent_id: int, rng: np.random.Generator) -> AgentChain:
        return AgentChain(self.mdp, self.behaviors[agent_id], None, self.window_n, rng, agent_id,
                          xi_cdf=self.xi_cdf)

    @cached_property
    def xi_cdf(self) -> array:
        """`sampling.start_table` of xi, shared by every chain of the problem."""
        return start_table(self.xi, self.mdp.n_states)

    @cached_property
    def policy_rows(self) -> np.ndarray:
        """`sampling.policy_rows` of the behaviors, for lockstep rows."""
        return policy_rows(self.behaviors)


class LinearTdProblem(_InstanceProblem):
    """On-policy n-step TD with linear features; every coordinate moves, so the
    generic update is kept."""

    def __init__(self, instance: AlgorithmInstance):
        mdp, n = instance.mdp, instance.n_step
        self.phi, self.gamma = instance.features.phi, mdp.gamma
        self.gamma_n, self.inv_beta = mdp.gamma ** n, 1.0 / float(instance.beta)
        # phi(s)'v_pi per state, each the same dot the operator used to take
        self.phi_v = [self.phi[s] @ instance.fixed_point for s in range(mdp.n_states)]
        super().__init__(instance, n, NORM_L2, -instance.fixed_point, float(instance.beta))

    def apply_g(self, _i: int, theta: np.ndarray, y) -> np.ndarray:
        states, _ = y
        phi = self.phi
        s0, sn = int(states[0]), int(states[-1])
        scale = self.gamma_n * (phi[sn] @ theta) - (phi[s0] @ theta)
        return theta + (self.inv_beta * scale) * phi[s0]

    def apply_b(self, _i: int, y) -> np.ndarray:
        states, actions = y
        gamma, reward, phi_v = self.gamma, self.mdp.reward, self.phi_v
        acc = 0.0
        g_pow = 1.0
        for l in range(self.window_n):
            s, a, s2 = int(states[l]), int(actions[l]), int(states[l + 1])
            acc += g_pow * (reward[s, a] + gamma * phi_v[s2] - phi_v[s])
            g_pow *= gamma
        return (self.inv_beta * acc) * self.phi[int(states[0])]


class OffPolicyTdProblem(_InstanceProblem):
    """Tabular n-step TD reweighted by each agent's importance ratios.

    A step moves only the entry at S_t, so `run_block` writes that entry alone.
    """

    def __init__(self, instance: AlgorithmInstance):
        mdp, v_pi = instance.mdp, instance.fixed_point
        self.gamma = mdp.gamma
        self.ratios = [importance_ratio_table(instance.target, b) for b in instance.behaviors]
        # the temporal difference at the fixed point, (r(s, a) + gamma V(s')) - V(s)
        self._td_rows = mdp.reward.tolist(), v_pi.tolist()
        self._ratio_rows = [r.tolist() for r in self.ratios]
        super().__init__(instance, instance.n_step, NORM_SUP, -v_pi)

    def apply_g(self, i: int, theta: np.ndarray, y) -> np.ndarray:
        states, actions = y
        gamma, table = self.gamma, self.ratios[i]
        out = theta.copy()
        acc = 0.0
        g_pow = 1.0
        prod = 1.0
        for l in range(self.window_n):
            s, a, s2 = int(states[l]), int(actions[l]), int(states[l + 1])
            prod *= table[s, a]
            acc += g_pow * prod * (gamma * theta[s2] - theta[s])
            g_pow *= gamma
        out[int(states[0])] += acc
        return out

    def apply_b(self, i: int, y) -> np.ndarray:
        states, actions = y
        gamma, table, (reward, v_pi) = self.gamma, self.ratios[i], self._td_rows
        out = np.zeros(self.dim)
        acc = 0.0
        g_pow = 1.0
        prod = 1.0
        for l in range(self.window_n):
            s, a, s2 = int(states[l]), int(actions[l]), int(states[l + 1])
            prod *= table[s, a]
            acc += g_pow * prod * ((reward[s][a] + gamma * v_pi[s2]) - v_pi[s])
            g_pow *= gamma
        out[int(states[0])] = acc
        return out

    def run_block(self, i: int, theta: np.ndarray, noise: AgentChain, t_start: int,
                  t_stop: int, alpha: float) -> np.ndarray:
        """`FedSamProblem.run_block` on `noise.walk(k)`: each step is the generic
        step at S_t, with apply_g's and apply_b's sums taken in one pass."""
        k = t_stop - t_start
        states, actions = noise.walk(k)
        n = self.window_n
        gamma, table, item, reward, v_pi = self.gamma, self._ratio_rows[i], theta.item, *self._td_rows
        watch, bound = k > 1 and self._inside_bound(theta), self.finite_bound
        for j, t in enumerate(range(t_start, t_stop)):
            # the first transition's weight is ratio(S_t, A_t) exactly, and 0.0 + x
            # is the generic sums' first addition (it turns -0.0 into 0.0)
            s0, a, s2 = states[j], actions[j], states[j + 1]
            prod = table[s0][a]
            th = item(s0)
            acc_g = 0.0 + prod * (gamma * item(s2) - th)
            acc_b = 0.0 + prod * ((reward[s0][a] + gamma * v_pi[s2]) - v_pi[s0])
            g_pow = gamma
            for l in range(j + 1, j + n):
                s, a, s2 = states[l], actions[l], states[l + 1]
                prod *= table[s][a]
                weight = g_pow * prod
                acc_g += weight * (gamma * item(s2) - item(s))
                acc_b += weight * ((reward[s][a] + gamma * v_pi[s2]) - v_pi[s])
                g_pow *= gamma
            v = th + alpha * (((th + acc_g) - th) + acc_b)
            theta[s0] = v
            if not (watch and -bound < v < bound):
                watch = False
                if not math.isfinite(np.add.reduce(theta)):
                    raise DivergenceError(t, i)
        return theta


class QLearningProblem(_InstanceProblem):
    """Tabular Q-learning on single transitions.

    A step moves only the entry (S_t, A_t), so `run_block` writes that entry
    alone. A batch of at least `lockstep_min_rows` rows runs as
    `QLearningRows` instead: below that, the per-step numpy calls cost more
    than the scalar kernel's steps.
    """

    lockstep_min_rows = 16

    def __init__(self, instance: AlgorithmInstance):
        mdp, q_star = instance.mdp, instance.fixed_point
        self.gamma, self.n_actions = mdp.gamma, mdp.n_actions
        self.q_star = q_star
        self.gamma_q_max = mdp.gamma * q_star.max(axis=1)
        # b at (s, a, s') is (r(s, a) + gamma max Q*(s')) - Q*(s, a)
        self._reward_rows = mdp.reward.tolist()
        self._q_rows, self._gamma_q_max = q_star.tolist(), self.gamma_q_max.tolist()
        super().__init__(instance, 1, NORM_SUP, -q_star.reshape(-1))

    def apply_g(self, _i: int, theta: np.ndarray, y) -> np.ndarray:
        states, actions = y
        n_actions = self.n_actions
        s, a, s2 = int(states[0]), int(actions[0]), int(states[1])
        out = theta.copy()
        shifted_max = (theta[s2 * n_actions:(s2 + 1) * n_actions] + self.q_star[s2]).max()
        out[s * n_actions + a] += self.gamma * shifted_max - theta[s * n_actions + a] - self.gamma_q_max[s2]
        return out

    def apply_b(self, _i: int, y) -> np.ndarray:
        states, actions = y
        s, a, s2 = int(states[0]), int(actions[0]), int(states[1])
        out = np.zeros(self.dim)
        out[s * self.n_actions + a] = (self._reward_rows[s][a] + self._gamma_q_max[s2]) - self._q_rows[s][a]
        return out

    def run_block(self, i: int, theta: np.ndarray, noise: AgentChain, t_start: int,
                  t_stop: int, alpha: float) -> np.ndarray:
        """`FedSamProblem.run_block` on `noise.walk(k)`: each step is the generic
        step at (S_t, A_t), without the full-vector temporaries."""
        k = t_stop - t_start
        states, actions = noise.walk(k)
        n_actions, gamma, q_rows, gamma_q_max = self.n_actions, self.gamma, self._q_rows, self._gamma_q_max
        reward, item = self._reward_rows, theta.item
        watch, bound = k > 1 and self._inside_bound(theta), self.finite_bound
        for t, s, a, s2 in zip(range(t_start, t_stop), states, actions, states[1:]):
            lo = s2 * n_actions
            shifted_max = max(map(add, theta[lo:lo + n_actions].tolist(), q_rows[s2]))
            idx = s * n_actions + a
            th = item(idx)
            acc = gamma * shifted_max - th - gamma_q_max[s2]
            v = th + alpha * (((th + acc) - th) + ((reward[s][a] + gamma_q_max[s2]) - q_rows[s][a]))
            theta[idx] = v
            if not (watch and -bound < v < bound):
                watch = False
                if not math.isfinite(np.add.reduce(theta)):
                    raise DivergenceError(t, i)
        return theta

    def lockstep(self, chains: list[AgentChain], horizon: int) -> "QLearningRows":
        return QLearningRows(self, chains, horizon)


class LockstepRows:
    """The chains of a lockstep batch, one per row, walked ahead together as
    `sampling.ChainRows`. A kind gives only `_gather`, which gathers what the
    next lookahead's steps read and returns their count, and `step`, which
    takes lookahead step `j` on every row and returns the entries it wrote."""

    def __init__(self, problem: _InstanceProblem, chains: list[AgentChain], horizon: int):
        self.walker = ChainRows(chains, problem.policy_rows, horizon)
        self.bound, self.n_agents = problem.finite_bound, problem.n_agents
        self.watch = np.zeros(len(chains), dtype=bool)  # per row: inside +-bound, so its sum is finite
        self.watched = False  # every row is watched
        self.j = self.k = 0

    def run(self, thetas: np.ndarray, t: int, t_stop: int, alpha: float) -> list[tuple[int, int]]:
        """Step every row of thetas from t to t_stop in place; returns the (step,
        row) of each row's first step whose isfinite(np.add.reduce(row)) fails.
        A watched row's written entries are checked, a row not watched is summed."""
        bound, watch = self.bound, self.watch
        failed: dict[int, int] = {}
        for step in range(t, t_stop):
            if self.j == self.k:
                self.j, self.k = 0, self._gather()
            v = self.step(thetas, alpha)
            self.j += 1
            if self.watched and np.maximum.reduce(np.abs(v)) < bound:  # false on NaN
                continue
            self.watched = False
            watch &= np.abs(v) < bound
            summed = np.flatnonzero(~watch)
            for row in summed[~np.isfinite(np.add.reduce(thetas[summed], axis=1))].tolist():
                failed.setdefault(row, step)
        return [(step, row) for row, step in failed.items()]

    def synced(self, trials, means: np.ndarray) -> None:
        """The agent rows of `trials` (a slice or an index array) were set to
        their `means`, at the start or by a barrier whose sums may overflow."""
        if self.watched and np.maximum.reduce(np.abs(means), axis=None) < self.bound:
            return  # false on NaN
        inside = np.maximum.reduce(np.abs(means), axis=1) < self.bound
        self.watch.reshape(-1, self.n_agents)[trials] = inside[:, None]
        self.watched = bool(self.watch.all())


class QLearningRows(LockstepRows):
    """`step` applies `QLearningProblem.run_block`'s arithmetic, elementwise in
    the same order; `np.where(c > m, c, m)` is Python's `max`."""

    def __init__(self, problem: QLearningProblem, chains: list[AgentChain], horizon: int):
        super().__init__(problem, chains, horizon)
        self.n_actions, self.gamma = problem.n_actions, problem.gamma
        self.q_star, self.gamma_q_max = problem.q_star, problem.gamma_q_max
        self.reward_flat, self.q_flat = problem.mdp.reward.reshape(-1), problem.q_star.reshape(-1)
        self.row_off = np.arange(len(chains)) * problem.dim

    def _gather(self) -> int:
        """Walk every row ahead; gather what its next k steps read; returns k."""
        states, actions = self.walker.walk_ahead()
        k, n_actions = len(actions) - 1, self.n_actions
        sa_steps, s2_steps = states[:k] * n_actions + actions[:k], states[1:k + 1]
        self.written = self.row_off + sa_steps
        self.next_row = (self.row_off + s2_steps * n_actions)[..., None] + np.arange(n_actions)
        self.q_next = self.q_star[s2_steps]
        self.gamma_q_next = self.gamma_q_max[s2_steps]
        self.b = (self.reward_flat[sa_steps] + self.gamma_q_next) - self.q_flat[sa_steps]
        return k

    def step(self, thetas: np.ndarray, alpha: float) -> np.ndarray:
        """Lookahead step j of every row of thetas, written in place; returns the written entries."""
        j = self.j
        flat = thetas.reshape(-1)
        candidates = flat[self.next_row[j]]
        candidates += self.q_next[j]
        shifted_max = candidates[:, 0]
        for a in range(1, self.n_actions):
            c = candidates[:, a]
            shifted_max = np.where(c > shifted_max, c, shifted_max)
        idx = self.written[j]
        th = flat[idx]
        acc = self.gamma * shifted_max - th - self.gamma_q_next[j]
        v = th + alpha * (((th + acc) - th) + self.b[j])
        flat[idx] = v
        return v


# ---------------------------------------------------------------------------
# Expected operators (exact, no sampling)
# ---------------------------------------------------------------------------

def expected_operator(instance: AlgorithmInstance, theta: np.ndarray, agent: int = 0) -> np.ndarray:
    """Stationary expectation of the shifted noisy operator, by matrix algebra."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (instance.dim,):
        raise ValueError(f"theta must have shape ({instance.dim},)")
    mdp = instance.mdp
    gamma = mdp.gamma

    if instance.kind == ON_POLICY_TD_LFA:
        phi = instance.features.phi
        mu = instance.stationary[agent]
        p_n = np.linalg.matrix_power(instance.p_target, instance.n_step)
        drift = (gamma ** instance.n_step) * (p_n @ (phi @ theta)) - phi @ theta
        return theta + (1.0 / instance.beta) * (phi.T @ (mu * drift))

    if instance.kind == OFF_POLICY_TD_TABULAR:
        mu = instance.stationary[agent]
        p_n = np.linalg.matrix_power(instance.p_target, instance.n_step)
        return theta + (gamma ** instance.n_step) * (mu * (p_n @ theta)) - mu * theta

    # q_learning
    n_actions = mdp.n_actions
    th = theta.reshape(mdp.n_states, n_actions)
    q_star = instance.fixed_point
    mu_sa = instance.stationary[agent][:, None] * instance.behaviors[agent].probs
    shifted_max = (th + q_star).max(axis=1)  # over a', per next state
    plain_max = q_star.max(axis=1)
    exp_next = mdp.transition @ (shifted_max - plain_max)  # (S, A)
    return (th + mu_sa * (gamma * exp_next - th)).reshape(-1)


# ---------------------------------------------------------------------------
# Theory constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoryConstants:
    """Contraction, Lipschitz, and rate constants for one instance."""

    kind: str
    gamma_c: float
    a1: float
    a2: float
    b_bound: float
    mu_min: float
    phi: float
    imax: float | None = None
    beta: float | None = None
    spectral_radius: float | None = None

    def c_out(self, alpha: float) -> float:
        """Output-sampling constant 1 - alpha*phi/2 for an engine step size alpha."""
        return 1.0 - alpha * self.phi / 2.0

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "gamma_c": self.gamma_c,
            "a1": self.a1,
            "a2": self.a2,
            "b_bound": self.b_bound,
            "mu_min": self.mu_min,
            "phi": self.phi,
        }
        if self.imax is not None:
            out["imax"] = self.imax
        if self.beta is not None:
            out["beta"] = self.beta
            out["spectral_radius"] = self.spectral_radius
        return out


def rate_constant(x: float) -> float:
    """Rate constant of the output-weighting scheme, as a function of x = 1 - gamma_c.

    phi = 1 - 0.5 e^{1/4} (2-x) / sqrt(sqrt(e) - 1 + ((2-x)/(2-2x))^2); tends
    to 0 as x -> 0 and stays real for x in [0, 1).
    """
    if not 0.0 <= x < 1.0:
        raise ValueError("x must lie in [0, 1)")
    num = 0.5 * math.exp(0.25) * (2.0 - x)
    den = math.sqrt(math.sqrt(math.e) - 1.0 + ((2.0 - x) / (2.0 - 2.0 * x)) ** 2)
    return 1.0 - num / den


def _geometric_span(factor: float, n: int) -> float:
    """sum_{l=0}^{n-1} factor^l, with the exact-n branch at factor == 1."""
    if factor == 1.0:
        return float(n)
    return (1.0 - factor ** n) / (1.0 - factor)


def td_contraction_factor(mu_min: float, gamma: float, n: int) -> float:
    """Sup-norm contraction factor of multi-step tabular TD: 1 - mu_min (1 - gamma^{n+1})."""
    return 1.0 - mu_min * (1.0 - gamma ** (n + 1))


def q_contraction_factor(mu_min: float, gamma: float) -> float:
    """Sup-norm contraction factor of Q-learning: 1 - (1 - gamma) mu_min."""
    return 1.0 - (1.0 - gamma) * mu_min


def offpolicy_td_lipschitz(imax: float, gamma: float, n: int) -> float:
    """A1 = A2 for multi-step importance-weighted TD: 1 + (1+gamma) * span(gamma*imax, n)."""
    return 1.0 + (1.0 + gamma) * _geometric_span(gamma * imax, n)


def offpolicy_td_noise_bound(imax: float, gamma: float, n: int) -> float:
    """B for multi-step importance-weighted TD: (2 imax / (1-gamma)) * span(gamma*imax, n)."""
    return (2.0 * imax / (1.0 - gamma)) * _geometric_span(gamma * imax, n)


def theory_constants(instance: AlgorithmInstance) -> TheoryConstants:
    """All rate/bound constants for the instance's assumptions.

    Tabular kinds use the closed forms; for linear FA the contraction factor
    comes from the spectral condition at the selected beta, while A1/A2/B are
    measured bounds (exact per-window enumeration over state pairs plus a
    worst-case temporal-difference bound), recorded with no theoretical claim.
    """
    mdp = instance.mdp
    gamma = mdp.gamma

    if instance.kind == OFF_POLICY_TD_TABULAR:
        mu_min = min(float(mu.min()) for mu in instance.stationary)
        if mu_min <= 0:
            raise ErgodicityError("mu_min must be positive")
        imax = importance_ratio_max(instance.target, instance.behaviors)
        lip = offpolicy_td_lipschitz(imax, gamma, instance.n_step)
        return TheoryConstants(
            kind=instance.kind,
            gamma_c=td_contraction_factor(mu_min, gamma, instance.n_step),
            a1=lip,
            a2=lip,
            b_bound=offpolicy_td_noise_bound(imax, gamma, instance.n_step),
            mu_min=mu_min,
            phi=rate_constant(mu_min * (1.0 - gamma ** (instance.n_step + 1))),
            imax=imax,
        )

    if instance.kind == Q_LEARNING:
        mu_min = min(
            float((mu[:, None] * b.probs).min())
            for mu, b in zip(instance.stationary, instance.behaviors)
        )
        if mu_min <= 0:
            raise ErgodicityError("mu_min must be positive")
        return TheoryConstants(
            kind=instance.kind,
            gamma_c=q_contraction_factor(mu_min, gamma),
            a1=2.0,
            a2=2.0,
            b_bound=2.0 / (1.0 - gamma),
            mu_min=mu_min,
            phi=rate_constant(mu_min * (1.0 - gamma)),
        )

    # linear function approximation
    mu = instance.stationary[0]
    mu_min = float(mu.min())
    if mu_min <= 0:
        raise ErgodicityError("mu_min must be positive")
    eigs = np.linalg.eigvals(instance.expected_update_matrix())
    lam_max = float(np.abs(eigs).max())
    delta = float(-np.real(eigs).max())
    if delta <= 0:
        raise ArithmeticError("mean update matrix must have strictly negative real spectrum")
    gamma_c = 1.0 - delta**2 / (8.0 * lam_max**2)
    a_bound, b_bound = _lfa_sampled_bounds(instance)
    return TheoryConstants(
        kind=instance.kind,
        gamma_c=gamma_c,
        a1=a_bound,
        a2=a_bound,
        b_bound=b_bound,
        mu_min=mu_min,
        phi=1.0 - gamma_c,
        beta=float(instance.beta),
        spectral_radius=float(np.abs(1.0 + eigs / instance.beta).max()),
    )


def _lfa_sampled_bounds(instance: AlgorithmInstance) -> tuple[float, float]:
    """Measured Lipschitz and noise bounds for the linear-FA operators.

    G(., y) is linear with matrix I + u v', u = phi(s0), v = (gamma^n phi(sn) - phi(s0)) / beta,
    so its exact Lipschitz constant per window is a 2-norm over (s0, sn) pairs.
    With x = u'v and p = |u|^2 |v|^2, d-2 singular values are 1 and the other
    two, on span{u, v}, have squares summing to 2 + 2x + p with product
    (1 + x)^2; the larger is (2 + 2x + p + sqrt(p (p + 4 + 4x))) / 2 (for d = 1
    the norm is |1 + x|). That is evaluated for all pairs from the Gram matrix;
    the pairs within 1e-9 relative of its maximum are then re-measured with
    the exact 2-norm, which gives the bound its bits. The noise bound
    multiplies the worst single-step temporal difference by the discount
    span, a valid upper bound for every window.
    """
    mdp, features, n = instance.mdp, instance.features, instance.n_step
    phi = features.phi
    gamma, beta = mdp.gamma, float(instance.beta)
    gamma_n, eye = gamma**n, np.eye(features.d)
    gram = phi @ phi.T
    sq = gram.diagonal().copy()
    x = (gamma_n * gram - sq[:, None]) / beta
    p = sq[:, None] * ((gamma_n**2 * sq - 2.0 * gamma_n * gram) + sq[:, None]) / beta**2
    del gram
    if features.d == 1:
        sigma = np.abs(1.0 + x)
    else:
        sigma = np.sqrt(0.5 * (2.0 + 2.0 * x + p + np.sqrt(np.maximum(p * (p + 4.0 + 4.0 * x), 0.0))))
    a_bound = max(
        float(np.linalg.norm(eye + np.outer(phi[s0], gamma_n * phi[sn] - phi[s0]) / beta, 2))
        for s0, sn in np.argwhere(sigma >= (1.0 - 1e-9) * sigma.max())
    )
    v_pi = instance.fixed_point
    values = phi @ v_pi
    td = mdp.reward[:, :, None] + gamma * values
    td -= values[:, None, None]
    td_max = float(np.abs(td, out=td).max())
    phi_norm_max = float(np.linalg.norm(phi, axis=1).max())
    b_bound = phi_norm_max * _geometric_span(gamma, n) * td_max / beta
    return a_bound, b_bound


# ---------------------------------------------------------------------------
# Single-node runner
# ---------------------------------------------------------------------------

def run_single_node(
    instance: AlgorithmInstance,
    alpha: float,
    horizon: int,
    rng: np.random.Generator,
    agent: int = 0,
) -> np.ndarray:
    """One agent's estimate after `horizon` steps of its update, from zero.

    Runs the kind's `run_block` on the shifted problem from theta = -fixed
    point, the raw estimate's zero start, and adds the fixed point back; the
    raw updates above give the same trajectory up to float reassociation.
    """
    problem = build_problem(instance)
    chain = problem.make_noise(agent, rng)
    theta = problem.run_block(agent, problem.initial_theta.copy(), chain, 0, horizon,
                              alpha * problem.step_scale)
    return (theta + instance.flat_fixed_point()).reshape(np.shape(instance.fixed_point))
