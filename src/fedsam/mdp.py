"""Finite MDPs, policy algebra, and exact fixed-point solvers.

Everything here is deterministic linear algebra on dense arrays; these
solvers are the ground truth that the stochastic algorithms are checked
against. Conventions: transition[s, a, s'] = P(s'|s,a), reward[s, a] in
[0, 1], policies indexed probs[s, a].
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CoverageError, ErgodicityError

ROW_SUM_TOL = 1e-12
RANK_TOL = 1e-10
ERGODIC_GAP = 1e-12
CERTIFY_SQUARINGS = 8


def _check_rows_stochastic(mat: np.ndarray, what: str) -> None:
    if np.any(mat < 0):
        raise ValueError(f"{what} has negative entries")
    row_sums = mat.sum(axis=-1)
    if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
        raise ValueError(f"{what} rows must sum to 1 within {ROW_SUM_TOL}")


def cdf_table(rows: np.ndarray) -> array:
    """Row-wise CDF with the last entry pinned to 1.0, flattened in C order.

    Row r of a table with rows of width w spans [r*w, (r+1)*w); a sampler
    inverts a uniform against it with bisect_right over that span.
    """
    cum = np.cumsum(rows, axis=-1)
    cum[..., -1] = 1.0
    table = array("d")
    table.frombytes(memoryview(cum).cast("B"))
    return table


class PickledWithoutCaches:
    """Pickles without its `cached_property` tables; a reader rebuilds each on first use."""

    def __getstate__(self) -> dict:
        cls = type(self)
        return {key: value for key, value in self.__dict__.items()
                if not isinstance(getattr(cls, key, None), cached_property)}


@dataclass(frozen=True)
class Mdp(PickledWithoutCaches):
    """Finite MDP (states, actions, kernel, bounded reward, discount)."""

    n_states: int
    n_actions: int
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S, A)
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "transition", np.asarray(self.transition, dtype=float))
        object.__setattr__(self, "reward", np.asarray(self.reward, dtype=float))
        if self.n_states < 1 or self.n_actions < 1:
            raise ValueError("n_states and n_actions must be positive")
        if self.transition.shape != (self.n_states, self.n_actions, self.n_states):
            raise ValueError(
                f"transition shape {self.transition.shape} != "
                f"({self.n_states}, {self.n_actions}, {self.n_states})"
            )
        if self.reward.shape != (self.n_states, self.n_actions):
            raise ValueError(f"reward shape {self.reward.shape} != ({self.n_states}, {self.n_actions})")
        _check_rows_stochastic(self.transition, "transition kernel")
        if np.any(self.reward < 0) or np.any(self.reward > 1):
            raise ValueError("rewards must lie in [0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    @cached_property
    def transition_cdf(self) -> array:
        """cdf_table of the kernel: row (s, a) starts at (s * n_actions + a) * n_states."""
        return cdf_table(self.transition)

    def to_json(self) -> str:
        payload = {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            "gamma": self.gamma,
            "transition": self.transition.tolist(),
            "reward": self.reward.tolist(),
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Mdp":
        data = json.loads(text)
        return cls(
            n_states=data["n_states"],
            n_actions=data["n_actions"],
            transition=np.array(data["transition"], dtype=float),
            reward=np.array(data["reward"], dtype=float),
            gamma=data["gamma"],
        )


@dataclass(frozen=True)
class Policy(PickledWithoutCaches):
    """Stochastic action-selection table probs[s, a]."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 2:
            raise ValueError("policy table must be 2-dimensional")
        _check_rows_stochastic(self.probs, "policy table")

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]

    @property
    def n_actions(self) -> int:
        return self.probs.shape[1]

    @cached_property
    def cdf(self) -> array:
        """cdf_table of the action probabilities: row s starts at s * n_actions."""
        return cdf_table(self.probs)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "Policy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))


@dataclass(frozen=True)
class FeatureMatrix:
    """Full-column-rank |S| x d feature table, one row per state."""

    phi: np.ndarray
    d: int = field(default=-1)

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        if self.phi.ndim != 2:
            raise ValueError("feature table must be 2-dimensional")
        d = self.phi.shape[1] if self.d == -1 else self.d
        object.__setattr__(self, "d", d)
        if d != self.phi.shape[1]:
            raise ValueError("d does not match feature table width")
        if d > self.phi.shape[0]:
            raise ValueError("feature dimension d must not exceed the number of states")
        if np.linalg.matrix_rank(self.phi, tol=RANK_TOL) < d:
            raise ValueError("feature table does not have full column rank")

    @classmethod
    def identity(cls, n_states: int) -> "FeatureMatrix":
        return cls(np.eye(n_states))


def policy_transition_matrix(mdp: Mdp, policy: Policy) -> np.ndarray:
    """State transition matrix induced by a policy: P[s, s'] = sum_a P(s'|s,a) pi(a|s)."""
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"({mdp.n_states}, {mdp.n_actions})"
        )
    return np.einsum("sap,sa->sp", mdp.transition, policy.probs)


def reward_under_policy(mdp: Mdp, policy: Policy) -> np.ndarray:
    """Expected one-step reward per state: r[s] = sum_a pi(a|s) R(s,a)."""
    return np.einsum("sa,sa->s", policy.probs, mdp.reward)


def eigen_moduli(mat: np.ndarray) -> np.ndarray:
    """Moduli of a square matrix's eigenvalues, largest first."""
    return np.sort(np.abs(np.linalg.eigvals(mat)))[::-1]


def _solve_stationary(p_pi: np.ndarray) -> np.ndarray:
    """mu from (P^T - I) mu = 0 with the normalization row, every entry above 1e-12."""
    n = p_pi.shape[0]
    system = p_pi.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        mu = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"stationary system is singular: {exc}") from exc
    if np.any(mu <= 1e-12):
        raise ErgodicityError("stationary distribution has (near-)zero mass states")
    return mu


def mixing_bound(p_pi: np.ndarray, mu: np.ndarray) -> float | None:
    """A certified upper bound below 1 - ERGODIC_GAP on the second eigenvalue
    modulus of a row-stochastic matrix, or None when squaring finds none.

    B = P - 1 mu^T has the spectrum of P with its eigenvalue 1 replaced by
    1 - sum(mu), whatever mu is, since P 1 = 1 (Brauer); and
    rho(B) <= ||B^t||^(1/t) for every t (Gelfand). B is squared up to
    CERTIFY_SQUARINGS times, t = 1, 2, 4, ..., and the smallest
    ||B^t||^(1/t) is returned if it is below 1 - ERGODIC_GAP. Squaring stops
    early once a bound below that no longer falls (in exact arithmetic
    ||B^2t||^(1/2t) <= ||B^t||^(1/t), so rounding has then taken over), or
    before a square could leave the normal range. Each power carries a bound
    on its rounding error, and on the row-sum defect of P, so the value bounds
    rho(P~ - 1 mu^T) in exact arithmetic for an exactly stochastic P~ whose
    rows differ from P's by P's row-sum defect. 8 n u more covers the
    rounding of a dense eigen-solver on a well-conditioned spectrum, so the
    bound is also at least the modulus `eigen_moduli` reports. mu only needs
    to be near the stationary law for the bound to be tight. None does not
    mean the chain is not ergodic.
    """
    n = p_pi.shape[0]
    finfo = np.finfo(float)
    unit = finfo.eps / 2.0
    gamma_n = n * unit / (1.0 - n * unit)  # relative error of an n-term float sum
    slack = 1.0 + 2.0 * gamma_n
    solver_slack = 8.0 * n * unit
    underflow = n * n * finfo.smallest_subnormal  # absolute error of a product's underflows

    def norm_up(mat: np.ndarray) -> float:
        return float(np.abs(mat).sum(axis=1).max()) * slack

    power = p_pi - mu[None, :]
    norm = norm_up(power)
    # ||power - B^t|| <= err: the subtraction's rounding plus the row-sum defect
    err = 2.0 * unit * norm + float(np.abs(p_pi.sum(axis=1) - 1.0).max()) * slack + gamma_n
    best = 1.0 - ERGODIC_GAP
    for k in range(CERTIFY_SQUARINGS + 1):
        bound = (norm + err) ** (0.5 ** k) * (1.0 + 4.0 * unit) + solver_slack
        if best < 1.0 - ERGODIC_GAP and bound >= best:
            break  # exact powers never raise it: rounding has taken over
        best = min(best, bound)
        if k == CERTIFY_SQUARINGS or norm < np.sqrt(finfo.tiny):
            break
        power = power @ power
        # (C + D)^2 - fl(C C) = C D + D C + D^2 + rounding, |rounding| <= gamma_n |C|^2
        err = (2.0 * norm + err) * err + 2.0 * gamma_n * norm * norm + underflow
        norm = norm_up(power)
    return best if best < 1.0 - ERGODIC_GAP else None


def certified_stationary(p_pi: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(mu, mixing_bound) for a chain that the squaring certificate accepts, else None.

    mu comes from the same solve as `stationary_distribution`'s, so it has
    the same bits. A failed solve or a (near-)zero mass also gives None: only
    the spectrum then decides which error the chain gets.
    """
    p_pi = np.asarray(p_pi, dtype=float)
    _check_rows_stochastic(p_pi, "transition matrix")
    try:
        mu = _solve_stationary(p_pi)
    except ErgodicityError:
        return None
    bound = mixing_bound(p_pi, mu)
    return None if bound is None else (mu, bound)


def stationary_distribution(p_pi: np.ndarray, moduli: np.ndarray | None = None) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix.

    Solved directly from (P^T - I) mu = 0 with the normalization row. The
    chain is rejected when an eigenvalue besides the Perron root has modulus
    within 1e-12 of 1: eigenvalue 1 repeated means it is reducible, another
    one on the unit circle that it is periodic. A chain that
    `certified_stationary` accepts needs no spectrum; any other is judged
    from its `eigen_moduli`, which a caller that has them passes as `moduli`.
    """
    p_pi = np.asarray(p_pi, dtype=float)
    _check_rows_stochastic(p_pi, "transition matrix")
    if moduli is None:
        certified = certified_stationary(p_pi)
        if certified is not None:
            return certified[0]
        moduli = eigen_moduli(p_pi)
    if p_pi.shape[0] > 1 and moduli[1] >= 1.0 - ERGODIC_GAP:
        raise ErgodicityError(f"second eigenvalue modulus {moduli[1]:.12f}: chain reducible or periodic")
    return _solve_stationary(p_pi)


def value_function_oracle(mdp: Mdp, policy: Policy) -> np.ndarray:
    """Exact V^pi = (I - gamma P^pi)^{-1} r^pi."""
    p_pi = policy_transition_matrix(mdp, policy)
    r_pi = reward_under_policy(mdp, policy)
    try:
        v = np.linalg.solve(np.eye(mdp.n_states) - mdp.gamma * p_pi, r_pi)
    except np.linalg.LinAlgError as exc:  # cannot happen for gamma < 1; guard anyway
        raise ArithmeticError(f"(I - gamma P^pi) is singular: {exc}") from exc
    return v


def bellman_residual(mdp: Mdp, policy: Policy, v: np.ndarray) -> float:
    """Sup-norm residual of the policy Bellman equation at v."""
    p_pi = policy_transition_matrix(mdp, policy)
    r_pi = reward_under_policy(mdp, policy)
    return float(np.abs(r_pi + mdp.gamma * p_pi @ v - v).max())


def bellman_optimality_operator(mdp: Mdp, q: np.ndarray) -> np.ndarray:
    """T*(Q)(s,a) = R(s,a) + gamma E_{s'}[max_a' Q(s',a')]."""
    return mdp.reward + mdp.gamma * mdp.transition @ q.max(axis=1)


def q_star_oracle(mdp: Mdp, residual_tol: float = 1e-10) -> np.ndarray:
    """Optimal Q-table by value iteration.

    Stops once successive iterates are within (1-gamma) * residual_tol / (2 gamma),
    which guarantees a Bellman-optimality residual below residual_tol.
    """
    stop = (1.0 - mdp.gamma) * residual_tol / (2.0 * mdp.gamma)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(10_000_000):
        q_next = bellman_optimality_operator(mdp, q)
        if np.abs(q_next - q).max() <= stop:
            return q_next
        q = q_next
    raise ArithmeticError("value iteration failed to reach the stopping threshold")


def optimality_residual(mdp: Mdp, q: np.ndarray) -> float:
    return float(np.abs(bellman_optimality_operator(mdp, q) - q).max())


def n_step_reward(mdp: Mdp, policy: Policy, n: int) -> np.ndarray:
    """r^(n) = sum_{l=0}^{n-1} gamma^l (P^pi)^l r^pi."""
    p_pi = policy_transition_matrix(mdp, policy)
    r_pi = reward_under_policy(mdp, policy)
    acc = np.zeros(mdp.n_states)
    term = r_pi.copy()
    for _ in range(n):
        acc += term
        term = mdp.gamma * (p_pi @ term)
    return acc


def projection_matrix(features: FeatureMatrix, mu: np.ndarray) -> np.ndarray:
    """Weighted projection onto the feature span: Phi (Phi^T M Phi)^{-1} Phi^T M."""
    phi = features.phi
    m_phi = mu[:, None] * phi
    gram = phi.T @ m_phi
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"projection Gram matrix Phi^T M Phi is singular: {exc}") from exc
    return phi @ inv @ m_phi.T


def projected_fixed_point_oracle(
    mdp: Mdp, policy: Policy, features: FeatureMatrix, n: int = 1, mu: np.ndarray | None = None
) -> np.ndarray:
    """Solution v of the projected n-step fixed-point equation.

    Derivation: eliminating the projection from Phi v = Proj((T^pi)^n Phi v)
    leaves the d x d linear system
        Phi^T M (I - gamma^n (P^pi)^n) Phi v = Phi^T M r^(n),
    with M = diag(mu^pi); `mu` passes in the policy's stationary distribution
    if the caller has it. The solution is verified against the projected
    operator directly before being returned.
    """
    if n < 1:
        raise ValueError("step count n must be >= 1")
    p_pi = policy_transition_matrix(mdp, policy)
    if mu is None:
        mu = stationary_distribution(p_pi)
    phi = features.phi
    p_n = np.linalg.matrix_power(p_pi, n)
    m_phi = mu[:, None] * phi
    lhs = m_phi.T @ (phi - (mdp.gamma ** n) * (p_n @ phi))
    rhs = m_phi.T @ n_step_reward(mdp, policy, n)
    try:
        v = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(
            f"projected system Phi^T M (I - gamma^n P^n) Phi is singular: {exc}"
        ) from exc
    resid = projected_fixed_point_residual(mdp, policy, features, n, v, mu=mu)
    if resid > 1e-8:
        raise ArithmeticError(f"projected fixed-point residual {resid:.3e} exceeds 1e-8")
    return v


def projected_fixed_point_residual(
    mdp: Mdp,
    policy: Policy,
    features: FeatureMatrix,
    n: int,
    v: np.ndarray,
    mu: np.ndarray | None = None,
) -> float:
    """Euclidean residual ||Phi v - Proj((T^pi)^n Phi v)||."""
    p_pi = policy_transition_matrix(mdp, policy)
    if mu is None:
        mu = stationary_distribution(p_pi)
    phi = features.phi
    bellman_n = n_step_reward(mdp, policy, n) + (mdp.gamma ** n) * (
        np.linalg.matrix_power(p_pi, n) @ (phi @ v)
    )
    proj = projection_matrix(features, mu)
    return float(np.linalg.norm(phi @ v - proj @ bellman_n))


def importance_ratio(target: Policy, behavior: Policy, s: int, a: int) -> float:
    """pi(a|s) / pi_b(a|s), guarding against missing coverage."""
    num = target.probs[s, a]
    den = behavior.probs[s, a]
    if den == 0.0:
        if num > 0.0:
            raise CoverageError(f"behavior policy has zero mass at (s={s}, a={a}) where target does not")
        return 0.0
    return float(num / den)


def importance_ratio_table(target: Policy, behavior: Policy) -> np.ndarray:
    """Full |S| x A table of importance ratios."""
    bad = (behavior.probs == 0.0) & (target.probs > 0.0)
    if np.any(bad):
        s, a = np.argwhere(bad)[0]
        raise CoverageError(f"behavior policy has zero mass at (s={s}, a={a}) where target does not")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(behavior.probs > 0.0, target.probs / behavior.probs, 0.0)


def importance_ratio_max(target: Policy, behaviors: list[Policy]) -> float:
    """Largest importance ratio over all (s, a) pairs and all agents."""
    return max(float(importance_ratio_table(target, b).max()) for b in behaviors)
