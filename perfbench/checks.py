"""Correctness checks on a workload's outputs, computed independently of fedsam.

Every check returns a list of failure messages; an empty list is a pass.

The replay re-simulates a trial from the documented stream keying alone: the
trial seed is SeedSequence((master_seed, TAG_TRIAL, N, K, alpha bits, T,
replication)), agent i draws uniforms from Philox(SeedSequence((trial_seed,
TAG_NOISE, i))), and each chain is rebuilt with this module's own inverse-CDF
sampler. The raw update rules then run in the original coordinates, with an
average every K steps. If the program changes that keying by design, the
replay here changes with it.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from fedsam.algorithms import offpolicy_td_update, onpolicy_td_update, q_learning_update

TAG_NOISE = 1
TAG_TRIAL = 11

REPLAY_RTOL = 1e-9
REPLAY_ATOL = 1e-13
FIXED_POINT_TOL = 1e-8
STATIONARY_TOL = 1e-10
BOUND_RTOL = 1e-9

TRIAL_FIELDS = ("n_agents", "sync_period", "alpha", "horizon", "replication", "mse",
                "final_sq_error", "t_hat", "status", "checkpoint_ts", "error_series",
                "omega_series")


def close(actual: float, expected: float, rtol: float = REPLAY_RTOL, atol: float = REPLAY_ATOL) -> bool:
    return abs(actual - expected) <= atol + rtol * abs(expected)


def within_bound(value: float, bound: float, rtol: float = BOUND_RTOL) -> bool:
    """value <= bound, allowing only rounding slack above the bound."""
    return value <= bound * (1.0 + rtol) + 1e-12


def trial_key(trial) -> tuple:
    return (trial["n_agents"], trial["sync_period"], trial["alpha"], trial["horizon"],
            trial["replication"])


def trial_record(trial) -> dict:
    """A trial's persisted fields as plain Python values (wall_ms is not persisted)."""
    return {name: getattr(trial, name) for name in TRIAL_FIELDS}


def compare_trials(expected: list[dict], actual: list[dict], what: str) -> list[str]:
    """Field-by-field equality of two trial lists, in any order."""
    exp = {trial_key(t): t for t in expected}
    act = {trial_key(t): t for t in actual}
    if exp.keys() != act.keys():
        return [f"{what}: trial keys differ ({len(exp)} vs {len(act)} trials)"]
    out = []
    for key in sorted(exp):
        for name in TRIAL_FIELDS:
            if exp[key][name] != act[key][name]:
                out.append(f"{what}: trial {key} field {name} differs")
    return out


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def _generator(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=entropy)))


def replay_seed(master_seed: int, n_agents: int, sync_period: int, alpha: float,
                horizon: int, replication: int) -> int:
    alpha_bits = int(np.float64(alpha).view(np.uint64))
    seq = np.random.SeedSequence(entropy=(int(master_seed), TAG_TRIAL, n_agents, sync_period,
                                          alpha_bits, horizon, int(replication)))
    return int(seq.generate_state(1, np.uint64)[0])


def _cdf(row: np.ndarray) -> list[float]:
    cum = np.cumsum(row)
    cum[-1] = 1.0
    return cum.tolist()


def sample_path(instance, agent: int, transitions: int, rng: np.random.Generator):
    """States S_0..S_m and actions A_0..A_{m-1} of one agent's chain, m = transitions."""
    mdp = instance.mdp
    policy_cdf = [_cdf(row) for row in instance.behaviors[agent].probs]
    trans_cdf: dict[tuple[int, int], list[float]] = {}
    u = rng.random(1 + 2 * transitions).tolist()
    states = [bisect_right(_cdf(np.asarray(instance.xi, dtype=float)), u[0])]
    actions = []
    for l in range(transitions):
        s = states[-1]
        a = bisect_right(policy_cdf[s], u[1 + 2 * l])
        cdf = trans_cdf.get((s, a))
        if cdf is None:
            cdf = trans_cdf[(s, a)] = _cdf(mdp.transition[s, a])
        actions.append(a)
        states.append(bisect_right(cdf, u[2 + 2 * l]))
    return states, actions


def _norm(kind: str, x: np.ndarray) -> float:
    """The algorithm's norm: Euclidean for linear FA, sup otherwise."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(np.linalg.norm(x)) if kind == "on_policy_td_lfa" else float(np.abs(x).max())


def _sq_error(instance, estimate: np.ndarray) -> float:
    return _norm(instance.kind, np.asarray(estimate) - np.asarray(instance.fixed_point)) ** 2


def replay(instance, sync_period: int, alpha: float, horizon: int, seed: int,
           t_hat: int) -> tuple[float, float]:
    """(squared error at t_hat, final squared error) of one trial, replayed."""
    kind, mdp, n_agents = instance.kind, instance.mdp, instance.n_agents
    window = 1 if kind == "q_learning" else instance.n_step
    paths = [sample_path(instance, i, window + horizon, _generator(seed, TAG_NOISE, i))
             for i in range(n_agents)]
    if kind == "on_policy_td_lfa":
        zero = np.zeros(instance.features.d)

        def update(est, i, states, actions):
            return onpolicy_td_update(est, states, actions, instance.features, mdp, alpha)
    elif kind == "off_policy_td_tabular":
        zero = np.zeros(mdp.n_states)

        def update(est, i, states, actions):
            return offpolicy_td_update(est, states, actions, instance.target,
                                       instance.behaviors[i], mdp, alpha)
    else:
        zero = np.zeros((mdp.n_states, mdp.n_actions))

        def update(est, i, states, actions):
            return q_learning_update(est, states[0], actions[0], states[1], mdp, alpha)

    ests = [zero] * n_agents
    at_t_hat = _sq_error(instance, zero) if t_hat == 0 else math.nan
    for t in range(horizon):
        for i, (states, actions) in enumerate(paths):
            ests[i] = update(ests[i], i, states[t:t + window + 1], actions[t:t + window])
        if (t + 1) % sync_period == 0:
            ests = [np.mean(ests, axis=0)] * n_agents
        if t + 1 == t_hat:
            at_t_hat = _sq_error(instance, np.mean(ests, axis=0))
    return at_t_hat, _sq_error(instance, np.mean(ests, axis=0))


def check_replay(spec, instances: dict[int, object], trials: list[dict]) -> list[str]:
    """Replication 0 of every cell of the spec against its independent replay."""
    by_key = {trial_key(t): t for t in trials}
    out = []
    for cell in spec.cells():
        key = (cell.n_agents, cell.sync_period, cell.alpha, cell.horizon, 0)
        trial = by_key.get(key)
        if trial is None:
            out.append(f"{spec.name}: no trial for cell {key}")
            continue
        if trial["status"] != "ok":
            continue  # counted as failed, not replayed
        where = f"{spec.name} trial {key}"
        t_hat = trial["t_hat"]
        if not 0 <= t_hat < cell.horizon:
            out.append(f"{where}: t_hat {t_hat} outside [0, {cell.horizon})")
            continue
        seed = replay_seed(spec.master_seed, *key)
        at_t_hat, final = replay(instances[cell.n_agents], cell.sync_period, cell.alpha,
                                 cell.horizon, seed, t_hat)
        if not close(trial["final_sq_error"], final):
            out.append(f"{where}: final_sq_error {trial['final_sq_error']!r} != replay {final!r}")
        if not close(trial["mse"], at_t_hat):
            out.append(f"{where}: mse {trial['mse']!r} != replay error at t_hat {at_t_hat!r}")
    return out


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

def _policy_matrix(mdp, policy) -> np.ndarray:
    return (mdp.transition * policy.probs[:, :, None]).sum(axis=1)


def _own_stationary(p: np.ndarray) -> np.ndarray:
    mu = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(1_000_000):
        nxt = mu @ p
        if np.abs(nxt - mu).sum() <= 1e-15:
            return nxt / nxt.sum()
        mu = nxt
    raise ArithmeticError("power iteration for the stationary distribution did not converge")


def own_fixed_point(instance) -> np.ndarray:
    """The instance's fixed point, computed here by iteration or from first principles."""
    mdp, gamma = instance.mdp, instance.mdp.gamma
    if instance.kind == "q_learning":
        stop = (1.0 - gamma) * 1e-13 / (2.0 * gamma)
        q = np.zeros((mdp.n_states, mdp.n_actions))
        while True:
            nxt = mdp.reward + gamma * (mdp.transition @ q.max(axis=1))
            if np.abs(nxt - q).max() <= stop:
                return nxt
            q = nxt
    p = _policy_matrix(mdp, instance.target)
    r = (mdp.reward * instance.target.probs).sum(axis=1)
    if instance.kind == "off_policy_td_tabular":
        v = np.zeros(mdp.n_states)
        while True:  # iterative policy evaluation
            nxt = r + gamma * (p @ v)
            if np.abs(nxt - v).max() <= 1e-14:
                return nxt
            v = nxt
    n = instance.n_step
    phi = instance.features.phi
    mu = _own_stationary(p)
    r_n = np.zeros(mdp.n_states)
    term = r
    for _ in range(n):
        r_n = r_n + term
        term = gamma * (p @ term)
    p_n = np.linalg.matrix_power(p, n)
    weighted = mu[:, None] * phi
    return np.linalg.solve(weighted.T @ (phi - gamma ** n * (p_n @ phi)), weighted.T @ r_n)


def check_fixed_point(instance, what: str) -> list[str]:
    ours = np.asarray(own_fixed_point(instance), dtype=float).reshape(-1)
    theirs = np.asarray(instance.fixed_point, dtype=float).reshape(-1)
    gap = float(np.abs(ours - theirs).max())
    if gap > FIXED_POINT_TOL * max(1.0, float(np.abs(ours).max())):
        return [f"{what}: fixed point differs from the independent solution by {gap:.3e}"]
    return []


def check_stationary(instance, what: str) -> list[str]:
    """Each agent's stationary distribution satisfies mu P = mu and sums to 1."""
    out = []
    for i, (mu, behavior) in enumerate(zip(instance.stationary, instance.behaviors)):
        p = _policy_matrix(instance.mdp, behavior)
        resid = float(np.abs(mu @ p - mu).max())
        mass = abs(float(mu.sum()) - 1.0)
        if resid > STATIONARY_TOL or mass > STATIONARY_TOL:
            out.append(f"{what} agent {i}: |mu P - mu| = {resid:.3e}, |sum mu - 1| = {mass:.3e}")
    return out


def check_omega(trials: list[dict], what: str) -> list[str]:
    """Omega is exactly 0 at every checkpoint that falls on a sync instant."""
    bad = 0
    for trial in trials:
        k = trial["sync_period"]
        bad += sum(1 for t, w in zip(trial["checkpoint_ts"], trial["omega_series"])
                   if t % k == 0 and w != 0.0)
    return [f"{what}: {bad} nonzero omega values at sync instants"] if bad else []


def check_bounds(instance, problem, constants, rng: np.random.Generator, what: str,
                 samples: int = 300) -> list[str]:
    """Sampled Lipschitz ratios stay within A1 and sampled |b| within B."""
    mdp, kind = instance.mdp, instance.kind
    window = 1 if kind == "q_learning" else instance.n_step
    worst_ratio, worst_b = 0.0, 0.0
    for j in range(samples):
        agent = j % problem.n_agents
        states = rng.integers(mdp.n_states, size=window + 1)
        actions = rng.integers(mdp.n_actions, size=window)
        y = (states, actions)
        theta1 = rng.standard_normal(problem.dim) * 10.0
        theta2 = rng.standard_normal(problem.dim) * 10.0
        num = _norm(kind, np.asarray(problem.apply_g(agent, theta1, y)) -
                    np.asarray(problem.apply_g(agent, theta2, y)))
        worst_ratio = max(worst_ratio, num / _norm(kind, theta1 - theta2))
        worst_b = max(worst_b, _norm(kind, problem.apply_b(agent, y)))
    out = []
    if not within_bound(worst_ratio, constants.a1):
        out.append(f"{what}: sampled Lipschitz ratio {worst_ratio!r} exceeds A1 {constants.a1!r}")
    if not within_bound(worst_b, constants.b_bound):
        out.append(f"{what}: sampled |b| {worst_b!r} exceeds B {constants.b_bound!r}")
    return out
