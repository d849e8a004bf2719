"""Desk-scale acceptance checks.

Each check runs one verifiable claim about the library end to end and
returns a CheckResult; the CLI validate command and the acceptance test
suite both drive these. All randomness is seeded, so a passing suite stays
green byte-for-byte.
"""

from __future__ import annotations

import math
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .algorithms import (
    KINDS,
    OFF_POLICY_TD_TABULAR,
    ON_POLICY_TD_LFA,
    Q_LEARNING,
    AlgorithmInstance,
    build_problem,
    expected_operator,
    offpolicy_td_update,
    run_single_node,
    spectral_radius_at_beta,
    theory_constants,
)
from .engine import output_time_distribution
from .harness import (
    ExperimentSpec,
    GeneratorParams,
    generate_instance,
    k_trend_z,
    persist,
    sweep,
    worker_count,
)
from .mdp import (
    FeatureMatrix,
    Mdp,
    Policy,
    n_step_reward,
    optimality_residual,
    policy_transition_matrix,
    projected_fixed_point_oracle,
    projected_fixed_point_residual,
    q_star_oracle,
    reward_under_policy,
    value_function_oracle,
)
from .sampling import TAG_NOISE, AgentChain, stream

DEFAULT_SEED = 2024
TAG_IID = 12
_REL_SLACK = 1e-12  # numerical headroom on "never exceeds" comparisons


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: str
    elapsed_s: float | None = field(default=None, compare=False)  # set by run_all_checks

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.observed}"


def _acceptance_params() -> GeneratorParams:
    """Instance family for the operator-level checks."""
    return GeneratorParams(
        n_states=8, n_actions=3, branching=3, gamma=0.8, d=3, n_step=2, n_agents=3
    )


# ---------------------------------------------------------------------------
# Criterion 1: exact i.i.d. scalar recursion
# ---------------------------------------------------------------------------

@dataclass
class IidValidationReport:
    alpha: float
    sigma: float
    x0: float
    replications: int
    ts: list[int]
    empirical: list[float]
    exact: list[float]
    std_errors: list[float]
    max_std_dev: float


def iid_second_moment_exact(alpha: float, sigma: float, x0: float, t: int) -> float:
    """Closed-form E[x_t^2] of x_{t+1} = x_t + alpha (X_t - x_t), X iid (0, sigma^2)."""
    tail = alpha * sigma**2 / (2.0 - alpha)
    return (x0**2 - tail) * (1.0 - alpha) ** (2 * t) + tail


def iid_scalar_validation(
    alpha: float = 0.1,
    sigma: float = 1.0,
    x0: float = 1.0,
    ts: tuple[int, ...] = (0, 10, 50, 200),
    replications: int = 100_000,
    seed: int = 0,
) -> IidValidationReport:
    """Simulate the scalar recursion and compare E[x_t^2] to its closed form.

    The recursion is exactly solvable, which makes it a quantitative oracle
    for the whole stochastic-approximation machinery: the reported deviation
    is standardized by the Monte-Carlo standard error per checkpoint.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = stream(seed, TAG_IID)
    ts = tuple(sorted(set(int(t) for t in ts)))
    x = np.full(replications, float(x0))
    empirical, exact, errs, devs = [], [], [], []
    checkpoints = set(ts)

    def record(t: int) -> None:
        sq = x * x
        emp = float(sq.mean())
        se = float(sq.std(ddof=1) / math.sqrt(replications))
        ex = iid_second_moment_exact(alpha, sigma, x0, t)
        empirical.append(emp)
        exact.append(ex)
        errs.append(se)
        if se == 0.0:
            devs.append(0.0 if emp == ex else float("inf"))
        else:
            devs.append(abs(emp - ex) / se)

    if 0 in checkpoints:
        record(0)
    for t in range(1, max(ts) + 1):
        x += alpha * (rng.normal(0.0, sigma, size=replications) - x)
        if t in checkpoints:
            record(t)
    return IidValidationReport(
        alpha=alpha, sigma=sigma, x0=x0, replications=replications,
        ts=list(ts), empirical=empirical, exact=exact, std_errors=errs,
        max_std_dev=max(devs),
    )


def check_iid_recursion(seed: int = DEFAULT_SEED) -> CheckResult:
    report = iid_scalar_validation(
        alpha=0.1, sigma=1.0, x0=1.0, ts=(0, 10, 50, 200), replications=100_000, seed=seed
    )
    return CheckResult(
        "iid_recursion",
        report.max_std_dev <= 3.0,
        f"max standardized deviation {report.max_std_dev:.2f} (limit 3.0) at t={report.ts}",
    )


# ---------------------------------------------------------------------------
# Criterion 2: oracle consistency
# ---------------------------------------------------------------------------

def _iterative_policy_evaluation(mdp: Mdp, policy: Policy, tol: float = 1e-12) -> np.ndarray:
    p_pi = policy_transition_matrix(mdp, policy)
    r_pi = reward_under_policy(mdp, policy)
    v = np.zeros(mdp.n_states)
    for _ in range(5_000_000):
        v_next = r_pi + mdp.gamma * (p_pi @ v)
        if np.abs(v_next - v).max() <= tol:
            return v_next
        v = v_next
    raise ArithmeticError("policy evaluation failed to converge")


def check_oracle_consistency(seed: int = DEFAULT_SEED, instances: int = 20) -> CheckResult:
    worst = {"pe_gap": 0.0, "q_resid": 0.0, "proj_resid": 0.0, "tabular_gap": 0.0}
    rng = np.random.default_rng(seed)
    for idx in range(instances):
        n_states = int(rng.integers(2, 21))
        n_actions = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.5, 0.95))
        d = int(rng.integers(1, n_states + 1))
        n = int(rng.integers(1, 4))
        params = GeneratorParams(
            n_states=n_states, n_actions=n_actions, branching=min(3, n_states),
            gamma=gamma, d=d, n_step=n,
        )
        inst = generate_instance(OFF_POLICY_TD_TABULAR, params, seed=seed + 100 + idx)
        mdp, policy = inst.mdp, inst.target

        v = value_function_oracle(mdp, policy)
        v_iter = _iterative_policy_evaluation(mdp, policy)
        worst["pe_gap"] = max(worst["pe_gap"], float(np.abs(v - v_iter).max()))

        q = q_star_oracle(mdp)
        worst["q_resid"] = max(worst["q_resid"], optimality_residual(mdp, q))

        feats = generate_instance(ON_POLICY_TD_LFA, params, seed=seed + 300 + idx)
        resid = projected_fixed_point_residual(
            feats.mdp, feats.target, feats.features, feats.n_step, feats.fixed_point
        )
        worst["proj_resid"] = max(worst["proj_resid"], resid)

        v_tab = projected_fixed_point_oracle(mdp, policy, FeatureMatrix.identity(n_states), 1)
        worst["tabular_gap"] = max(worst["tabular_gap"], float(np.abs(v_tab - v).max()))

    passed = (
        worst["pe_gap"] <= 1e-8
        and worst["q_resid"] <= 1e-10
        and worst["proj_resid"] <= 1e-8
        and worst["tabular_gap"] <= 1e-8
    )
    return CheckResult(
        "oracle_consistency",
        passed,
        "worst gaps: vs iterative PE {pe_gap:.1e} (<=1e-8), Q* residual {q_resid:.1e} (<=1e-10), "
        "projected residual {proj_resid:.1e} (<=1e-8), tabular-feature gap {tabular_gap:.1e} (<=1e-8)".format(**worst),
    )


# ---------------------------------------------------------------------------
# Criterion 3: contraction of the expected operators
# ---------------------------------------------------------------------------

def check_contraction(
    seed: int = DEFAULT_SEED,
    instances: int = 20,
    pairs: int = 100,
    gamma_scale: float = 1.0,
) -> CheckResult:
    """Random-pair contraction for the tabular kinds, spectral margin for LFA.

    gamma_scale deliberately mis-scales the declared contraction factor; it
    exists so fault injection can prove the check has teeth.
    """
    violations = 0
    worst_margin = float("inf")
    params = _acceptance_params()
    for idx in range(instances):
        for kind in (OFF_POLICY_TD_TABULAR, Q_LEARNING):
            inst = generate_instance(kind, params, seed=seed + 1000 + idx)
            gamma_c = theory_constants(inst).gamma_c * gamma_scale
            rng = stream(seed, 31, idx, 0 if kind == OFF_POLICY_TD_TABULAR else 1)
            for _ in range(pairs):
                th1 = rng.standard_normal(inst.dim)
                th2 = rng.standard_normal(inst.dim)
                bound = gamma_c * np.abs(th1 - th2).max() + 1e-12
                for agent in range(inst.n_agents):
                    lhs = float(
                        np.abs(
                            expected_operator(inst, th1, agent) - expected_operator(inst, th2, agent)
                        ).max()
                    )
                    worst_margin = min(worst_margin, bound - lhs)
                    if lhs > bound:
                        violations += 1
    lfa_bad = 0
    worst_radius = 0.0
    for idx in range(instances):
        inst = generate_instance(ON_POLICY_TD_LFA, params, seed=seed + 1000 + idx)
        radius = spectral_radius_at_beta(inst)
        worst_radius = max(worst_radius, radius)
        if radius >= 1.0 - 0.01:
            lfa_bad += 1
    passed = violations == 0 and lfa_bad == 0
    return CheckResult(
        "contraction",
        passed,
        f"{violations} tabular violations over {2 * instances * pairs} pairs "
        f"(worst margin {worst_margin:.2e}); LFA spectral radius max {worst_radius:.4f} "
        f"< 0.99 in {instances - lfa_bad}/{instances} instances",
    )


# ---------------------------------------------------------------------------
# Criterion 4: fixed-point nullity
# ---------------------------------------------------------------------------

def _enumerate_windows(mdp: Mdp, behavior: Policy, mu: np.ndarray, n: int):
    """Yield (weight, states, actions) over all stationary n-step windows."""
    def rec(states, actions, weight):
        if len(actions) == n:
            yield weight, np.array(states), np.array(actions)
            return
        s = states[-1]
        for a in range(mdp.n_actions):
            pa = behavior.probs[s, a]
            if pa == 0.0:
                continue
            for s2 in range(mdp.n_states):
                ps = mdp.transition[s, a, s2]
                if ps == 0.0:
                    continue
                yield from rec(states + [s2], actions + [a], weight * pa * ps)

    for s0 in range(mdp.n_states):
        if mu[s0] > 0.0:
            yield from rec([s0], [], float(mu[s0]))


def _expected_raw_update_at_oracle(inst: AlgorithmInstance, agent: int = 0) -> float:
    """Sup-norm of the exactly enumerated mean raw update at the fixed point."""
    mdp = inst.mdp
    if inst.kind == OFF_POLICY_TD_TABULAR:
        mu = inst.stationary[agent]
        v_pi = inst.fixed_point
        acc = np.zeros(mdp.n_states)
        for w, states, actions in _enumerate_windows(mdp, inst.behaviors[agent], mu, inst.n_step):
            upd = offpolicy_td_update(
                v_pi, states, actions, inst.target, inst.behaviors[agent], mdp, alpha=1.0
            )
            acc += w * (upd - v_pi)
        return float(np.abs(acc).max())
    if inst.kind == Q_LEARNING:
        q = inst.fixed_point
        resid = mdp.reward + mdp.gamma * (mdp.transition @ q.max(axis=1)) - q
        return float(np.abs(resid).max())
    # linear FA: expected update direction Phi' M ((T^n Phi v) - Phi v)
    phi = inst.features.phi
    mu = inst.stationary[agent]
    v = inst.fixed_point
    p_n = np.linalg.matrix_power(inst.p_target, inst.n_step)
    bellman = n_step_reward(mdp, inst.target, inst.n_step) + (mdp.gamma ** inst.n_step) * (
        p_n @ (phi @ v)
    )
    return float(np.abs(phi.T @ (mu * (bellman - phi @ v))).max())


def check_fixed_point_nullity(seed: int = DEFAULT_SEED, instances: int = 20) -> CheckResult:
    worst_gbar = 0.0
    worst_raw = 0.0
    params = _acceptance_params()
    for idx in range(instances):
        for kind in KINDS:
            inst = generate_instance(kind, params, seed=seed + 2000 + idx)
            for agent in range(inst.n_agents):
                gap = float(np.abs(expected_operator(inst, np.zeros(inst.dim), agent)).max())
                worst_gbar = max(worst_gbar, gap)
            worst_raw = max(worst_raw, _expected_raw_update_at_oracle(inst))
    passed = worst_gbar <= 1e-12 and worst_raw <= 1e-12
    return CheckResult(
        "fixed_point_nullity",
        passed,
        f"worst |Gbar(0)| {worst_gbar:.1e}, worst enumerated mean update at oracle {worst_raw:.1e} (<=1e-12)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: assumption suite
# ---------------------------------------------------------------------------

def check_lipschitz_bounds(
    seed: int = DEFAULT_SEED, instances: int = 3, samples: int = 10_000
) -> CheckResult:
    worst_rel = 0.0
    label = ""
    params = _acceptance_params()
    for kind in KINDS:
        for idx in range(instances):
            inst = generate_instance(kind, params, seed=seed + 3000 + idx)
            consts = theory_constants(inst)
            problem = build_problem(inst)
            pairs = stream(seed, 32, idx, KINDS.index(kind)).standard_normal((samples, 2, inst.dim))
            # sample m reads agent m % N's next window, from one walk per agent
            noises = [problem.make_noise(i, stream(seed, 33, idx, i)) for i in range(inst.n_agents)]
            windows = [noise.steps(len(range(i, samples, inst.n_agents))) for i, noise in enumerate(noises)]
            for m, (th1, th2) in enumerate(pairs):
                i = m % inst.n_agents
                y = windows[i][m // inst.n_agents]
                g1 = problem.apply_g(i, th1, y)
                a1 = problem.norm(g1 - problem.apply_g(i, th2, y)) / problem.norm(th1 - th2)
                a2 = problem.norm(g1) / problem.norm(th1)
                bb = problem.norm(problem.apply_b(i, y))
                for val, lim, what in (
                    (a1, consts.a1, "A1"),
                    (a2, consts.a2, "A2"),
                    (bb, consts.b_bound, "B"),
                ):
                    rel = val / lim
                    if rel > worst_rel:
                        worst_rel, label = rel, f"{what} on {kind}"
    passed = worst_rel <= 1.0 + _REL_SLACK
    return CheckResult(
        "lipschitz_bounds",
        passed,
        f"worst sampled/declared ratio {worst_rel:.4f} ({label}); every sample within bounds: {passed}",
    )


def _noise_averages(seed: int, samples: int) -> dict[int, float]:
    """E|(1/N) sum_i b_i| at N = 1, 4, 16, agent i's b_i being i.i.d. normals clipped
    to [-4, 4] (so Assumption 3's B is finite), drawn as one array from its stream."""
    estimates = {}
    for n in (1, 4, 16):
        acc = np.zeros(samples)
        for i in range(n):
            acc += np.clip(stream(seed, TAG_NOISE, 1000 + i).normal(size=samples), -4.0, 4.0)
        estimates[n] = float(np.add.accumulate(np.abs(acc / n))[-1]) / samples  # summed left to right
    return estimates


def check_noise_average_scaling(seed: int = DEFAULT_SEED, samples: int = 10_000) -> CheckResult:
    estimates = _noise_averages(seed, samples)
    worst = 0.0
    for n in (4, 16):
        ratio = estimates[n] / estimates[1]
        worst = max(worst, abs(ratio * math.sqrt(n) - 1.0))
    passed = worst <= 0.20
    return CheckResult(
        "noise_average_scaling",
        passed,
        "E||avg b|| = "
        + ", ".join(f"N={n}: {estimates[n]:.4f}" for n in (1, 4, 16))
        + f"; worst relative deviation from 1/sqrt(N) scaling {worst:.3f} (<=0.20)",
    )


def _two_state_sticky_mdp(p_flip: float = 0.3) -> Mdp:
    trans = np.zeros((2, 1, 2))
    trans[0, 0] = [1 - p_flip, p_flip]
    trans[1, 0] = [p_flip, 1 - p_flip]
    return Mdp(n_states=2, n_actions=1, transition=trans, reward=np.zeros((2, 1)), gamma=0.5)


def _thinned_pair_counts(seed: int, samples: int, thin: int) -> np.ndarray:
    """Two agents' states on a 2-state chain, every thin-th step, as a 2x2 table. Each
    chain has its own stream, so each walks a chunk alone (sample j: j * thin steps in)."""
    mdp = _two_state_sticky_mdp()
    policy = Policy(np.ones((2, 1)))
    xi = np.array([0.5, 0.5])
    chains = [AgentChain(mdp, policy, xi, 1, stream(seed, 34, i), i) for i in range(2)]
    counts = np.zeros((2, 2))
    for c in chains:  # burn-in
        c.walk(200)
    for start in range(0, samples, 4096):
        m = min(4096, samples - start)
        np.add.at(counts, tuple(c.walk(thin * m)[0][thin:thin * m + 1:thin] for c in chains), 1)
    return counts


def check_agent_independence(
    seed: int = DEFAULT_SEED, samples: int = 100_000, thin: int = 25
) -> CheckResult:
    """Chi-square independence of two agents' states on a 2-state chain.

    Consecutive states of one chain are autocorrelated, so the paired
    trajectory is thinned before tabulating; the 2x2 table then has one
    degree of freedom and the 3-sigma threshold is chi2 <= 9.
    """
    counts = _thinned_pair_counts(seed, samples, thin)
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    expected = row @ col / counts.sum()
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    passed = chi2 <= 9.0
    return CheckResult(
        "agent_independence",
        passed,
        f"chi-square {chi2:.2f} on a 2x2 table of {samples} thinned paired samples (3-sigma limit 9.0)",
    )


def check_mixing_bias_decay(seed: int = DEFAULT_SEED, n_chains: int = 20_000) -> CheckResult:
    """Assumption-1 style check: E[G(theta, y_t)] approaches Gbar(theta) in t.

    Chains start from the worst-case one-hot distribution on a sticky chain,
    so the bias at t=0 is far above the Monte-Carlo floor and must shrink.
    """
    mdp = _two_state_sticky_mdp(p_flip=0.05)
    policy = Policy(np.ones((2, 1)))
    inst = AlgorithmInstance(
        kind=OFF_POLICY_TD_TABULAR,
        mdp=mdp,
        target=policy,
        behaviors=[policy],
        n_step=1,
        xi=np.array([1.0, 0.0]),
    )
    problem = build_problem(inst)
    rng = stream(seed, 35)
    theta = rng.standard_normal(2)
    gbar = expected_operator(inst, theta, 0)
    gaps = {}
    for t_probe in (0, 8, 32):
        acc = np.zeros(2)
        for c in range(n_chains):
            chain = problem.make_noise(0, stream(seed, 36, t_probe, c))
            chain.walk(t_probe)  # the chain is left on its window at t_probe
            acc += problem.apply_g(0, theta, (chain.states, chain.actions))
        gaps[t_probe] = float(np.abs(acc / n_chains - gbar).max())
    floor = 3.0 * np.abs(theta).max() / math.sqrt(n_chains)
    passed = gaps[32] <= max(gaps[0] * 0.25, floor) and gaps[8] < gaps[0]
    return CheckResult(
        "mixing_bias_decay",
        passed,
        f"|E[G] - Gbar| at t=0/8/32: {gaps[0]:.4f}/{gaps[8]:.4f}/{gaps[32]:.4f} "
        f"(Monte-Carlo floor ~{floor:.4f})",
    )


# ---------------------------------------------------------------------------
# Criterion 6: single-node convergence
# ---------------------------------------------------------------------------

def _single_node_params() -> GeneratorParams:
    # dense kernel and strongly exploratory behavior: every (s, a) pair is
    # visited often enough for the stated (alpha, T, tolerance) budget
    return GeneratorParams(
        n_states=5, n_actions=2, branching=5, gamma=0.3, d=2, n_step=1, n_agents=1,
        eps_cov=0.5,
    )


def _single_node_error(args: tuple) -> float:
    kind, seed, run_seed = args
    inst = generate_instance(kind, _single_node_params(), seed=seed)
    est = run_single_node(inst, alpha=0.01, horizon=200_000, rng=stream(run_seed, 37))
    return float(np.abs(est.reshape(-1) - inst.flat_fixed_point()).max())


def check_single_node_convergence(
    seed: int = DEFAULT_SEED, n_seeds: int = 20, workers: int = 1
) -> CheckResult:
    results = {}
    workers = worker_count(workers)
    for kind in (OFF_POLICY_TD_TABULAR, Q_LEARNING):
        tasks = [(kind, seed, seed + 40 + s) for s in range(n_seeds)]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                errs = list(pool.map(_single_node_error, tasks))
        else:
            errs = [_single_node_error(t) for t in tasks]
        results[kind] = (sum(e <= 0.05 for e in errs), max(errs))
    need = math.ceil(0.95 * n_seeds)
    passed = all(ok >= need for ok, _ in results.values())
    td_ok, td_max = results[OFF_POLICY_TD_TABULAR]
    q_ok, q_max = results[Q_LEARNING]
    return CheckResult(
        "single_node_convergence",
        passed,
        f"sup error <= 0.05 in TD {td_ok}/{n_seeds} (max {td_max:.3f}), "
        f"Q-learning {q_ok}/{n_seeds} (max {q_max:.3f}); need >= {need}",
    )


# ---------------------------------------------------------------------------
# Criteria 7 and 8: speedup and synchronization-period trends
# ---------------------------------------------------------------------------

def speedup_spec(seed: int = DEFAULT_SEED, replications: int = 100) -> ExperimentSpec:
    return ExperimentSpec(
        name="speedup",
        kind=OFF_POLICY_TD_TABULAR,
        params=GeneratorParams(
            n_states=4, n_actions=2, branching=2, gamma=0.5, d=2, n_step=1, n_agents=16
        ),
        n_agents_grid=[1, 2, 4, 8, 16],
        sync_periods=[1],
        alpha_grid=[0.1],
        horizon=3000,
        replications=replications,
        master_seed=seed,
    )


def check_linear_speedup(
    seed: int = DEFAULT_SEED, replications: int = 100, workers: int = 1
) -> CheckResult:
    result = sweep(speedup_spec(seed, replications), workers=workers)
    slope = result.slopes[0]["slope"]
    half = result.slopes[0]["half_width"]
    mse = {st.n_agents: st.mean_mse for st in result.cell_stats}
    passed = -1.3 <= slope <= -0.5 and mse[16] <= mse[1] / 4.0
    return CheckResult(
        "linear_speedup",
        passed,
        f"log-log slope {slope:.3f} ± {half:.3f} (target [-1.3, -0.5]); "
        f"MSE(1)/MSE(16) = {mse[1] / mse[16]:.1f} (need >= 4)",
    )


def sync_period_spec(seed: int = DEFAULT_SEED, replications: int = 100) -> ExperimentSpec:
    return ExperimentSpec(
        name="sync_period",
        kind=OFF_POLICY_TD_TABULAR,
        params=GeneratorParams(
            n_states=4, n_actions=2, branching=2, gamma=0.5, d=2, n_step=1, n_agents=8
        ),
        n_agents_grid=[8],
        sync_periods=[1, 4, 16, 64],
        alpha_grid=[0.3],
        horizon=1024,
        replications=replications,
        master_seed=seed,
        checkpoint_stride=16,
    )


def check_sync_period_effect(
    seed: int = DEFAULT_SEED, replications: int = 100, workers: int = 1
) -> CheckResult:
    result = sweep(sync_period_spec(seed, replications), workers=workers)
    rho, z = k_trend_z(result, 8, 0.3)
    omega_bad = 0
    for tr in result.trials:
        for t, omega in zip(tr.checkpoint_ts, tr.omega_series):
            if t % tr.sync_period == 0 and omega != 0.0:
                omega_bad += 1
    curve = {st.sync_period: st.mean_mse for st in result.cell_stats}
    passed = z >= 2.0 and omega_bad == 0
    return CheckResult(
        "sync_period_effect",
        passed,
        f"MSE over K={sorted(curve)}: " + ", ".join(f"{curve[k]:.2e}" for k in sorted(curve))
        + f"; Spearman rho {rho:.3f}, z {z:.2f} (need >= 2); "
        f"{omega_bad} nonzero omega values at sync instants",
    )


# ---------------------------------------------------------------------------
# Criterion 9: determinism of persisted sweeps
# ---------------------------------------------------------------------------

def check_determinism(seed: int = DEFAULT_SEED) -> CheckResult:
    spec = ExperimentSpec(
        name="determinism",
        kind=Q_LEARNING,
        params=GeneratorParams(
            n_states=4, n_actions=2, branching=2, gamma=0.6, d=2, n_step=1, n_agents=4
        ),
        n_agents_grid=[1, 4],
        sync_periods=[1, 8],
        alpha_grid=[0.1],
        horizon=400,
        replications=3,
        master_seed=seed,
    )
    parallel = worker_count(8)  # the count that runs: at most one per CPU
    blobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tag, workers in (("p1a", 1), ("p1b", 1), ("parallel", parallel)):
            result = sweep(spec, workers=workers)
            paths = persist(result, Path(tmp) / tag, name="det")
            blobs[tag] = {
                kind: paths[kind].read_bytes() for kind in ("meta", "results", "series")
            }
    rerun_same = blobs["p1a"] == blobs["p1b"]
    parallel_same = blobs["p1a"] == blobs["parallel"]
    return CheckResult(
        "determinism",
        rerun_same and parallel_same,
        f"rerun byte-identical: {rerun_same}; workers 1 vs {parallel} byte-identical: {parallel_same} "
        "(meta, results, series files)",
    )


# ---------------------------------------------------------------------------
# Criterion 10: output-time distribution
# ---------------------------------------------------------------------------

def check_output_distribution(seed: int = DEFAULT_SEED, draws: int = 100_000) -> CheckResult:
    worst_sum_gap = 0.0
    for c in (0.5, 1.0 - 1e-6, 2.0):
        for horizon in (1, 10, 100_000):
            q = output_time_distribution(c, horizon)
            worst_sum_gap = max(worst_sum_gap, abs(float(q.sum()) - 1.0))
    q = output_time_distribution(0.5, 10)
    rng = stream(seed, 38)
    samples = rng.choice(10, size=draws, p=q)
    counts = np.bincount(samples, minlength=10).astype(float)
    sigma = np.sqrt(draws * q * (1.0 - q))
    z = np.abs(counts - draws * q) / sigma
    worst_z = float(z.max())
    passed = worst_sum_gap <= 1e-12 and worst_z <= 3.0
    return CheckResult(
        "output_distribution",
        passed,
        f"worst |sum - 1| {worst_sum_gap:.1e} (<=1e-12); worst per-bin z {worst_z:.2f} "
        f"over {draws} draws (<=3)",
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def run_all_checks(
    seed: int = DEFAULT_SEED,
    workers: int = 1,
    fault: str | None = None,
    fast: bool = False,
) -> list[CheckResult]:
    """Run the full acceptance suite (optionally with an injected fault).

    fast=True trims replication counts for smoke runs; the acceptance
    defaults are the full counts. Each result carries its check's wall time
    in elapsed_s.
    """
    reps = 30 if fast else 100
    seeds6 = 8 if fast else 20
    checks = [
        lambda: check_iid_recursion(seed),
        lambda: check_oracle_consistency(seed),
        lambda: check_contraction(seed, gamma_scale=0.5 if fault == "contraction" else 1.0),
        lambda: check_fixed_point_nullity(seed),
        lambda: check_lipschitz_bounds(seed, samples=2_000 if fast else 10_000),
        lambda: check_noise_average_scaling(seed),
        lambda: check_agent_independence(seed, samples=20_000 if fast else 100_000),
        lambda: check_mixing_bias_decay(seed),
        lambda: check_single_node_convergence(seed, n_seeds=seeds6, workers=workers),
        lambda: check_linear_speedup(seed, replications=reps, workers=workers),
        lambda: check_sync_period_effect(seed, replications=reps, workers=workers),
        lambda: check_determinism(seed),
        lambda: check_output_distribution(seed),
    ]
    return [_timed(check) for check in checks]


def _timed(check) -> CheckResult:
    """The check's result, with its wall time in elapsed_s."""
    start = time.perf_counter()
    result = check()
    result.elapsed_s = time.perf_counter() - start
    return result
