"""Generic federated stochastic-approximation loop.

N agents run local noisy contraction steps theta <- theta + a(G(theta,y) -
theta + b(y)), average their parameters every K steps, and output the
averaged iterate at a randomly sampled time. The loop is sequential and
deterministic given the master seed: every agent owns a counter-based
stream, so a run depends on its seed alone, never on which process runs it.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DivergenceError
from .sampling import TAG_NOISE, TAG_OUTPUT_TIME, stream

NORM_SUP = "sup"
NORM_L2 = "l2"

_ZERO_CHECK_SEED = 0x0F5A


def norm(x: np.ndarray, kind: str) -> float:
    if kind == NORM_SUP:
        return float(np.abs(x).max())
    if kind == NORM_L2:
        return float(np.linalg.norm(x))
    raise ValueError(f"unknown norm kind {kind!r}")


@dataclass
class FedSamProblem:
    """Per-agent noisy operators plus their Markovian noise processes.

    apply_g(i, theta, y) and apply_b(i, y) evaluate the agent-i operator and
    additive noise; make_noise(i, rng) builds the agent's noise process (an
    object whose .step() yields successive y values, and whose optional
    .steps(k) yields the next k at once). The engine advances each agent one
    block at a time through `run_block`, which steps through `update`.
    The operators must satisfy G(i, 0, y) = 0 — zero is the common fixed
    point — which is probed with random samples at construction time.
    """

    dim: int
    n_agents: int
    apply_g: Callable[[int, np.ndarray, Any], np.ndarray]
    apply_b: Callable[[int, Any], np.ndarray]
    make_noise: Callable[[int, np.random.Generator], Any]
    norm_kind: str = NORM_SUP
    initial_theta: np.ndarray | None = None
    step_scale: float = 1.0  # engine step = config.step_size * step_scale
    check_zero_fixed_point: bool = True

    def __post_init__(self):
        if self.dim < 1 or self.n_agents < 1:
            raise ValueError("dim and n_agents must be positive")
        if self.norm_kind not in (NORM_SUP, NORM_L2):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        if self.initial_theta is not None:
            theta0 = np.asarray(self.initial_theta, dtype=float)
            if theta0.shape != (self.dim,):
                raise ValueError("initial_theta has the wrong dimension")
            object.__setattr__(self, "initial_theta", theta0)
        if self.check_zero_fixed_point:
            self._probe_zero_fixed_point()

    def _probe_zero_fixed_point(self, samples: int = 5, tol: float = 1e-9) -> None:
        zero = np.zeros(self.dim)
        agents = sorted({0, self.n_agents // 2, self.n_agents - 1})
        for i in agents:
            noise = self.make_noise(i, stream(_ZERO_CHECK_SEED, TAG_NOISE, i))
            for _ in range(samples):
                y = noise.step()
                g0 = self.apply_g(i, zero, y)
                if norm(np.asarray(g0), self.norm_kind) > tol:
                    raise ValueError(
                        f"apply_g(i={i}, 0, y) != 0: zero must be the common fixed point"
                    )

    def norm(self, x: np.ndarray) -> float:
        return norm(x, self.norm_kind)

    def update(self, agent: int, theta: np.ndarray, y, alpha: float) -> np.ndarray:
        """One local step, theta + alpha (G(theta, y) - theta + b(y)).

        The engine owns theta and continues from the returned array, so an
        override may write into theta and return it.
        """
        return theta + alpha * (self.apply_g(agent, theta, y) - theta + self.apply_b(agent, y))

    def run_block(self, agent: int, theta: np.ndarray, noise, t_start: int, t_stop: int,
                  alpha: float, record) -> tuple:
        """Advance one agent from step t_start to t_stop through `update`.

        Draws the block's values with the noise's `steps`, or with lazy
        `step()` calls. Returns the agent's end state and its snapshots
        {t: theta_t} at the steps t in `record`. The caller passes a row it
        owns, which an override may write into. The finite guard sums the
        parameter after every step: any non-finite entry, or a finite
        overflow, poisons the sum. A diverged agent returns (None, t) with t
        its failing step.
        """
        k = t_stop - t_start
        steps = getattr(noise, "steps", None)
        windows = steps(k) if steps is not None else (noise.step() for _ in range(k))
        snapshots = {}
        update, isfinite, row_sum = self.update, math.isfinite, np.add.reduce
        for t, y in enumerate(windows, t_start):
            theta = update(agent, theta, y, alpha)
            if not isfinite(row_sum(theta)):
                return None, t
            if t + 1 in record:
                snapshots[t + 1] = theta.copy()
        return theta, snapshots


@dataclass
class FedRunConfig:
    """Run shape: N agents, sync period K, step size, horizon, output sampling."""

    n_agents: int
    sync_period: int
    step_size: float
    horizon: int
    output_c: float
    master_seed: int
    checkpoint_stride: int | None = None

    def __post_init__(self):
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.sync_period < 1:
            raise ValueError("sync_period must be >= 1")
        if self.step_size < 0:
            raise ValueError("step_size must be >= 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.output_c <= 0:
            raise ValueError("output_c must be > 0")
        if self.checkpoint_stride is not None and self.checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be >= 1")

    def horizon_need(self, tau_alpha: int) -> int:
        """Theory asks for T > max{K + tau_alpha, 2 tau_alpha}."""
        return max(self.sync_period + tau_alpha, 2 * tau_alpha)

    def warn_if_short_horizon(self, tau_alpha: int) -> None:
        """Warn when T <= horizon_need(tau_alpha); don't enforce."""
        need = self.horizon_need(tau_alpha)
        if self.horizon <= need:
            warnings.warn(
                f"horizon T={self.horizon} <= max(K+tau, 2tau)={need}; "
                "convergence guarantees may not apply",
                stacklevel=2,
            )


@dataclass
class RunTrace:
    """Checkpointed averaged iterates and synchronization diagnostics."""

    checkpoint_ts: np.ndarray
    theta_bar_series: np.ndarray  # (n_checkpoints, dim)
    delta_series: np.ndarray
    omega_series: np.ndarray
    output_index: int
    output_theta: np.ndarray
    final_theta_bar: np.ndarray


def output_time_distribution(c: float, horizon: int) -> np.ndarray:
    """q(t) = c^{-t} / sum_{t'<T} c^{-t'} over t = 0..T-1, max-shifted for stability."""
    if c <= 0:
        raise ValueError("c must be > 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    log_w = -np.arange(horizon, dtype=float) * np.log(c)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def sample_output_index(master_seed: int, c: float, horizon: int) -> int:
    """The run's output time, drawn from its own dedicated stream."""
    q = output_time_distribution(c, horizon)
    return int(stream(master_seed, TAG_OUTPUT_TIME).choice(horizon, p=q))


def sync_errors(thetas: np.ndarray, norm_kind: str = NORM_SUP) -> tuple[float, float]:
    """(Delta, Omega): mean and mean-square dispersion around the agent average.

    Bit-identical rows (the state right after a sync barrier) report exactly
    (0, 0); recomputing their mean would otherwise leave summation-order dust
    at the last ulp.
    """
    thetas = np.asarray(thetas, dtype=float)
    if (thetas == thetas[0]).all():
        return 0.0, 0.0
    mean = thetas.mean(axis=0)
    dists = np.array([norm(mean - row, norm_kind) for row in thetas])
    return float(dists.mean()), float((dists**2).mean())


def run_fedsam(problem: FedSamProblem, config: FedRunConfig) -> RunTrace:
    """Execute the loop for config.horizon steps, syncing every sync_period.

    Agents advance one after another through each block between sync
    barriers. The output time is pre-sampled from its own stream, so it does
    not depend on the checkpoint schedule. If any agent diverges within a
    block, DivergenceError carries the earliest (step, agent).
    """
    if config.n_agents != problem.n_agents:
        raise ValueError(
            f"config.n_agents={config.n_agents} != problem.n_agents={problem.n_agents}"
        )
    n_agents, big_t, k = config.n_agents, config.horizon, config.sync_period
    alpha_eff = config.step_size * problem.step_scale

    t_hat = sample_output_index(config.master_seed, config.output_c, big_t)

    stride = config.checkpoint_stride or max(1, big_t // 500)
    schedule = set(range(0, big_t + 1, stride)) | {big_t}

    theta0 = problem.initial_theta
    if theta0 is None:
        theta0 = np.zeros(problem.dim)
    thetas = np.tile(theta0, (n_agents, 1))
    rows = list(thetas)  # views: an agent's block may write its row in place
    noises = [
        problem.make_noise(i, stream(config.master_seed, TAG_NOISE, i)) for i in range(n_agents)
    ]

    series: dict[int, tuple[np.ndarray, float, float]] = {}
    output_theta: np.ndarray | None = None
    sorted_schedule = sorted(schedule)
    col_sum = np.add.reduce  # col_sum(m, 0) / len(m) is m.mean(axis=0), bit for bit

    def record(t: int, mat: np.ndarray) -> None:
        nonlocal output_theta
        in_schedule = t in schedule
        if not in_schedule and t != t_hat:
            return
        mean = col_sum(mat, 0) / len(mat)
        if in_schedule:
            delta, omega = sync_errors(mat, problem.norm_kind)
            series[t] = (mean, delta, omega)
        if t == t_hat:
            output_theta = mean.copy()

    record(0, thetas)

    run_block = problem.run_block
    none_inside: frozenset[int] = frozenset()  # a one-step block has no step inside it
    t = 0
    # blow-ups become the diverged marker; entered once, not once per block
    with np.errstate(over="ignore", invalid="ignore"):
        while t < big_t:
            t_stop = min((t // k + 1) * k, big_t)
            wanted = none_inside
            if t_stop - t > 1:
                lo = bisect_right(sorted_schedule, t)
                hi = bisect_left(sorted_schedule, t_stop)
                wanted = set(sorted_schedule[lo:hi])
                if t < t_hat < t_stop:
                    wanted.add(t_hat)
            snapshots = []
            failed = None
            for agent in range(n_agents):
                row = rows[agent]
                end, out = run_block(agent, row, noises[agent], t, t_stop, alpha_eff, wanted)
                if end is None:
                    if failed is None or out < failed[0]:
                        failed = (out, agent)
                    continue
                if end is not row:
                    row[:] = end
                snapshots.append(out)
            if failed is not None:
                raise DivergenceError(*failed)
            for t_mid in sorted(wanted):
                record(t_mid, np.stack([snaps[t_mid] for snaps in snapshots]))
            if t_stop % k == 0:
                thetas[:] = col_sum(thetas, 0) / n_agents  # in-place sync barrier
            record(t_stop, thetas)
            t = t_stop

    ts = np.array(sorted(series), dtype=np.int64)
    return RunTrace(
        checkpoint_ts=ts,
        theta_bar_series=np.stack([series[t][0] for t in ts]),
        delta_series=np.array([series[t][1] for t in ts]),
        omega_series=np.array([series[t][2] for t in ts]),
        output_index=t_hat,
        output_theta=output_theta,
        final_theta_bar=thetas.mean(axis=0),
    )


def noise_average_diagnostic(
    problem: FedSamProblem,
    n_agents: int,
    r: int,
    n_samples: int = 1000,
    master_seed: int = 0,
) -> float:
    """Monte-Carlo estimate of E ||(1/N) sum_i b(y_t^i)||, conditioned r steps back.

    Each agent runs a fresh stream, burns in r steps, and then contributes one
    b value per recorded sample; the estimate is the average norm of the
    across-agent mean. Under independent agents this scales like B/sqrt(N)
    plus a geometrically vanishing mixing term.
    """
    if n_agents < 1 or r < 0:
        raise ValueError("need n_agents >= 1 and r >= 0")
    noises = [problem.make_noise(i % problem.n_agents, stream(master_seed, TAG_NOISE, 1000 + i)) for i in range(n_agents)]
    for noise in noises:
        for _ in range(r):
            noise.step()
    total = 0.0
    for _ in range(n_samples):
        acc = np.zeros(problem.dim)
        for i, noise in enumerate(noises):
            acc += np.asarray(problem.apply_b(i % problem.n_agents, noise.step()))
        total += norm(acc / n_agents, problem.norm_kind)
    return total / n_samples
