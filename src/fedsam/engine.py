"""Generic federated stochastic-approximation loop.

N agents run local noisy contraction steps theta <- theta + a(G(theta,y) -
theta + b(y)), average their parameters every K steps, and output the
averaged iterate at a randomly sampled time. The loop is deterministic given
the master seed: every agent owns a counter-based stream, so a run depends
on its seed alone, never on which process runs it or which trials share its
batch.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

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


def row_norms(mat: np.ndarray, kind: str) -> np.ndarray:
    """norm(row, kind) of every row of mat, bit for bit, in one reduction: the
    max is exact, and each (1, d) @ (d, 1) product is the dot that
    `np.linalg.norm` takes (einsum and np.add.reduce(d * d, 1) sum otherwise)."""
    if kind == NORM_SUP:
        return np.maximum.reduce(np.abs(mat), axis=1)
    if kind == NORM_L2:
        return np.sqrt((mat[:, None, :] @ mat[:, :, None]).reshape(-1))
    raise ValueError(f"unknown norm kind {kind!r}")


class FedSamProblem:
    """Per-agent noisy operators plus their Markovian noise processes.

    A subclass gives the operators and the noise as methods; an instance may
    assign its own callables over them. The engine advances each agent one
    block at a time through `run_block`, which steps through `update`. The
    operators must satisfy G(i, 0, y) = 0 — zero is the common fixed point —
    which `__init__` probes with random samples, so a subclass sets what its
    methods read before it calls `__init__`.

    A problem with a row step sets `lockstep_min_rows`, the batch size in
    rows (trials x agents) from which its `lockstep(chains, horizon)` rows
    beat `run_block`. Their `run(thetas, t, t_stop, alpha)` advances every
    row of thetas in place from step t to t_stop, each on its own chain (as
    `sampling.ChainRows` walks them), and returns the (step, row) of each
    row's first failing step.
    """

    lockstep_min_rows: int | None = None

    def __init__(self, dim: int, n_agents: int, norm_kind: str = NORM_SUP,
                 initial_theta: np.ndarray | None = None, step_scale: float = 1.0):
        if dim < 1 or n_agents < 1:
            raise ValueError("dim and n_agents must be positive")
        if norm_kind not in (NORM_SUP, NORM_L2):
            raise ValueError(f"unknown norm kind {norm_kind!r}")
        if initial_theta is not None:
            initial_theta = np.asarray(initial_theta, dtype=float)
            if initial_theta.shape != (dim,):
                raise ValueError("initial_theta has the wrong dimension")
        self.dim, self.n_agents, self.norm_kind = dim, n_agents, norm_kind
        self.initial_theta = initial_theta
        self.step_scale = step_scale  # engine step = config.step_size * step_scale
        self._probe_zero_fixed_point()

    def apply_g(self, i: int, theta: np.ndarray, y) -> np.ndarray:
        """Agent i's operator G(theta, y) at the noise value y."""
        raise NotImplementedError

    def apply_b(self, i: int, y) -> np.ndarray:
        """Agent i's additive noise term b(y)."""
        raise NotImplementedError

    def make_noise(self, i: int, rng: np.random.Generator):
        """Agent i's noise process on rng: an object whose .step() yields
        successive y values, and whose optional .steps(k) yields the next k at
        once (the engine draws no noise itself)."""
        raise NotImplementedError

    def _probe_zero_fixed_point(self, samples: int = 5, tol: float = 1e-9) -> None:
        zero = np.zeros(self.dim)
        agents = sorted({0, self.n_agents // 2, self.n_agents - 1})
        for i in agents:
            noise = self.make_noise(i, stream(_ZERO_CHECK_SEED, TAG_NOISE, i))
            for _ in range(samples):
                y = noise.step()
                g0 = self.apply_g(i, zero, y)
                if not norm(np.asarray(g0), self.norm_kind) <= tol:  # NaN fails too
                    raise ValueError(
                        f"apply_g(i={i}, 0, y) != 0: zero must be the common fixed point"
                    )

    def norm(self, x: np.ndarray) -> float:
        return norm(x, self.norm_kind)

    @property
    def finite_bound(self) -> float:
        """DBL_MAX / (2 dim): while every entry of a row lies strictly inside
        +-finite_bound, each partial sum of the row is below DBL_MAX / 2 in
        any order, so the row's sum is finite."""
        return sys.float_info.max / (2 * self.dim)

    def update(self, agent: int, theta: np.ndarray, y, alpha: float) -> np.ndarray:
        """One local step, theta + alpha (G(theta, y) - theta + b(y)).

        The engine owns theta and continues from the returned array, so an
        override may write into theta and return it.
        """
        return theta + alpha * (self.apply_g(agent, theta, y) - theta + self.apply_b(agent, y))

    def run_block(self, agent: int, theta: np.ndarray, noise, t_start: int, t_stop: int,
                  alpha: float) -> np.ndarray:
        """Advance one agent from step t_start to t_stop through `update`.

        Draws the block's values with the noise's `steps`, or with lazy
        `step()` calls. Returns the agent's row at t_stop; the caller passes
        a row it owns, which an override may write into and return. The
        finite guard sums the parameter after every step: any non-finite
        entry, or a finite overflow, poisons the sum, and the block raises
        DivergenceError(t, agent) at that step t.
        """
        k = t_stop - t_start
        steps = getattr(noise, "steps", None)
        windows = steps(k) if steps is not None else (noise.step() for _ in range(k))
        update, isfinite, row_sum = self.update, math.isfinite, np.add.reduce
        for t, y in enumerate(windows, t_start):
            theta = update(agent, theta, y, alpha)
            if not isfinite(row_sum(theta)):
                raise DivergenceError(t, agent)
        return theta


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
        if not (math.isfinite(self.step_size) and self.step_size >= 0):
            raise ValueError("step_size must be finite and >= 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (math.isfinite(self.output_c) and self.output_c > 0):
            raise ValueError("output_c must be finite and > 0")
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
    n = len(thetas)
    dists = row_norms(np.add.reduce(thetas, 0) / n - thetas, norm_kind)
    # np.add.reduce(x) / n is x.mean(), bit for bit
    return float(np.add.reduce(dists) / n), float(np.add.reduce(dists**2) / n)


class _Recorder:
    """One trial's output time, checkpoint series and output iterate."""

    def __init__(self, config: FedRunConfig, norm_kind: str):
        big_t = config.horizon
        self.k = config.sync_period
        self.norm_kind = norm_kind
        # pre-sampled from its own stream, so it does not depend on the checkpoints
        self.t_hat = sample_output_index(config.master_seed, config.output_c, big_t)
        stride = config.checkpoint_stride or max(1, big_t // 500)
        self.schedule = set(range(0, big_t + 1, stride)) | {big_t}
        # the steps at which the engine reads the agents, ascending: 0 first, T last
        self.points = sorted(self.schedule | {self.t_hat})
        self.series: dict[int, tuple[np.ndarray, float, float]] = {}
        self.output_theta: np.ndarray | None = None

    def record(self, t: int, mat: np.ndarray) -> None:
        """Keep the mean of the agent rows `mat` at the point t: a checkpoint, t_hat or both."""
        mean = np.add.reduce(mat, 0) / len(mat)  # bit for bit mat.mean(axis=0)
        if t in self.schedule:
            delta, omega = sync_errors(mat, self.norm_kind)
            self.series[t] = (mean, delta, omega)
        if t == self.t_hat:
            self.output_theta = mean.copy()

    def trace(self, thetas: np.ndarray) -> RunTrace:
        """The trial's RunTrace; `thetas` are its agent rows at the horizon."""
        series = self.series
        ts = np.array(sorted(series), dtype=np.int64)
        return RunTrace(
            checkpoint_ts=ts,
            theta_bar_series=np.stack([series[t][0] for t in ts]),
            delta_series=np.array([series[t][1] for t in ts]),
            omega_series=np.array([series[t][2] for t in ts]),
            output_index=self.t_hat,
            output_theta=self.output_theta,
            final_theta_bar=thetas.mean(axis=0),
        )


def _start(problem: FedSamProblem, configs: list[FedRunConfig]) -> tuple[np.ndarray, list]:
    """Every trial's agent rows, stacked trial by trial, and their noise processes."""
    theta0 = problem.initial_theta
    if theta0 is None:
        theta0 = np.zeros(problem.dim)
    n_agents = problem.n_agents
    noises = [problem.make_noise(i, stream(config.master_seed, TAG_NOISE, i))
              for config in configs for i in range(n_agents)]
    return np.tile(theta0, (len(configs) * n_agents, 1)), noises


def run_fedsam(problem: FedSamProblem, config: FedRunConfig) -> RunTrace:
    """Execute the loop for config.horizon steps, syncing every sync_period.

    One trial of `run_batch`. If any agent diverges, DivergenceError carries
    the earliest (step, agent).
    """
    (outcome,) = run_batch(problem, [config])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def run_batch(problem: FedSamProblem, configs: list[FedRunConfig]) -> list:
    """Run trials of one problem that share the step size and the horizon.

    Returns each trial's RunTrace, or the DivergenceError that ended it, as
    the trial run alone gives them. A batch of at least the problem's
    `lockstep_min_rows` rows (trials x agents) runs as one batch, its rows
    stepped together by the problem's `lockstep` rows; below that, each trial
    runs alone, each agent one `run_block` call per block.
    """
    for config in configs:
        if config.n_agents != problem.n_agents:
            raise ValueError(
                f"config.n_agents={config.n_agents} != problem.n_agents={problem.n_agents}"
            )
    if len({(config.step_size, config.horizon) for config in configs}) > 1:
        raise ValueError("the trials of a batch share one step size and one horizon")
    limit = problem.lockstep_min_rows
    if limit is not None and len(configs) * problem.n_agents >= limit:
        return _run(problem, configs, lockstep=True)
    return [_run(problem, [config], lockstep=False)[0] for config in configs]


def _agent_blocks(problem: FedSamProblem, thetas: np.ndarray, noises: list) -> Callable:
    """The advancer of a trial below the lockstep limit: each agent row one
    `run_block` call per block, run to its end or to its failing step."""
    run_block = problem.run_block
    rows = list(enumerate(zip(thetas, noises)))  # views of thetas, built once; row = agent

    def run(_thetas: np.ndarray, t: int, t_stop: int, alpha: float) -> list[tuple[int, int]]:
        failed = []
        for agent, (theta, noise) in rows:
            try:
                end = run_block(agent, theta, noise, t, t_stop, alpha)
            except DivergenceError as exc:
                failed.append((exc.step, agent))
                continue
            if end is not theta:
                theta[:] = end
        return failed

    return run


def _run(problem: FedSamProblem, configs: list[FedRunConfig], lockstep: bool) -> list:
    """The trials of a batch, every agent row advanced between the same block ends.

    Rows [b n, (b + 1) n) of `thetas` are the agents of trial b. A block ends
    at the next step where some live trial syncs or records (a checkpoint or
    its t_hat), so the engine reads the agents at block ends only. The
    advancer, `run(thetas, t, t_stop, alpha)`, steps every row from t to
    t_stop and returns the (step, row) of each row's first failing step; a
    trial fails with its earliest step and, at that step, its lowest agent, as
    it does alone. Its rows stay in place but take no further barrier or
    record, and the batch ends once every trial has failed.
    """
    n, big_t = problem.n_agents, configs[0].horizon
    alpha_eff = configs[0].step_size * problem.step_scale
    trials = [_Recorder(config, problem.norm_kind) for config in configs]
    outcomes: list = [None] * len(configs)  # None while the trial is live
    thetas, noises = _start(problem, configs)
    if lockstep:
        run = problem.lockstep(noises, big_t).run
    else:
        run = _agent_blocks(problem, thetas, noises)
    mats = list(thetas.reshape(len(configs), n, -1))  # views: each trial's agent rows
    # per step, bit masks of the trials that sync and that record: no container per step
    sync_at, read_at, ends = [0] * (big_t + 1), [0] * (big_t + 1), set()
    for b, trial in enumerate(trials):
        syncs, reads = range(trial.k, big_t + 1, trial.k), trial.points[1:]
        for t in syncs:
            sync_at[t] |= 1 << b
        for t in reads:
            read_at[t] |= 1 << b
        ends.update(syncs, reads)
    members = _Members()
    live = (1 << len(trials)) - 1  # the trials not failed yet

    col_sum = np.add.reduce  # col_sum(m, 0) / len(m) is m.mean(axis=0), bit for bit
    t = 0
    # blow-ups become the diverged marker; entered once, not once per block
    with np.errstate(over="ignore", invalid="ignore"):
        for b, trial in enumerate(trials):
            trial.record(0, mats[b])
        for t_stop in sorted(ends):
            syncing, recording = sync_at[t_stop] & live, read_at[t_stop] & live
            if not (syncing or recording):
                continue
            failed = run(thetas, t, t_stop, alpha_eff)
            t = t_stop
            if failed:
                for step, row in sorted(failed):  # a trial's earliest step, then its lowest agent
                    b = row // n
                    if live >> b & 1:
                        outcomes[b] = DivergenceError(step, row % n)
                        live &= ~(1 << b)
                if not live:
                    return outcomes
                syncing, recording = syncing & live, recording & live
            for b in members[syncing]:  # the in-place sync barrier
                mat = mats[b]
                mat[:] = col_sum(mat, 0) / n
            for b in members[recording]:
                trials[b].record(t, mats[b])
    return [trial.trace(mats[b]) if outcomes[b] is None else outcomes[b]
            for b, trial in enumerate(trials)]


class _Members(dict):
    """Bit mask -> the trials whose bits it sets, ascending; filled on first use."""

    def __missing__(self, mask: int) -> list[int]:
        self[mask] = trials = [b for b in range(mask.bit_length()) if mask >> b & 1]
        return trials

