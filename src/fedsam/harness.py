"""Experiment orchestration: generators, trials, sweeps, and persistence.

Every random object is derived from the experiment's master seed and the
coordinates of the thing being produced (cell, replication, agent), never
from scheduling, so a sweep writes byte-identical result files at any
number of worker processes.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from itertools import chain, product
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import algorithms
from .algorithms import (
    OFF_POLICY_TD_TABULAR,
    ON_POLICY_TD_LFA,
    Q_LEARNING,
    AlgorithmInstance,
    TheoryConstants,
    build_problem,
    theory_constants,
)
from .engine import FedRunConfig, FedSamProblem, run_batch
from .errors import DivergenceError, GenerationError
from .mdp import FeatureMatrix, Mdp, Policy
from .sampling import stream, tau_alpha

TAG_GEN = 10
TAG_TRIAL = 11
TAG_IID = 12

K_RULE_T_OVER_N = "T_over_N"


def _check_ints(key: str, values, low: int | None = 1) -> None:
    """Raise a ValueError naming `key` unless every value is an integer (not
    a bool) of at least `low`."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ValueError(f"{key} must be >= {low}, got {value}")


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the random-instance generator."""

    n_states: int = 5
    n_actions: int = 2
    branching: int = 3
    gamma: float = 0.8
    d: int = 2
    n_step: int = 1
    n_agents: int = 1
    eps_cov: float = 0.05
    eps_ergodic: float = 0.01

    def validate(self) -> None:
        for key in ("n_states", "n_actions", "branching", "n_step", "n_agents"):
            _check_ints(key, [getattr(self, key)])
        _check_ints("d", [self.d], low=None)
        if self.d > self.n_states:
            raise ValueError("feature dimension d must not exceed n_states")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0 < self.eps_cov < 1 or not 0 < self.eps_ergodic < 1:
            raise ValueError("eps_cov and eps_ergodic must lie in (0, 1)")


def generate_mdp(params: GeneratorParams, rng: np.random.Generator) -> Mdp:
    """Garnet-style MDP: sparse random kernel blended with uniform mass.

    The eps_ergodic uniform blend makes every chain irreducible and aperiodic
    regardless of the policy.
    """
    s_n, a_n = params.n_states, params.n_actions
    trans = np.zeros((s_n, a_n, s_n))
    width = min(params.branching, s_n)
    for s in range(s_n):
        for a in range(a_n):
            succ = rng.choice(s_n, size=width, replace=False)
            trans[s, a, succ] = rng.dirichlet(np.ones(width))
    trans *= 1.0 - params.eps_ergodic
    trans += params.eps_ergodic / s_n
    reward = rng.uniform(0.0, 1.0, size=(s_n, a_n))
    return Mdp(n_states=s_n, n_actions=a_n, transition=trans, reward=reward, gamma=params.gamma)


def _behavior_policies(target: Policy, params: GeneratorParams) -> list[Policy]:
    """Per-agent behaviors: target blended toward uniform, one weight per agent.

    Blend weights start at eps_cov, so every behavior covers the target's
    support and importance ratios stay below 1/(1 - w_max) <= 1/eps_cov.
    """
    hi = min(0.5, 4.0 * params.eps_cov)
    if params.n_agents == 1:
        weights = [params.eps_cov]
    else:
        weights = np.linspace(params.eps_cov, hi, params.n_agents).tolist()
    uniform = np.full_like(target.probs, 1.0 / params.n_actions)
    return [Policy((1.0 - w) * target.probs + w * uniform) for w in weights]


def generate_instance(kind: str, params: GeneratorParams, seed: int) -> AlgorithmInstance:
    """Random instance satisfying the generator guarantees, with redraws.

    A draw is rejected (and retried with a fresh sub-seed, up to 5 times) if
    the feature matrix is rank deficient or no power-of-two beta meets the
    spectral margin.
    """
    params.validate()
    last_error: Exception | None = None
    for attempt in range(5):
        rng = stream(seed, TAG_GEN, attempt)
        try:
            mdp = generate_mdp(params, rng)
            target = Policy(rng.dirichlet(np.ones(params.n_actions), size=params.n_states))
            if kind == ON_POLICY_TD_LFA:
                behaviors = [target] * params.n_agents
                raw = rng.standard_normal((params.n_states, params.d))
                q_mat, _ = np.linalg.qr(raw)
                features = FeatureMatrix(q_mat[:, : params.d])
            else:
                behaviors = _behavior_policies(target, params)
                features = None
            return AlgorithmInstance(
                kind=kind,
                mdp=mdp,
                target=target,
                behaviors=behaviors,
                n_step=1 if kind == Q_LEARNING else params.n_step,
                features=features,
            )
        except (ValueError, ArithmeticError) as exc:
            last_error = exc
    raise GenerationError(f"instance generation failed after 5 redraws: {last_error}")


def instance_from_files(
    kind: str,
    mdp_path: str | Path,
    policies_path: str | Path,
    features_path: str | Path | None = None,
    n_step: int = 1,
) -> AlgorithmInstance:
    """Rebuild an instance from the files written by the CLI generator."""
    mdp = Mdp.from_json(Path(mdp_path).read_text())
    pol = json.loads(Path(policies_path).read_text())
    target = Policy(np.array(pol["target"], dtype=float))
    behaviors = [Policy(np.array(p, dtype=float)) for p in pol["behaviors"]]
    features = None
    if kind == ON_POLICY_TD_LFA:
        if features_path is None:
            raise ValueError("linear-FA instances need a features file")
        feat = json.loads(Path(features_path).read_text())
        features = FeatureMatrix(np.array(feat["phi"], dtype=float))
    return AlgorithmInstance(
        kind=kind,
        mdp=mdp,
        target=target,
        behaviors=behaviors,
        n_step=1 if kind == Q_LEARNING else n_step,
        features=features,
    )


# ---------------------------------------------------------------------------
# Experiment specification
# ---------------------------------------------------------------------------

class Cell(NamedTuple):
    n_agents: int
    sync_period: int
    alpha: float
    horizon: int


@dataclass
class ExperimentSpec:
    """One experiment: an instance source plus an (N, K, alpha) grid."""

    name: str = "experiment"
    kind: str = OFF_POLICY_TD_TABULAR
    params: GeneratorParams = field(default_factory=GeneratorParams)
    n_agents_grid: list[int] = field(default_factory=lambda: [1, 2, 4])
    sync_periods: list[int] | str = field(default_factory=lambda: [1])
    alpha_grid: list[float] = field(default_factory=lambda: [0.1])
    horizon: int = 1000
    replications: int = 4
    master_seed: int = 0
    checkpoint_stride: int | None = None
    mdp_path: str | None = None
    policies_path: str | None = None
    features_path: str | None = None

    def validate(self) -> None:
        if self.kind not in algorithms.KINDS:
            raise ValueError(f"unknown algorithm kind {self.kind!r}")
        _check_ints("replications", [self.replications])
        _check_ints("horizon", [self.horizon])
        _check_ints("master_seed", [self.master_seed], low=None)
        if self.checkpoint_stride is not None:
            _check_ints("checkpoint_stride", [self.checkpoint_stride])
        if not self.n_agents_grid or not self.alpha_grid:
            raise ValueError("grid must be non-empty")
        _check_ints("n_agents_grid", self.n_agents_grid)
        for alpha in self.alpha_grid:
            if (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)
                    or not (math.isfinite(alpha) and alpha >= 0)):
                raise ValueError(f"alpha_grid must hold finite numbers >= 0, got {alpha!r}")
        if isinstance(self.sync_periods, str):
            if self.sync_periods != K_RULE_T_OVER_N:
                raise ValueError(f"unknown sync-period rule {self.sync_periods!r}")
        elif not self.sync_periods:
            raise ValueError("sync_periods must be non-empty")
        else:
            _check_ints("sync_periods", self.sync_periods)
        if max(self.n_agents_grid) > self.params.n_agents and self.mdp_path is None:
            raise ValueError("params.n_agents must cover the largest grid N")
        self.params.validate()

    def cells(self) -> list[Cell]:
        out = []
        for n in self.n_agents_grid:
            if self.sync_periods == K_RULE_T_OVER_N:
                ks = [max(1, self.horizon // n)]
            else:
                ks = list(self.sync_periods)
            for k, alpha in product(ks, self.alpha_grid):
                out.append(Cell(n, k, float(alpha), self.horizon))
        return out

    def to_dict(self) -> dict:
        out = asdict(self)
        out["params"] = asdict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
        payload = dict(data)
        if "params" in payload:
            param_known = set(GeneratorParams.__dataclass_fields__)
            bad = set(payload["params"]) - param_known
            if bad:
                raise ValueError(f"unknown generator keys: {sorted(bad)}")
            payload["params"] = GeneratorParams(**payload["params"])
        spec = cls(**payload)
        spec.validate()
        return spec


def build_instance_for_spec(spec: ExperimentSpec) -> AlgorithmInstance:
    if spec.mdp_path is not None:
        return instance_from_files(
            spec.kind, spec.mdp_path, spec.policies_path, spec.features_path, spec.params.n_step
        )
    return generate_instance(spec.kind, spec.params, spec.master_seed)


def sub_instance(instance: AlgorithmInstance, n_agents: int) -> AlgorithmInstance:
    """Restriction to the first n_agents behavior policies, by slicing the per-agent fields.

    The fixed point and beta depend on (mdp, target) only, so nothing is solved
    again; the exact mixing estimates stay unsolved until read, and those
    solved are shared.
    """
    if not 1 <= n_agents <= instance.n_agents:
        raise ValueError(f"instance provides {instance.n_agents} agents, needed {n_agents}")
    if n_agents == instance.n_agents:
        return instance
    sub = copy.copy(instance)
    sub.behaviors = instance.behaviors[:n_agents]
    sub.stationary = instance.stationary[:n_agents]
    sub.rho_bounds = instance.rho_bounds[:n_agents]
    return sub


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

@dataclass
class TrialResult:
    """One replication of one cell, against the exact fixed point."""

    n_agents: int
    sync_period: int
    alpha: float
    horizon: int
    replication: int
    mse: float
    final_sq_error: float
    t_hat: int
    status: str
    wall_ms: float
    checkpoint_ts: list[int]
    error_series: list[float]
    omega_series: list[float]
    # where a diverged run turned non-finite; None when it did not, or when
    # only its error overflowed
    diverged_step: int | None = None
    diverged_agent: int | None = None

    def late_blowup(self) -> bool:
        """True when the tail of the error series rises above its early level.

        Compares the time-averaged error over the last 10% of checkpoints to
        the error at the 10% checkpoint; recomputable from the persisted
        series, so it is a derived diagnostic rather than a stored column.
        """
        n = len(self.error_series)
        if n < 10 or self.status != "ok":
            return False
        head = self.error_series[max(1, n // 10)]
        tail = self.error_series[-max(1, n // 10):]
        return float(np.mean(tail)) > head


def trial_seed(master_seed: int, cell: Cell, replication: int) -> int:
    """Deterministic per-trial seed from the cell coordinates and replication."""
    alpha_bits = int(np.float64(cell.alpha).view(np.uint64))
    seq = np.random.SeedSequence(
        entropy=(int(master_seed), TAG_TRIAL, cell.n_agents, cell.sync_period, alpha_bits,
                 cell.horizon, int(replication))
    )
    return int(seq.generate_state(1, np.uint64)[0])


def run_trial(
    instance: AlgorithmInstance,
    cell: Cell,
    replication: int,
    master_seed: int,
    problem: FedSamProblem | None = None,
    constants: TheoryConstants | None = None,
    checkpoint_stride: int | None = None,
) -> TrialResult:
    """Full federated run of one cell; divergence is recorded, not raised.

    A run diverges when an iterate turns non-finite, at a (step, agent) the
    result keeps, or when its error is too large to square as a float.
    """
    if instance.n_agents != cell.n_agents:
        instance = sub_instance(instance, cell.n_agents)
        problem = None
    if problem is None:
        problem = build_problem(instance)
    if constants is None:
        constants = theory_constants(instance)
    (result,) = run_trials(problem, constants, [cell], [replication], master_seed, checkpoint_stride)
    return result


def run_trials(
    problem: FedSamProblem,
    constants: TheoryConstants,
    cells: list[Cell],
    replications: Sequence[int],
    master_seed: int,
    checkpoint_stride: int | None = None,
) -> list[TrialResult]:
    """Every (cell, replication) pair, cell by cell, as one `run_batch` batch.

    The cells share N, alpha and the horizon, and `problem` is built for N.
    Each trial's wall_ms is its share of the batch's wall time.
    """
    alpha_eff = cells[0].alpha * problem.step_scale
    c_out = constants.c_out(alpha_eff)
    pairs, configs = [], []
    for cell in cells:
        for replication in replications:
            if c_out <= 0:  # step too large for late-iterate weighting; fall back to a flat-ish c
                warnings.warn(
                    f"cell {tuple(cell)}: output constant c_out = {c_out!r} at alpha_eff = "
                    f"{alpha_eff!r} is not positive; the output time is drawn with c = 0.5 instead",
                    RuntimeWarning, stacklevel=3,
                )
            pairs.append((cell, replication))
            configs.append(FedRunConfig(
                n_agents=cell.n_agents,
                sync_period=cell.sync_period,
                step_size=cell.alpha,
                horizon=cell.horizon,
                output_c=c_out if c_out > 0 else 0.5,
                master_seed=trial_seed(master_seed, cell, replication),
                checkpoint_stride=checkpoint_stride,
            ))
    start = time.perf_counter()
    results = [_trial_result(problem, cell, replication, outcome)
               for (cell, replication), outcome in zip(pairs, run_batch(problem, configs))]
    share = (time.perf_counter() - start) * 1e3 / len(results)
    for result in results:
        result.wall_ms = share
    return results


def _trial_result(problem: FedSamProblem, cell: Cell, replication: int, outcome) -> TrialResult:
    """A trial's result from its RunTrace or its DivergenceError; wall_ms is set by the caller."""
    try:
        if isinstance(outcome, DivergenceError):
            raise outcome
        err = problem.norm(outcome.output_theta)
        final_err = problem.norm(outcome.final_theta_bar)
        series = [float(problem.norm(row) ** 2) for row in outcome.theta_bar_series]
        mse, final_sq_error = float(err**2), float(final_err**2)
    except (DivergenceError, OverflowError) as exc:  # only DivergenceError knows where
        return TrialResult(
            cell.n_agents, cell.sync_period, cell.alpha, cell.horizon, replication,
            mse=float("nan"), final_sq_error=float("nan"), t_hat=-1, status="diverged",
            wall_ms=0.0, checkpoint_ts=[], error_series=[], omega_series=[],
            diverged_step=getattr(exc, "step", None), diverged_agent=getattr(exc, "agent", None),
        )
    return TrialResult(
        cell.n_agents, cell.sync_period, cell.alpha, cell.horizon, replication,
        mse=mse, final_sq_error=final_sq_error, t_hat=outcome.output_index,
        status="ok", wall_ms=0.0, checkpoint_ts=[int(t) for t in outcome.checkpoint_ts],
        error_series=series, omega_series=[float(w) for w in outcome.omega_series],
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class CellStats:
    n_agents: int
    sync_period: int
    alpha: float
    horizon: int
    mean_mse: float
    se_mse: float
    n_ok: int
    n_total: int
    invalid: bool


@dataclass
class SweepResult:
    spec: ExperimentSpec
    trials: list[TrialResult]
    cell_stats: list[CellStats]
    slopes: list[dict]
    constants: TheoryConstants

    def stats_for(self, **match) -> list[CellStats]:
        return [st for st in self.cell_stats if all(getattr(st, k) == v for k, v in match.items())]


_SweepSetup = dict[int, tuple[AlgorithmInstance, FedSamProblem, TheoryConstants]]


def _sweep_setup(spec: ExperimentSpec) -> _SweepSetup:
    """{N: (instance, problem, constants)} for every N of the grid."""
    full = build_instance_for_spec(spec)
    setup = {}
    for n in sorted(set(spec.n_agents_grid)):
        instance = sub_instance(full, n)
        setup[n] = (instance, build_problem(instance), theory_constants(instance))
    return setup


# Replications per task: a fixed count, so a batch, and with it every byte, is
# the same at any worker count.
REPLICATION_CHUNK = 16


def _tasks(spec: ExperimentSpec) -> list[tuple[tuple[Cell, ...], range]]:
    """(cells, replications) per batch: the cells that share N, alpha and the
    horizon, in grid order, and a chunk of REPLICATION_CHUNK replications."""
    groups: dict[tuple, list[Cell]] = {}
    for cell in spec.cells():
        groups.setdefault((cell.n_agents, cell.alpha, cell.horizon), []).append(cell)
    reps = spec.replications
    return [(tuple(cells), range(lo, min(lo + REPLICATION_CHUNK, reps)))
            for cells in groups.values() for lo in range(0, reps, REPLICATION_CHUNK)]


def _run_task(spec: ExperimentSpec, setup: _SweepSetup, cells: tuple[Cell, ...],
              replications: range) -> list[TrialResult]:
    _, problem, constants = setup[cells[0].n_agents]
    return run_trials(problem, constants, list(cells), replications, spec.master_seed,
                      spec.checkpoint_stride)


# A worker process's (spec, set-up), received once by the pool initializer.
_worker: tuple[ExperimentSpec, _SweepSetup] | None = None


def _init_worker(spec: ExperimentSpec, setup: _SweepSetup) -> None:
    global _worker
    _worker = (spec, setup)


def _worker_task(task: tuple[tuple[Cell, ...], range]) -> list[TrialResult]:
    return _run_task(*_worker, *task)


def worker_count(requested: int) -> int:
    """Worker processes to start: at most one per CPU (results are the same at any count)."""
    return min(requested, os.cpu_count() or 1)


def sweep(spec: ExperimentSpec, workers: int = 1) -> SweepResult:
    """Run the whole grid with replications; the batches execute in parallel.

    Instances, problems and constants are built once, here, and sent as they
    are to each of `worker_count(workers)` worker processes. Each task is a
    `run_trials` batch of `_tasks`; the trials come back cell by cell, each
    cell's replications in order.
    """
    spec.validate()
    workers = worker_count(workers)
    cells = spec.cells()
    setup = _sweep_setup(spec)
    instance, _, constants = setup[max(setup)]
    _warn_short_horizons(spec, instance)

    tasks = _tasks(spec)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(spec, setup)
        ) as pool:
            batches = list(pool.map(_worker_task, tasks, chunksize=max(1, len(tasks) // (workers * 4))))
    else:
        batches = [_run_task(spec, setup, *task) for task in tasks]
    done = {(Cell(t.n_agents, t.sync_period, t.alpha, t.horizon), t.replication): t
            for batch in batches for t in batch}
    trials = [done[cell, rep] for cell in cells for rep in range(spec.replications)]

    stats = _aggregate(cells, trials, spec.replications)
    slopes = _speedup_slopes(spec, stats)
    return SweepResult(spec=spec, trials=trials, cell_stats=stats, slopes=slopes, constants=constants)


def _warn_short_horizons(spec: ExperimentSpec, instance: AlgorithmInstance) -> None:
    """Warn for each cell whose horizon is short at the exact worst-case tau_alpha.

    tau_alpha does not decrease with rho, so a cell long enough at the
    largest certified bound on rho is long enough at the exact rho; the exact
    estimate is solved only when some cell is not.
    """
    rho_bound = max(instance.rho_bounds)
    for cell in spec.cells():
        alpha_eff = cell.alpha * (instance.beta or 1.0)
        if not 0 < alpha_eff < 1:
            continue
        config = FedRunConfig(
            n_agents=cell.n_agents, sync_period=cell.sync_period, step_size=cell.alpha,
            horizon=cell.horizon, output_c=0.5, master_seed=0,
        )
        if cell.horizon > config.horizon_need(tau_alpha(rho_bound, alpha_eff)):
            continue
        config.warn_if_short_horizon(instance.mixing.tau_alpha(alpha_eff))


def _aggregate(cells: list[Cell], trials: list[TrialResult], reps: int) -> list[CellStats]:
    stats = []
    by_cell: dict[Cell, list[TrialResult]] = {c: [] for c in cells}
    for tr in trials:
        by_cell[Cell(tr.n_agents, tr.sync_period, tr.alpha, tr.horizon)].append(tr)
    for cell in cells:
        ok = [t.mse for t in by_cell[cell] if t.status == "ok"]
        n_ok = len(ok)
        if n_ok == 0:
            mean, se = float("nan"), float("nan")
        else:
            mean = float(np.mean(ok))
            # scaled by the largest MSE only where a sum of n_ok squares could overflow
            scale = max(ok) if max(ok) > math.sqrt(np.finfo(float).max / n_ok) else 1.0
            se = float(scale * np.std(np.divide(ok, scale), ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else 0.0
        stats.append(
            CellStats(
                cell.n_agents, cell.sync_period, cell.alpha, cell.horizon,
                mean_mse=mean, se_mse=se, n_ok=n_ok, n_total=reps,
                invalid=(n_ok < reps / 2),
            )
        )
    return stats


def speedup_slope(n_agents: list[int], mses: list[float]) -> tuple[float, float]:
    """Least-squares slope of log(MSE) against log(N), with a 1.96-SE half-width."""
    if len(n_agents) < 2:
        raise ValueError("need at least two N values for a slope")
    x = np.log(np.asarray(n_agents, dtype=float))
    y = np.log(np.asarray(mses, dtype=float))
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope = float(coef[0])
    resid = y - design @ coef
    dof = len(x) - 2
    if dof > 0:
        s2 = float(resid @ resid) / dof
        sxx = float(((x - x.mean()) ** 2).sum())
        half = 1.96 * math.sqrt(s2 / sxx) if sxx > 0 else 0.0
    else:
        half = 0.0
    return slope, half


def _speedup_slopes(spec: ExperimentSpec, stats: list[CellStats]) -> list[dict]:
    """One slope per (K-group, alpha) with at least two valid N points."""
    out = []
    rule = spec.sync_periods == K_RULE_T_OVER_N
    groups: dict[tuple, list[CellStats]] = {}
    for st in stats:
        if st.invalid or not math.isfinite(st.mean_mse) or st.mean_mse <= 0:
            continue
        key = ("T/N" if rule else st.sync_period, st.alpha)
        groups.setdefault(key, []).append(st)
    for (k_label, alpha), rows in sorted(groups.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        rows = sorted(rows, key=lambda r: r.n_agents)
        if len({r.n_agents for r in rows}) < 2:
            continue
        slope, half = speedup_slope([r.n_agents for r in rows], [r.mean_mse for r in rows])
        out.append({"k": k_label, "alpha": alpha, "slope": slope, "half_width": half})
    return out


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_trend(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Spearman rank correlation and its large-sample z-score rho*sqrt(n-1)."""
    x = _average_ranks(np.asarray(xs, dtype=float))
    y = _average_ranks(np.asarray(ys, dtype=float))
    xc, yc = x - x.mean(), y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0:
        return 0.0, 0.0
    rho = float(xc @ yc) / denom
    return rho, rho * math.sqrt(len(x) - 1.0)


def k_curve(result: SweepResult, n_agents: int, alpha: float) -> list[CellStats]:
    """Per-K statistics at fixed (N, alpha), sorted by K."""
    rows = result.stats_for(n_agents=n_agents, alpha=alpha)
    return sorted(rows, key=lambda r: r.sync_period)


def k_trend_z(result: SweepResult, n_agents: int, alpha: float) -> tuple[float, float]:
    """Spearman trend of per-replication squared error against K."""
    ks, vals = [], []
    for tr in result.trials:
        if tr.n_agents == n_agents and tr.alpha == alpha and tr.status == "ok":
            ks.append(float(tr.sync_period))
            vals.append(tr.mse)
    return spearman_trend(ks, vals)


# ---------------------------------------------------------------------------
# Exact i.i.d. scalar recursion study
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

    def within(self, n_sigmas: float = 3.0) -> bool:
        return self.max_std_dev <= n_sigmas


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


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

RESULTS_HEADER = "n_agents,sync_period,alpha,horizon,replication,mse,final_sq_error,t_hat,status"
SERIES_HEADER = "n_agents,sync_period,alpha,horizon,replication,t,sq_error,omega"
TIMING_HEADER = "n_agents,sync_period,alpha,horizon,replication,wall_ms,diverged_step,diverged_agent"


def _write_atomic(path: Path, lines: Iterable[str]) -> None:
    """Write the lines, each ended by a newline, through a temporary file in the
    same directory that then replaces `path`: a write that fails part-way
    leaves `path` as it was and no partial file behind."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as f:
            for line in lines:
                f.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def persist(result: SweepResult, out_dir: str | Path, name: str | None = None) -> dict[str, Path]:
    """Write metadata, results table, checkpoint series, and the timing sidecar.

    Everything except the timing sidecar is a pure function of (spec, seed),
    so reruns produce byte-identical files. The sidecar holds each trial's
    wall time and, for a run that turned non-finite, the step and agent where
    it did. Each file is replaced whole.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = name or result.spec.name
    paths = {
        "meta": out / f"{name}.meta.json",
        "results": out / f"{name}.results.csv",
        "series": out / f"{name}.series.csv",
        "timing": out / f"{name}.timing.csv",
    }
    from . import __version__

    trials = sorted(
        result.trials,
        key=lambda t: (t.n_agents, t.sync_period, t.alpha, t.horizon, t.replication),
    )
    meta = {
        "spec": result.spec.to_dict(),
        "code_version": __version__,
        "master_seed": result.spec.master_seed,
        "theory_constants": result.constants.to_dict(),
        "slopes": result.slopes,
        "cells": [asdict(st) for st in result.cell_stats],
    }
    _write_atomic(paths["meta"], [json.dumps(meta, indent=2, sort_keys=True)])

    def fmt(x: float) -> str:
        return repr(float(x))

    def key(t: TrialResult) -> str:
        return f"{t.n_agents},{t.sync_period},{fmt(t.alpha)},{t.horizon},{t.replication}"

    def known(x: int | None) -> str:
        return "" if x is None else str(x)

    _write_atomic(paths["results"], [RESULTS_HEADER] + [
        f"{key(t)},{fmt(t.mse)},{fmt(t.final_sq_error)},{t.t_hat},{t.status}" for t in trials
    ])
    _write_atomic(paths["series"], chain([SERIES_HEADER], (
        f"{key(t)},{ck},{fmt(err)},{fmt(omega)}"
        for t in trials
        for ck, err, omega in zip(t.checkpoint_ts, t.error_series, t.omega_series)
    )))
    _write_atomic(paths["timing"], [TIMING_HEADER] + [
        f"{key(t)},{fmt(t.wall_ms)},{known(t.diverged_step)},{known(t.diverged_agent)}" for t in trials
    ])
    return paths


def load_results(out_dir: str | Path, name: str) -> tuple[dict, list[TrialResult]]:
    """Reload persisted results; series rows are re-attached to their trials."""
    out = Path(out_dir)
    meta = json.loads((out / f"{name}.meta.json").read_text())
    trials: dict[tuple, TrialResult] = {}
    rows = (out / f"{name}.results.csv").read_text().strip().split("\n")
    if rows[0] != RESULTS_HEADER:
        raise ValueError(f"unexpected results header in {out / f'{name}.results.csv'}")
    for row in rows[1:]:
        n, k, alpha, horizon, rep, mse, fin, t_hat, status = row.split(",")
        tr = TrialResult(
            int(n), int(k), float(alpha), int(horizon), int(rep),
            float(mse), float(fin), int(t_hat), status,
            wall_ms=0.0, checkpoint_ts=[], error_series=[], omega_series=[],
        )
        trials[(tr.n_agents, tr.sync_period, tr.alpha, tr.horizon, tr.replication)] = tr
    rows = (out / f"{name}.series.csv").read_text().strip().split("\n")
    for row in rows[1:]:
        n, k, alpha, horizon, rep, t, err, omega = row.split(",")
        tr = trials[(int(n), int(k), float(alpha), int(horizon), int(rep))]
        tr.checkpoint_ts.append(int(t))
        tr.error_series.append(float(err))
        tr.omega_series.append(float(omega))
    return meta, [trials[k] for k in sorted(trials)]
