"""Lockstep batches: every trial equals the same trial run alone, bit for bit."""

import functools
import sys
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsam.algorithms import Q_LEARNING, QLearningProblem, build_problem, theory_constants
from fedsam.engine import FedRunConfig, FedSamProblem, run_batch, run_fedsam
from fedsam.errors import DivergenceError
from fedsam.harness import (
    Cell,
    ExperimentSpec,
    GeneratorParams,
    generate_instance,
    run_trial,
    run_trials,
    sweep,
)
from fedsam.mdp import cdf_table
from fedsam.sampling import invert_rows

LIMIT = QLearningProblem.lockstep_min_rows
TRACE_FIELDS = ("checkpoint_ts", "theta_bar_series", "delta_series", "omega_series",
                "output_theta", "final_theta_bar")


def outcome_key(outcome) -> tuple:
    """A trial's outcome as bytes: the trace's fields, or the divergence's (step, agent)."""
    if isinstance(outcome, DivergenceError):
        return ("diverged", outcome.step, outcome.agent)
    return (outcome.output_index,) + tuple(getattr(outcome, f).tobytes() for f in TRACE_FIELDS)


def run_alone(problem: FedSamProblem, configs: list[FedRunConfig]) -> list:
    """Each trial through `run_fedsam` on its own."""
    outcomes = []
    for config in configs:
        try:
            outcomes.append(run_fedsam(problem, config))
        except DivergenceError as exc:
            outcomes.append(exc)
    return outcomes


def scalar_problem(inst, generic: bool = False) -> FedSamProblem:
    """The instance's problem without its row step; with `generic`, also
    without its block kernel, so the guard sums the row after every step."""
    problem = build_problem(inst)
    problem.lockstep_min_rows = None
    if generic:
        problem.run_block = functools.partial(FedSamProblem.run_block, problem)
    return problem


class RowCounter:
    """Wraps a problem's `lockstep`: the row count of every step it takes."""

    def __init__(self, problem: FedSamProblem):
        self.rows_per_step: list[int] = []
        lockstep = problem.lockstep

        def counted(chains, horizon):
            rows = lockstep(chains, horizon)
            step = rows.step

            def counted_step(thetas, alpha):
                self.rows_per_step.append(len(thetas))
                return step(thetas, alpha)

            rows.step = counted_step
            return rows

        problem.lockstep = counted


class TestBatchEqualsTrialsAlone:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_states=st.integers(2, 5),
        n_actions=st.integers(1, 3),
        n_agents=st.integers(1, 6),
        periods=st.lists(st.sampled_from([1, 2, 3, 4, 8, 16, 64]), min_size=1, max_size=4,
                         unique=True),
        reps=st.integers(1, 4),
        horizon=st.integers(1, 300),
        stride=st.sampled_from([None, 1, 3, 16]),
        alpha=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
        output_c=st.sampled_from([0.9, 1.0]),
        forced=st.booleans(),
    )
    # rows on both sides of the limit; the output time inside a block of K = 4 and 16
    @example(seed=3, n_states=4, n_actions=2, n_agents=1, periods=[1, 4], reps=2, horizon=50,
             stride=None, alpha=0.3, output_c=1.0, forced=False)
    @example(seed=3, n_states=4, n_actions=2, n_agents=4, periods=[1, 4, 16], reps=2, horizon=50,
             stride=7, alpha=0.3, output_c=1.0, forced=False)
    def test_every_field_equals_the_trial_alone(self, seed, n_states, n_actions, n_agents,
                                                periods, reps, horizon, stride, alpha, output_c,
                                                forced):
        params = GeneratorParams(n_states=n_states, n_actions=n_actions, branching=2, gamma=0.6,
                                 n_agents=n_agents)
        inst = generate_instance(Q_LEARNING, params, seed)
        configs = [FedRunConfig(n_agents, k, alpha, horizon, output_c, seed * 1000 + 10 * k + r,
                                checkpoint_stride=stride)
                   for k in periods for r in range(reps)]
        problem = build_problem(inst)
        if forced:  # the row step at any row count
            problem.lockstep_min_rows = 1
        counter = RowCounter(problem)
        got = run_batch(problem, configs)
        want = run_alone(scalar_problem(inst), configs)
        assert [outcome_key(o) for o in got] == [outcome_key(o) for o in want]
        # the row count alone picks the path
        in_lockstep = forced or len(configs) * n_agents >= LIMIT
        assert bool(counter.rows_per_step) == in_lockstep
        if in_lockstep and not any(isinstance(o, DivergenceError) for o in got):
            assert counter.rows_per_step == [len(configs) * n_agents] * horizon

    def test_examples_cover_t_hat_inside_a_block(self):
        # the second example above: some trial's output time falls strictly inside a block
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.6, n_agents=4)
        inst = generate_instance(Q_LEARNING, params, 3)
        trace = run_fedsam(build_problem(inst), FedRunConfig(4, 16, 0.3, 50, 1.0, 3 * 1000 + 160,
                                                             checkpoint_stride=7))
        assert trace.output_index % 16 != 0
        assert 2 * 3 * 4 >= LIMIT > 2 * 2 * 1


@st.composite
def probability_rows(draw) -> list[list[float]]:
    """Rows of one width with zero-probability entries among them; the widths
    take every first-probe offset up to 9 and powers of two and their
    neighbours beyond."""
    width = draw(st.integers(1, 9) | st.sampled_from([15, 16, 17, 200, 255, 256, 257]))
    weight = st.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.25, 0.5, 1.0, 3.0])
    row = st.lists(weight, min_size=width, max_size=width).filter(lambda r: sum(r) > 0)
    return draw(st.lists(row, min_size=1, max_size=4))


class TestInvertRows:
    @settings(max_examples=200, deadline=None)
    @given(weights=probability_rows(),
           extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=5))
    def test_equals_bisect_right(self, weights, extra):
        probs = np.array([np.array(r) / sum(r) for r in weights])
        flat = cdf_table(probs)
        width = probs.shape[1]
        table = np.frombuffer(flat)
        # every entry below 1 (zero-probability entries repeat one), its neighbours, 0 and 1-ulp
        values = {0.0, float(np.nextafter(1.0, 0.0)), *extra}
        for entry in flat:
            if entry < 1.0:
                values |= {entry, float(np.nextafter(entry, 0.0)), float(np.nextafter(entry, 1.0))}
        us = np.array(sorted(v for v in values if 0.0 <= v < 1.0))
        for row in range(len(probs)):
            rows = np.full(len(us), row)
            lo = row * width
            want = [bisect_right(flat, u, lo, lo + width) - lo for u in us.tolist()]
            assert invert_rows(table, width, rows, us).tolist() == want


class TestLockstepGuard:
    """The batch's verdicts and failing (step, agent) are those of the generic
    per-step isfinite(np.add.reduce(theta)), trial by trial."""

    def test_verdicts_equal_per_step_row_sum(self):
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.8, n_agents=2)
        inst = generate_instance(Q_LEARNING, params, seed=11)
        lockstep, generic = build_problem(inst), scalar_problem(inst, generic=True)
        lockstep.lockstep_min_rows = 1
        bound = lockstep.finite_bound
        assert bound == sys.float_info.max / (2 * inst.dim)
        rng = np.random.default_rng(5)
        below = np.nextafter(bound, 0.0)
        starts = []
        for scale in (1e300, 1e306, 1e307, 0.5 * bound, below):
            starts.append(rng.uniform(-1.0, 1.0, inst.dim) * scale)
            starts.append(rng.choice([-1.0, 1.0], inst.dim) * scale)
        starts.append(np.full(inst.dim, below))
        starts.append(np.full(inst.dim, bound))  # at the bound: the rows are summed from the start
        for bad in (np.nan, np.inf, -np.inf):
            theta = rng.uniform(-1.0, 1.0, inst.dim)
            theta[1] = bad
            starts.append(theta)
        seen = {"crossed, still finite": 0, "some diverged, others not": 0, "diverged at once": 0}
        for theta in starts:
            for alpha in (0.5, 3.0, 50.0):
                configs = [FedRunConfig(2, k, alpha, 64, 0.9, 7 + r) for k in (1, 2, 5, 64)
                           for r in range(2)]
                for problem in (lockstep, generic):
                    problem.initial_theta = theta
                got, want = run_batch(lockstep, configs), run_alone(generic, configs)
                assert [outcome_key(o) for o in got] == [outcome_key(o) for o in want]
                steps = [o.step for o in got if isinstance(o, DivergenceError)]
                finite = [o for o in got if not isinstance(o, DivergenceError)]
                inside = np.abs(theta).max() < bound
                if inside and any(np.abs(o.theta_bar_series).max() >= bound for o in finite):
                    seen["crossed, still finite"] += 1
                if steps and finite:
                    seen["some diverged, others not"] += 1
                if not inside and steps and min(steps) == 0:
                    seen["diverged at once"] += 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_a_barrier_overflow_is_seen_at_the_next_block_start(self, k):
        # every row starts inside the bound, with one entry at 0.9 bound in all
        # five agents: the barrier's average overflows to inf in an entry that
        # the next step may not write, so only the block-start scan sees it
        params = GeneratorParams(n_states=2, n_actions=1, branching=2, gamma=0.8, n_agents=5)
        inst = generate_instance(Q_LEARNING, params, seed=1)
        lockstep, generic = build_problem(inst), scalar_problem(inst, generic=True)
        lockstep.lockstep_min_rows = 1
        after_a_barrier = 0
        for entry in range(inst.dim):
            theta = np.ones(inst.dim)
            theta[entry] = 0.9 * lockstep.finite_bound
            for problem in (lockstep, generic):
                problem.initial_theta = theta
            for alpha in (0.01, 0.1, 0.5):
                configs = [FedRunConfig(5, k, alpha, 32, 0.9, r, checkpoint_stride=32)
                           for r in range(3)]
                got, want = run_batch(lockstep, configs), run_alone(generic, configs)
                assert [outcome_key(o) for o in got] == [outcome_key(o) for o in want]
                after_a_barrier += sum(isinstance(o, DivergenceError) and o.step == k for o in got)
        assert after_a_barrier


class TestDivergenceInsideABatch:
    # found by search: at alpha 6 and T = 1113 the K = 1 trials stay finite and
    # every K = 64 trial blows up near the end, at different (step, agent)
    SPEC = dict(name="mixed", kind=Q_LEARNING,
                params=GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.6, n_agents=3),
                n_agents_grid=[3], sync_periods=[1, 64], alpha_grid=[6.0], horizon=1113,
                replications=3, master_seed=3)

    def test_each_trial_equals_the_trial_alone(self):
        spec = ExperimentSpec(**self.SPEC)
        assert 2 * 3 * 3 >= LIMIT > 3  # one lockstep batch; each trial alone runs its kernel
        result = sweep(spec)
        inst = generate_instance(Q_LEARNING, spec.params, spec.master_seed)
        fields = ("status", "diverged_step", "diverged_agent", "t_hat", "mse", "final_sq_error",
                  "checkpoint_ts", "error_series", "omega_series")
        got = [[getattr(t, f) for f in fields] for t in result.trials]
        want = [[getattr(run_trial(inst, cell, rep, spec.master_seed), f) for f in fields]
                for cell in spec.cells() for rep in range(spec.replications)]
        assert repr(got) == repr(want)
        assert [(t.sync_period, t.status, t.diverged_step, t.diverged_agent)
                for t in result.trials] == [
            (1, "ok", None, None), (1, "ok", None, None), (1, "ok", None, None),
            (64, "diverged", 1097, 1), (64, "diverged", 1093, 0), (64, "diverged", 1104, 1),
        ]

    def test_a_diverged_trial_stays_in_the_batch(self):
        spec = ExperimentSpec(**self.SPEC)
        inst = generate_instance(Q_LEARNING, spec.params, spec.master_seed)
        problem = build_problem(inst)
        counter = RowCounter(problem)
        trials = run_trials(problem, theory_constants(inst),
                            [Cell(3, 1, 6.0, 1113), Cell(3, 64, 6.0, 1113)], range(3), 3)
        assert [t.status for t in trials] == ["ok"] * 3 + ["diverged"] * 3
        # a failed trial's rows stay in place, masked: every row steps to T
        assert counter.rows_per_step == [18] * 1113

    def test_a_batch_of_failed_trials_stops_after_the_last_failing_step(self):
        spec = ExperimentSpec(**self.SPEC)
        inst = generate_instance(Q_LEARNING, spec.params, spec.master_seed)
        problem = build_problem(inst)
        counter = RowCounter(problem)
        cell = Cell(3, 64, 6.0, 1113)
        trials = run_trials(problem, theory_constants(inst), [cell], range(6), 3)
        assert [(t.status, t.diverged_step, t.diverged_agent) for t in trials] == [
            (run.status, run.diverged_step, run.diverged_agent)
            for run in (run_trial(inst, cell, rep, spec.master_seed) for rep in range(6))
        ]
        assert all(t.status == "diverged" for t in trials)
        last = max(t.diverged_step for t in trials)
        assert last == 1104
        # the block that holds the last failing step ends at the next checkpoint
        # (a stride of 2 at T = 1113), and no row steps past it
        assert counter.rows_per_step == [18] * 1106
