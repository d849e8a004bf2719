"""Generic loop mechanics: output sampling, stepping, syncing, determinism."""

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedsam.algorithms import OFF_POLICY_TD_TABULAR, ON_POLICY_TD_LFA, Q_LEARNING, build_problem
from fedsam.engine import (
    FedRunConfig,
    FedSamProblem,
    checkpoint_stats,
    norm,
    output_time_distribution,
    row_norms,
    run_fedsam,
    sample_output_index,
    sync_errors,
)
from fedsam.errors import DivergenceError
from fedsam.harness import GeneratorParams, generate_instance
from fedsam.sampling import TAG_NOISE, stream
from fedsam.validation import noise_average_diagnostic


class ClosureProblem(FedSamProblem):
    """A FedSamProblem whose operators and noise are the callables given."""

    def __init__(self, dim, n_agents, apply_g, apply_b, make_noise, **kwargs):
        self.apply_g, self.apply_b, self.make_noise = apply_g, apply_b, make_noise
        super().__init__(dim, n_agents, **kwargs)


def past_dbl_max(theta):
    """theta scaled past DBL_MAX: inf (with its sign) wherever theta is not
    tiny, and 0 where it is 0, so an operator built on it keeps G(i, 0, y) = 0."""
    return theta * 1e300 * 1e300


class _NullNoise:
    def step(self):
        return None


class _StepCounter:
    """Noise whose t-th sample is t."""

    def __init__(self):
        self.t = -1

    def step(self):
        self.t += 1
        return self.t


class _RngNoise:
    """Scalar standard-normal noise stream."""

    def __init__(self, rng):
        self.rng = rng

    def step(self):
        return float(self.rng.normal())


def deterministic_problem(gamma_c: float, dim: int = 1, n_agents: int = 1) -> FedSamProblem:
    return ClosureProblem(
        dim=dim,
        n_agents=n_agents,
        apply_g=lambda i, th, y: gamma_c * th,
        apply_b=lambda i, y: np.zeros(dim),
        make_noise=lambda i, rng: _NullNoise(),
        norm_kind="sup",
        initial_theta=np.ones(dim),
    )


def iid_problem(n_agents: int = 1) -> FedSamProblem:
    return ClosureProblem(
        dim=1,
        n_agents=n_agents,
        apply_g=lambda i, th, y: np.zeros(1),
        apply_b=lambda i, y: np.array([y]),
        make_noise=lambda i, rng: _RngNoise(rng),
        norm_kind="sup",
        initial_theta=np.ones(1),
    )


class TestOutputTimeDistribution:
    def test_single_point(self):
        assert np.array_equal(output_time_distribution(2.0, 1), [1.0])

    def test_direct_evaluation(self):
        q = output_time_distribution(2.0, 3)
        assert np.allclose(q, [4 / 7, 2 / 7, 1 / 7], atol=1e-15)

    def test_weights_increase_when_c_below_one(self):
        q = output_time_distribution(1 - 0.05, 100)
        assert np.all(np.diff(q) > 0)

    def test_normalization_extremes(self):
        for c in (0.5, 1 - 1e-6, 2.0):
            for horizon in (1, 10, 100_000):
                assert abs(output_time_distribution(c, horizon).sum() - 1.0) <= 1e-12

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            output_time_distribution(0.0, 5)
        with pytest.raises(ValueError):
            output_time_distribution(1.0, 0)

    def test_empirical_output_index_frequencies(self):
        # the per-seed sampling path used by the engine, against q, 3 sigma per bin
        c, horizon, draws = 0.5, 10, 3000
        q = output_time_distribution(c, horizon)
        counts = np.bincount(
            [sample_output_index(seed, c, horizon) for seed in range(draws)], minlength=horizon
        ).astype(float)
        sigma = np.sqrt(draws * q * (1 - q))
        assert np.all(np.abs(counts - draws * q) <= 3 * sigma)


def traced(prob: FedSamProblem, n_agents: int = 1, sync_period: int = 1, step_size: float = 0.1,
           horizon: int = 8):
    """run_fedsam with a checkpoint at every step."""
    cfg = FedRunConfig(
        n_agents=n_agents, sync_period=sync_period, step_size=step_size, horizon=horizon,
        output_c=0.9, master_seed=0, checkpoint_stride=1,
    )
    return run_fedsam(prob, cfg)


class TestLocalStep:
    def test_fixed_point_input_unchanged(self):
        prob = ClosureProblem(
            dim=1, n_agents=1,
            apply_g=lambda i, th, y: th,
            apply_b=lambda i, y: np.zeros(1),
            make_noise=lambda i, rng: _NullNoise(),
            initial_theta=np.array([1.7]),
        )
        assert np.array_equal(traced(prob, step_size=0.3).theta_bar_series, np.full((9, 1), 1.7))

    def test_zero_step_unchanged(self):
        prob = deterministic_problem(0.25)
        assert np.array_equal(traced(prob, step_size=0.0).theta_bar_series, np.ones((9, 1)))

    def test_hand_arithmetic(self):
        # G = 0.5 theta, b = 1, theta = 2, alpha = 0.1: 2 + 0.1(1 - 2 + 1) = 2.0
        prob = ClosureProblem(
            dim=1, n_agents=1,
            apply_g=lambda i, th, y: 0.5 * th,
            apply_b=lambda i, y: np.ones(1),
            make_noise=lambda i, rng: _NullNoise(),
            initial_theta=np.array([2.0]),
        )
        trace = traced(prob, step_size=0.1, horizon=1)
        assert trace.theta_bar_series[1, 0] == pytest.approx(2.0, abs=1e-15)

    def test_divergence_error_carries_context(self):
        def blow_up(i, th, y):
            return past_dbl_max(th) if (i, y) == (3, 17) else 0.5 * th

        prob = ClosureProblem(
            dim=1, n_agents=4,
            apply_g=blow_up,
            apply_b=lambda i, y: np.zeros(1),
            make_noise=lambda i, rng: _StepCounter(),
            initial_theta=np.ones(1),
        )
        with pytest.raises(DivergenceError) as err:
            traced(prob, n_agents=4, sync_period=50, step_size=0.5, horizon=50)
        assert err.value.step == 17 and err.value.agent == 3

    def test_divergence_reports_earliest_step_then_lowest_agent(self):
        # in one block, agent 2 blows up at step 3 and agents 1 and 3 at step 2
        fail_at = {1: 2, 2: 3, 3: 2}

        def blow_up(i, th, y):
            return past_dbl_max(th) if fail_at.get(i) == y else 0.5 * th

        prob = ClosureProblem(
            dim=1, n_agents=4,
            apply_g=blow_up,
            apply_b=lambda i, y: np.zeros(1),
            make_noise=lambda i, rng: _StepCounter(),
            initial_theta=np.ones(1),
        )
        with pytest.raises(DivergenceError) as err:
            traced(prob, n_agents=4, sync_period=8, step_size=0.5, horizon=8)
        assert (err.value.step, err.value.agent) == (2, 1)

    def test_finite_entries_with_overflowing_sum_diverge(self):
        # every entry stays finite, but the row sum the guard takes overflows
        prob = ClosureProblem(
            dim=2, n_agents=2,
            apply_g=lambda i, th, y: th,
            apply_b=lambda i, y: np.full(2, 1e308) if (i, y) == (1, 5) else np.zeros(2),
            make_noise=lambda i, rng: _StepCounter(),
        )
        with pytest.raises(DivergenceError) as err:
            traced(prob, n_agents=2, sync_period=8, step_size=1.0, horizon=8)
        assert err.value.step == 5 and err.value.agent == 1

    @pytest.mark.parametrize("kind, alpha, earliest",
                             [(OFF_POLICY_TD_TABULAR, 4.0, (2, 2)), (Q_LEARNING, 3.0, (7, 2))])
    def test_tabular_finite_entries_with_overflowing_sum_diverge(self, kind, alpha, earliest):
        # every entry starts at 0.4 DBL_MAX / dim, inside the kernels' bound of
        # DBL_MAX / (2 dim); the steps grow them until the row sum overflows
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.5, n_agents=3)
        inst = generate_instance(kind, params, 2024)
        start = np.full(inst.dim, 0.4 * sys.float_info.max / inst.dim)
        cfg = FedRunConfig(n_agents=3, sync_period=8, step_size=alpha, horizon=64, output_c=0.9,
                           master_seed=3)
        problem, generic = build_problem(inst), build_problem(inst)
        generic.run_block = functools.partial(FedSamProblem.run_block, generic)
        failures = []
        for p in (problem, generic):
            p.initial_theta = start
            with pytest.raises(DivergenceError) as err:
                run_fedsam(p, cfg)
            failures.append((err.value.step, err.value.agent))
        assert failures == [earliest, earliest]
        step, agent = earliest
        # the failing agent has not yet met a barrier, and its entries are finite there
        noise = problem.make_noise(agent, stream(cfg.master_seed, TAG_NOISE, agent))
        theta = start.copy()
        with np.errstate(over="ignore"):
            for y in noise.steps(step + 1):
                theta = FedSamProblem.update(problem, agent, theta, y, cfg.step_size)
            assert np.isfinite(theta).all() and not np.isfinite(np.add.reduce(theta))


class TestSyncAverage:
    def test_identical_agents_unchanged(self):
        # three copies of one exact dyadic recursion (theta <- 0.75 theta):
        # the barrier after every step leaves identical rows as they are, so
        # the run equals the single-agent run bitwise
        def problem(n_agents):
            return ClosureProblem(
                dim=2, n_agents=n_agents,
                apply_g=lambda i, th, y: 0.5 * th,
                apply_b=lambda i, y: np.zeros(2),
                make_noise=lambda i, rng: _NullNoise(),
                initial_theta=np.array([1.0, 2.0]),
            )

        solo = traced(problem(1), step_size=0.5)
        three = traced(problem(3), n_agents=3, step_size=0.5)
        assert np.array_equal(three.theta_bar_series, solo.theta_bar_series)
        assert np.array_equal(three.final_theta_bar, solo.final_theta_bar)
        assert np.array_equal(three.theta_bar_series[-1], 0.75**8 * np.array([1.0, 2.0]))
        assert not three.omega_series.any()

    def test_two_scalars(self):
        # G = theta, b_i = 1 + 2i, alpha = 1: the rows 1 and 3 average to 2
        prob = ClosureProblem(
            dim=1, n_agents=2,
            apply_g=lambda i, th, y: th,
            apply_b=lambda i, y: np.array([1.0 + 2.0 * i]),
            make_noise=lambda i, rng: _NullNoise(),
        )
        trace = traced(prob, n_agents=2, step_size=1.0, horizon=1)
        assert trace.theta_bar_series[1, 0] == 2.0
        assert trace.omega_series[1] == 0.0

    def test_idempotent(self):
        # identical agents: averaging their identical rows at every step
        # changes nothing, so K=1 and a single final barrier agree bitwise
        prob = ClosureProblem(
            dim=3, n_agents=4,
            apply_g=lambda i, th, y: 0.3 * th,
            apply_b=lambda i, y: np.array([0.7, -0.1, 1.3]),
            make_noise=lambda i, rng: _NullNoise(),
            initial_theta=np.random.default_rng(0).standard_normal(3),
        )
        every_step = traced(prob, n_agents=4, sync_period=1, horizon=40)
        once = traced(prob, n_agents=4, sync_period=40, horizon=40)
        assert np.array_equal(every_step.theta_bar_series, once.theta_bar_series)
        assert np.array_equal(every_step.final_theta_bar, once.final_theta_bar)

    def test_shape_error(self):
        # the barrier averages an (N, dim) matrix tiled from initial_theta,
        # so a start that is not one dim-vector is rejected up front
        for bad in (np.zeros((3, 1)), np.zeros(3)):
            with pytest.raises(ValueError, match="initial_theta"):
                ClosureProblem(
                    dim=1, n_agents=3,
                    apply_g=lambda i, th, y: th,
                    apply_b=lambda i, y: np.zeros(1),
                    make_noise=lambda i, rng: _NullNoise(),
                    initial_theta=bad,
                )


class TestSyncErrors:
    def test_identical_agents(self):
        assert sync_errors(np.ones((3, 2))) == (0.0, 0.0)

    def test_two_scalar_agents_sup(self):
        delta, omega = sync_errors(np.array([[0.0], [2.0]]), "sup")
        assert (delta, omega) == (1.0, 1.0)

    def test_jensen_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            thetas = rng.standard_normal((5, 4))
            delta, omega = sync_errors(thetas, "l2")
            assert delta**2 <= omega + 1e-12

    @pytest.mark.parametrize("kind", ["sup", "l2"])
    def test_equals_per_row_definition_bit_for_bit(self, kind):
        def per_row(thetas):
            if (thetas == thetas[0]).all():
                return 0.0, 0.0
            mean = thetas.mean(axis=0)
            dists = np.array([norm(mean - row, kind) for row in thetas])
            return float(dists.mean()), float((dists**2).mean())

        rng = np.random.default_rng(2)
        # few distinct values, +-0.0 among them, give tied entries and tied
        # rows; copies of one row are the state right after a barrier
        pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -3.0])
        for case in range(600):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            thetas = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
            if case % 3 == 1:
                thetas = rng.choice(pool, shape)
            elif case % 3 == 2:
                thetas[:] = thetas[0]
            got, want = sync_errors(thetas, kind), per_row(thetas)
            assert np.array(got).tobytes() == np.array(want).tobytes(), thetas


def agent_rows(max_rows: int = 8, max_dim: int = 40):
    """Float matrices whose magnitudes span the double range, with ties, signed
    zeros and non-finite entries among them."""
    shapes = st.tuples(st.integers(1, max_rows), st.integers(1, max_dim))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(
        allow_nan=True, allow_infinity=True, width=64)))


class TestRowNormBits:
    """row_norms and the checkpoint statistics on it, pinned to the per-row
    definitions bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(mat=agent_rows(), kind=st.sampled_from(["sup", "l2"]))
    def test_row_norms_equal_per_row_norm(self, mat, kind):
        with np.errstate(over="ignore", invalid="ignore"):
            got = row_norms(mat, kind)
            want = np.array([norm(row, kind) for row in mat])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(mat=agent_rows(), kind=st.sampled_from(["sup", "l2"]))
    def test_sync_errors_equal_the_mean_of_per_row_norms(self, mat, kind):
        with np.errstate(over="ignore", invalid="ignore"):
            got = sync_errors(mat, kind)
            if (mat == mat[0]).all():
                want = (0.0, 0.0)
            else:
                dists = np.array([norm(mat.mean(axis=0) - row, kind) for row in mat])
                want = (float(dists.mean()), float((dists**2).mean()))
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["sup", "l2"]))
    def test_checkpoint_stats_equal_each_trial_alone(self, data, kind):
        trials, n, dim = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(1, 12)))
        values = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e300, -1e308, 5e-324]) | st.floats(-1e6, 1e6)
        stack = data.draw(hnp.arrays(np.float64, (trials, n, dim), elements=values))
        for b in data.draw(st.sets(st.integers(0, trials - 1))):
            stack[b] = stack[b, 0]  # bit-identical rows, as right after a barrier
        lo = data.draw(st.integers(0, trials - 1))
        hi = data.draw(st.integers(lo + 1, trials))
        picked = sorted(data.draw(st.sets(st.integers(0, trials - 1), min_size=1)))
        for selection, members in ((slice(lo, hi), range(lo, hi)), (np.array(picked), picked)):
            with np.errstate(over="ignore", invalid="ignore"):
                means, deltas, omegas = checkpoint_stats(stack, selection, kind)
                for i, b in enumerate(members):
                    mat = stack[b]
                    assert means[i].tobytes() == (np.add.reduce(mat, 0) / n).tobytes()
                    got = np.array([deltas[i], omegas[i]])
                    assert got.tobytes() == np.array(sync_errors(mat, kind)).tobytes()
                    if (mat == mat[0]).all():
                        assert got.tobytes() == np.zeros(2).tobytes()
                    else:
                        dists = np.array([norm(mat.mean(axis=0) - row, kind) for row in mat])
                        want = np.array([dists.mean(), (dists**2).mean()])
                        assert got.tobytes() == want.tobytes()


class TestProblemRegistration:
    def test_zero_fixed_point_enforced(self):
        # a NaN or infinite G(0) is no zero either
        for shift in (1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="fixed point"):
                ClosureProblem(
                    dim=1, n_agents=1,
                    apply_g=lambda i, th, y: th + shift,
                    apply_b=lambda i, y: np.zeros(1),
                    make_noise=lambda i, rng: _NullNoise(),
                )

    def test_config_validation(self):
        good = dict(n_agents=1, sync_period=1, step_size=0.1, horizon=10, output_c=1.0, master_seed=0)
        FedRunConfig(**good)
        for key, bad in [("n_agents", 0), ("output_c", 0.0), ("step_size", np.nan),
                         ("step_size", np.inf), ("output_c", np.nan), ("output_c", np.inf)]:
            with pytest.raises(ValueError, match=key):
                FedRunConfig(**{**good, key: bad})

    def test_short_horizon_warning(self):
        cfg = FedRunConfig(n_agents=1, sync_period=4, step_size=0.1, horizon=10, output_c=0.9, master_seed=0)
        with pytest.warns(UserWarning, match="horizon"):
            cfg.warn_if_short_horizon(tau_alpha=8)


class TestRunFedsam:
    def test_deterministic_linear_recursion(self):
        # alpha and gamma_c are powers of two, so each step is exact:
        # theta_{t+1} = (1 - 0.5 * 0.5) theta_t = 0.75 theta_t
        prob = deterministic_problem(0.5)
        cfg = FedRunConfig(
            n_agents=1, sync_period=1, step_size=0.5, horizon=32, output_c=0.9,
            master_seed=1, checkpoint_stride=1,
        )
        trace = run_fedsam(prob, cfg)
        expected = 1.0
        for t, row in zip(trace.checkpoint_ts, trace.theta_bar_series):
            assert row[0] == expected
            expected *= 0.75

    def test_omega_zero_exactly_at_sync_instants(self):
        prob = iid_problem(n_agents=4)
        cfg = FedRunConfig(
            n_agents=4, sync_period=5, step_size=0.2, horizon=100, output_c=0.99,
            master_seed=3, checkpoint_stride=1,
        )
        trace = run_fedsam(prob, cfg)
        for t, omega in zip(trace.checkpoint_ts, trace.omega_series):
            if t % 5 == 0:
                assert omega == 0.0
        assert any(om > 0 for t, om in zip(trace.checkpoint_ts, trace.omega_series) if t % 5 != 0)

    def test_engine_run_reproduces_iid_second_moment(self):
        # the scalar recursion through the engine path (G = 0, b = X_t):
        # E[x_T^2] at T=40 matches the exact bias+variance decomposition
        alpha, sigma, x0, horizon, runs = 0.25, 1.0, 1.0, 40, 2000
        base = dict(
            n_agents=1, sync_period=1, step_size=alpha, horizon=horizon, output_c=0.99,
        )
        prob = iid_problem(n_agents=1)
        finals = np.empty(runs)
        for seed in range(runs):
            trace = run_fedsam(prob, FedRunConfig(**base, master_seed=seed))
            finals[seed] = trace.final_theta_bar[0]
        tail = alpha * sigma**2 / (2 - alpha)
        exact = (x0**2 - tail) * (1 - alpha) ** (2 * horizon) + tail
        sq = finals**2
        se = sq.std(ddof=1) / np.sqrt(runs)
        assert abs(sq.mean() - exact) <= 3 * se

    def test_engine_matches_direct_recursion_bitwise(self):
        # single agent, K=1: the loop must equal the hand-rolled recursion
        # driven by an identically keyed stream
        prob = iid_problem(n_agents=1)
        cfg = FedRunConfig(
            n_agents=1, sync_period=1, step_size=0.25, horizon=64, output_c=0.99,
            master_seed=123, checkpoint_stride=1,
        )
        trace = run_fedsam(prob, cfg)
        rng = stream(123, 1, 0)  # TAG_NOISE, agent 0
        x = 1.0
        xs = [x]
        for _ in range(64):
            x = x + 0.25 * (float(rng.normal()) - x)
            xs.append(x)
        assert np.array_equal(trace.theta_bar_series[:, 0], np.array(xs))

    def test_divergence_reports_earliest_step(self):
        def blow_up(i, th, y):
            return th * (1e60 if i == 1 else 0.5)

        prob = ClosureProblem(
            dim=1, n_agents=2,
            apply_g=blow_up,
            apply_b=lambda i, y: np.zeros(1),
            make_noise=lambda i, rng: _NullNoise(),
            initial_theta=np.ones(1),
        )
        cfg = FedRunConfig(
            n_agents=2, sync_period=50, step_size=1.0, horizon=50, output_c=0.9, master_seed=0
        )
        with pytest.raises(DivergenceError) as err:
            run_fedsam(prob, cfg)
        assert err.value.agent == 1
        assert err.value.step <= 10

    def test_agent_count_mismatch_rejected(self):
        prob = iid_problem(n_agents=2)
        cfg = FedRunConfig(n_agents=3, sync_period=1, step_size=0.1, horizon=10, output_c=0.9, master_seed=0)
        with pytest.raises(ValueError, match="n_agents"):
            run_fedsam(prob, cfg)


class TestBlockEnds:
    """Blocks end at barriers and at the recorded points, nowhere else."""

    @pytest.mark.parametrize("kind", [None, Q_LEARNING])
    def test_blocks_end_at_barriers_checkpoints_and_output_time(self, kind):
        if kind is None:
            problem = iid_problem(n_agents=2)
        else:
            params = GeneratorParams(n_states=4, n_actions=2, branching=2, n_agents=2)
            problem = build_problem(generate_instance(kind, params, seed=4))
        calls = []
        run_block = problem.run_block

        def recorded(agent, theta, noise, t_start, t_stop, alpha):
            calls.append((agent, t_start, t_stop))
            return run_block(agent, theta, noise, t_start, t_stop, alpha)

        problem.run_block = recorded
        big_t, k, stride = 30, 4, 3
        cfg = FedRunConfig(n_agents=2, sync_period=k, step_size=0.1, horizon=big_t,
                           output_c=0.9, master_seed=1, checkpoint_stride=stride)
        trace = run_fedsam(problem, cfg)
        t_hat = trace.output_index
        assert t_hat % k and t_hat % stride  # inside a sync period, off the checkpoints
        ends = sorted(set(range(k, big_t + 1, k)) | set(range(stride, big_t + 1, stride))
                      | {t_hat, big_t})
        for agent in range(2):
            blocks = [(t_start, t_stop) for i, t_start, t_stop in calls if i == agent]
            assert blocks == list(zip([0] + ends[:-1], ends))


class TestNoiseAverageDiagnostic:
    def test_zero_noise_gives_zero(self):
        prob = deterministic_problem(0.5, n_agents=2)
        assert noise_average_diagnostic(prob, 2, r=0, n_samples=100) == 0.0

    def test_single_agent_below_bound(self):
        class _Bounded:
            def __init__(self, rng):
                self.rng = rng

            def step(self):
                return float(self.rng.uniform(-1, 1))

        prob = ClosureProblem(
            dim=1, n_agents=1,
            apply_g=lambda i, th, y: np.zeros(1),
            apply_b=lambda i, y: np.array([y]),
            make_noise=lambda i, rng: _Bounded(rng),
        )
        assert noise_average_diagnostic(prob, 1, r=2, n_samples=500) <= 1.0

    def test_clt_scaling(self):
        est = {
            n: noise_average_diagnostic(iid_problem(n), n, r=0, n_samples=4000, master_seed=5)
            for n in (1, 16)
        }
        ratio = est[16] / est[1]
        assert abs(ratio * 4.0 - 1.0) <= 0.2


class TestWrappedProblems:
    """Operators and noise assigned on a built problem, as an outside tracer does."""

    @pytest.mark.parametrize("kind", [ON_POLICY_TD_LFA, Q_LEARNING])
    def test_wrapped_problem_runs_and_makes_noise_through_wrapper(self, kind):
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, d=2, n_agents=3)
        inst = generate_instance(kind, params, seed=4)
        calls = {"apply_g": 0, "apply_b": 0, "make_noise": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        problem = build_problem(inst)
        problem.apply_g = counted("apply_g", problem.apply_g)
        problem.apply_b = counted("apply_b", problem.apply_b)
        make_noise = problem.make_noise

        def wrapped_make_noise(agent, rng):
            noise = make_noise(agent, rng)
            noise.step = counted("step", noise.step)
            return noise

        problem.make_noise = counted("make_noise", wrapped_make_noise)
        cfg = FedRunConfig(n_agents=3, sync_period=4, step_size=0.1, horizon=40, output_c=0.9,
                           master_seed=2, checkpoint_stride=1)
        wrapped, plain = run_fedsam(problem, cfg), run_fedsam(build_problem(inst), cfg)
        assert wrapped.theta_bar_series.tobytes() == plain.theta_bar_series.tobytes()
        assert calls["make_noise"] == 3
        # linear features keep the generic step through apply_g and apply_b;
        # Q-learning's fused step reads its tables directly
        steps = 3 * 40 if kind == ON_POLICY_TD_LFA else 0
        assert (calls["apply_g"], calls["apply_b"]) == (steps, steps)
