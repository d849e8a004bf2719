"""Generators, trials, sweeps, the scalar recursion study, persistence."""

import concurrent.futures
import dataclasses
import errno
import hashlib
import json
import math
import os
import pickle
import statistics
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedsam.algorithms import (
    OFF_POLICY_TD_TABULAR,
    ON_POLICY_TD_LFA,
    Q_LEARNING,
    AlgorithmInstance,
    theory_constants,
)
from fedsam import harness
from fedsam.engine import FedRunConfig, RunTrace, norm
from fedsam.harness import (
    Cell,
    ExperimentSpec,
    GeneratorParams,
    build_instance_for_spec,
    generate_instance,
    instance_from_files,
    k_trend_z,
    load_results,
    persist,
    run_trial,
    spearman_trend,
    speedup_slope,
    sub_instance,
    sweep,
    worker_count,
)
from fedsam.mdp import Mdp, Policy, eigen_moduli, policy_transition_matrix, stationary_distribution
from fedsam.sampling import MixingEstimate, mixing_diagnostics, tau_alpha
from fedsam.validation import iid_scalar_validation, iid_second_moment_exact

SMALL = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.6, d=2, n_step=1, n_agents=4)


def small_spec(**kw) -> ExperimentSpec:
    base = dict(
        name="unit",
        kind=Q_LEARNING,
        params=SMALL,
        n_agents_grid=[1, 4],
        sync_periods=[1, 8],
        alpha_grid=[0.1],
        horizon=200,
        replications=3,
        master_seed=5,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def trial_key(t):
    d = dataclasses.asdict(t)
    d.pop("wall_ms")
    return d


def trial_key_list(result):
    return [trial_key(t) for t in result.trials]


class TestGenerator:
    def test_generated_chains_are_ergodic_for_all_seeds(self):
        for seed in range(100):
            inst = generate_instance(OFF_POLICY_TD_TABULAR, SMALL, seed=seed)
            for behavior in inst.behaviors:
                mu = stationary_distribution(policy_transition_matrix(inst.mdp, behavior))
                assert mu.min() > 0

    def test_features_have_full_rank_for_all_seeds(self):
        for seed in range(100):
            inst = generate_instance(ON_POLICY_TD_LFA, SMALL, seed=seed)
            assert np.linalg.matrix_rank(inst.features.phi, tol=1e-10) == SMALL.d

    def test_importance_ratios_bounded_by_coverage_floor(self):
        params = GeneratorParams(n_states=4, n_actions=4, branching=2, gamma=0.6, eps_cov=0.05, n_agents=6)
        for seed in range(20):
            inst = generate_instance(OFF_POLICY_TD_TABULAR, params, seed=seed)
            tc = theory_constants(inst)
            assert tc.imax <= 1.0 / 0.05
            for behavior in inst.behaviors:
                assert behavior.probs.min() > 0

    def test_agents_get_distinct_behaviors(self):
        inst = generate_instance(OFF_POLICY_TD_TABULAR, SMALL, seed=3)
        probs = [b.probs.tobytes() for b in inst.behaviors]
        assert len(set(probs)) == len(probs)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="d must not exceed"):
            GeneratorParams(n_states=3, d=5).validate()

    def test_round_trip_through_files(self, tmp_path):
        inst = generate_instance(OFF_POLICY_TD_TABULAR, SMALL, seed=9)
        (tmp_path / "mdp.json").write_text(inst.mdp.to_json())
        policies = {
            "target": inst.target.probs.tolist(),
            "behaviors": [b.probs.tolist() for b in inst.behaviors],
        }
        (tmp_path / "policies.json").write_text(json.dumps(policies))
        clone = instance_from_files(
            OFF_POLICY_TD_TABULAR, tmp_path / "mdp.json", tmp_path / "policies.json",
            n_step=SMALL.n_step,
        )
        assert np.array_equal(clone.mdp.transition, inst.mdp.transition)
        assert np.array_equal(clone.fixed_point, inst.fixed_point)


class TestRunTrial:
    def test_zero_step_size_keeps_initial_error(self):
        inst = generate_instance(Q_LEARNING, SMALL, seed=1)
        cell = Cell(n_agents=4, sync_period=4, alpha=0.0, horizon=50)
        result = run_trial(inst, cell, replication=0, master_seed=2)
        init_err = float(np.abs(inst.flat_fixed_point()).max())
        assert result.mse == init_err**2
        assert result.final_sq_error == init_err**2

    def test_same_cell_and_seed_reproduce_identically(self):
        inst = generate_instance(Q_LEARNING, SMALL, seed=1)
        cell = Cell(n_agents=4, sync_period=2, alpha=0.1, horizon=150)
        a = run_trial(inst, cell, replication=3, master_seed=7)
        b = run_trial(inst, cell, replication=3, master_seed=7)
        assert trial_key(a) == trial_key(b)

    def test_divergence_recorded_not_raised(self):
        inst = generate_instance(Q_LEARNING, SMALL, seed=1)
        cell = Cell(n_agents=2, sync_period=1, alpha=1e6, horizon=200)
        with pytest.warns(RuntimeWarning, match="c_out"):
            result = run_trial(inst, cell, replication=0, master_seed=3)
        assert result.status == "diverged"
        assert math.isnan(result.mse)

    def test_divergence_keeps_step_and_agent(self):
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.5, n_agents=2)
        inst = generate_instance(OFF_POLICY_TD_TABULAR, params, 2024)
        with pytest.warns(RuntimeWarning, match="c_out"):
            result = run_trial(inst, Cell(2, 1, 1e6, 200), 0, 2024)
        assert result.status == "diverged"
        assert (result.diverged_step, result.diverged_agent) == (66, 0)
        ok = run_trial(inst, Cell(2, 1, 0.1, 200), 0, 2024)
        assert (ok.diverged_step, ok.diverged_agent) == (None, None)

    def test_finite_overflow_recorded_as_diverged(self):
        # the iterates stay finite, but squaring their norm overflows a float
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.5, n_agents=2)
        inst = generate_instance(OFF_POLICY_TD_TABULAR, params, 2024)
        with pytest.warns(RuntimeWarning, match="c_out"):
            result = run_trial(inst, Cell(2, 1, 50.0, 200), 0, 2024)
        assert result.status == "diverged"
        assert result.t_hat == -1 and math.isnan(result.mse)
        assert result.error_series == []
        # no iterate turned non-finite, so there is no step or agent to keep
        assert (result.diverged_step, result.diverged_agent) == (None, None)

    def test_nonpositive_c_out_fallback_is_reported(self):
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.5, n_agents=2)
        inst = generate_instance(OFF_POLICY_TD_TABULAR, params, 2024)
        cell = Cell(2, 1, 50.0, 200)
        assert round(theory_constants(inst).c_out(cell.alpha), 2) == -0.34
        with pytest.warns(RuntimeWarning) as record:
            run_trial(inst, cell, 0, 2024)
        message = str(record[0].message)
        assert "cell (2, 1, 50.0, 200)" in message
        assert "c_out = -0.34" in message and "alpha_eff = 50.0" in message

    def test_positive_c_out_is_used_silently(self):
        inst = generate_instance(OFF_POLICY_TD_TABULAR, SMALL, 2024)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_trial(inst, Cell(4, 1, 0.1, 50), 0, 2024)

    def test_single_node_five_state_td_converges(self):
        params = GeneratorParams(n_states=5, n_actions=2, branching=2, gamma=0.3, d=2, n_step=1, n_agents=1)
        inst = generate_instance(OFF_POLICY_TD_TABULAR, params, seed=2024)
        cell = Cell(n_agents=1, sync_period=1, alpha=0.01, horizon=200_000)
        result = run_trial(inst, cell, replication=0, master_seed=11, checkpoint_stride=5000)
        assert result.status == "ok"
        assert result.final_sq_error <= 0.05**2
        assert not result.late_blowup()

    def test_late_blowup_flag(self):
        inst = generate_instance(Q_LEARNING, SMALL, seed=1)
        cell = Cell(n_agents=1, sync_period=1, alpha=0.05, horizon=2000)
        result = run_trial(inst, cell, replication=0, master_seed=5, checkpoint_stride=50)
        assert not result.late_blowup()
        rising = dataclasses.replace(
            result, error_series=list(np.linspace(0.1, 2.0, len(result.error_series)))
        )
        assert rising.late_blowup()


class TestSweep:
    def test_single_cell_single_rep_reduces_to_trial(self):
        spec = small_spec(n_agents_grid=[2], sync_periods=[4], replications=1)
        result = sweep(spec)
        assert len(result.trials) == 1
        st = result.cell_stats[0]
        assert st.mean_mse == result.trials[0].mse
        assert st.se_mse == 0.0
        assert not st.invalid

    def test_diverged_majority_marks_cell_invalid(self):
        spec = small_spec(alpha_grid=[1e6], n_agents_grid=[2], sync_periods=[1], replications=4)
        with pytest.warns(RuntimeWarning, match="c_out"):
            result = sweep(spec)
        assert all(st.invalid for st in result.cell_stats)
        assert all(t.status == "diverged" for t in result.trials)

    def test_finite_overflow_does_not_abort_the_sweep(self):
        spec = ExperimentSpec(
            name="overflow", kind=OFF_POLICY_TD_TABULAR,
            params=GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.5, n_agents=2),
            n_agents_grid=[2], sync_periods=[1], alpha_grid=[0.1, 50.0], horizon=200,
            replications=1, master_seed=2024,
        )
        with pytest.warns(RuntimeWarning, match="c_out"):
            result = sweep(spec)
        assert [(t.alpha, t.status) for t in result.trials] == [(0.1, "ok"), (50.0, "diverged")]
        assert [st.invalid for st in result.cell_stats] == [False, True]

    def test_row_count_is_cells_times_replications(self):
        spec = small_spec()
        result = sweep(spec)
        assert len(result.trials) == len(spec.cells()) * spec.replications

    def test_worker_count_is_at_most_one_per_cpu(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        assert [worker_count(n) for n in (1, 2, 8)] == [1, 2, 2]
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert worker_count(8) == 1

    def test_sweep_starts_clamped_pool(self, monkeypatch):
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kw):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kw)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        spec = small_spec(n_agents_grid=[2], sync_periods=[1], replications=2)
        assert trial_key_list(sweep(spec, workers=8)) == trial_key_list(sweep(spec, workers=1))
        assert started == [2]

    def test_import_leaves_process_pool_unloaded(self):
        # sequential runs never pay for multiprocessing; only a pool loads it
        src = Path(harness.__file__).resolve().parents[1]
        code = "import sys, fedsam; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    def test_parallel_equals_sequential(self, tmp_path):
        spec = small_spec()
        res_seq = sweep(spec, workers=1)
        res_par = sweep(spec, workers=4)
        p1 = persist(res_seq, tmp_path / "seq", name="x")
        p2 = persist(res_par, tmp_path / "par", name="x")
        for key in ("meta", "results", "series"):
            assert p1[key].read_bytes() == p2[key].read_bytes()

    def test_batches_return_trials_in_grid_order(self):
        # two (N, alpha) groups of two cells each, and two replication chunks per group
        reps = harness.REPLICATION_CHUNK + 1
        spec = small_spec(n_agents_grid=[1, 4], sync_periods=[1, 8], alpha_grid=[0.1, 0.2],
                          horizon=16, replications=reps)
        assert len(harness._tasks(spec)) == 2 * 2 * 2
        result = sweep(spec)
        assert [(t.n_agents, t.sync_period, t.alpha, t.replication) for t in result.trials] == [
            (c.n_agents, c.sync_period, c.alpha, r) for c in spec.cells() for r in range(reps)
        ]
        inst = build_instance_for_spec(spec)
        for t in result.trials[reps - 2:reps + 2]:  # across the chunk boundary
            alone = run_trial(inst, Cell(t.n_agents, t.sync_period, t.alpha, t.horizon),
                              t.replication, spec.master_seed)
            assert trial_key(alone) == trial_key(t)
        # a trial's wall time is its share of its batch
        first_batch = [t for t in result.trials
                       if (t.n_agents, t.alpha) == (1, 0.1) and t.replication < reps - 1]
        assert len({t.wall_ms for t in first_batch}) == 1

    def test_c_out_warning_once_per_trial(self):
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.5, n_agents=2)
        spec = ExperimentSpec(name="warn", kind=OFF_POLICY_TD_TABULAR, params=params,
                              n_agents_grid=[2], sync_periods=[1, 4], alpha_grid=[50.0],
                              horizon=20, replications=3, master_seed=2024)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(spec)
        messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
                    and "c_out" in str(w.message)]
        assert [m.split(":")[0] for m in messages] == ["cell (2, 1, 50.0, 20)"] * 3 + [
            "cell (2, 4, 50.0, 20)"] * 3

    @staticmethod
    def aggregate(mses):
        cell = Cell(n_agents=2, sync_period=1, alpha=0.1, horizon=10)
        trials = [harness.TrialResult(2, 1, 0.1, 10, r, mse=m, final_sq_error=m, t_hat=0,
                                      status="ok", wall_ms=0.0, checkpoint_ts=[],
                                      error_series=[], omega_series=[])
                  for r, m in enumerate(mses)]
        (stats,) = harness._aggregate([cell], trials, len(mses))
        return stats

    def test_standard_error_of_huge_finite_mses_is_finite(self):
        # the three "ok" K=1 trials of the lockstep divergence test at alpha 6
        mses = [1.5e203, 1.3e93, 4.0e255]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = self.aggregate(mses)
        # statistics.stdev sums exact fractions
        want = 1e255 * statistics.stdev([m / 1e255 for m in mses]) / math.sqrt(3)
        assert math.isfinite(stats.se_mse) and stats.se_mse == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mses", [[0.5, 0.25, 0.125], [1e-30, 3e-7, 2.0], [1e150, 1e153]])
    def test_in_range_standard_error_keeps_its_bytes(self, mses):
        stats = self.aggregate(mses)
        assert stats.se_mse == float(np.std(mses, ddof=1) / math.sqrt(len(mses)))

    def test_k_rule_resolves_to_t_over_n(self):
        spec = small_spec(sync_periods="T_over_N", n_agents_grid=[1, 4], horizon=200)
        cells = spec.cells()
        assert {(c.n_agents, c.sync_period) for c in cells} == {(1, 200), (4, 50)}

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment keys"):
            ExperimentSpec.from_dict({"nme": "typo"})
        with pytest.raises(ValueError, match="unknown generator keys"):
            ExperimentSpec.from_dict({"params": {"n_state": 3}})


class TestTrendEstimators:
    def test_speedup_slope_exact_on_inverse_law(self):
        ns = [1, 2, 4, 8, 16]
        mses = [3.7 / n for n in ns]
        slope, half = speedup_slope(ns, mses)
        assert abs(slope + 1.0) <= 1e-10
        assert half <= 1e-10

    def test_speedup_slope_reports_uncertainty(self):
        slope, half = speedup_slope([1, 2, 4, 8], [1.0, 0.6, 0.2, 0.151])
        assert half > 0

    def test_spearman_monotone(self):
        rho, z = spearman_trend([1, 2, 3, 4, 5], [2, 4, 5, 9, 11])
        assert rho == pytest.approx(1.0, abs=1e-12)
        assert z == pytest.approx(2.0, abs=1e-12)

    def test_spearman_handles_ties(self):
        rho, _ = spearman_trend([1, 1, 2, 2], [3, 3, 5, 5])
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_k_trend_on_sweep(self):
        spec = small_spec(
            n_agents_grid=[4], sync_periods=[1, 16], alpha_grid=[0.4], horizon=256, replications=20
        )
        result = sweep(spec)
        rho, z = k_trend_z(result, 4, 0.4)
        assert -1.0 <= rho <= 1.0

    def test_k_curve_sorted_by_sync_period(self):
        from fedsam.harness import k_curve

        spec = small_spec(
            n_agents_grid=[4], sync_periods=[16, 1, 4], alpha_grid=[0.2], horizon=64, replications=2
        )
        result = sweep(spec)
        curve = k_curve(result, 4, 0.2)
        assert [st.sync_period for st in curve] == [1, 4, 16]


class TestIidScalarValidation:
    def test_t_zero_is_exact(self):
        report = iid_scalar_validation(ts=(0,), replications=1000, seed=1)
        assert report.empirical[0] == 1.0
        assert report.exact[0] == 1.0
        assert report.max_std_dev == 0.0

    def test_steady_state_arithmetic(self):
        # alpha sigma^2 / (2 - alpha) at alpha=0.1, sigma=1
        assert iid_second_moment_exact(0.1, 1.0, 1.0, 10**9) == pytest.approx(
            0.1 / 1.9, abs=1e-12
        )
        assert 0.1 / 1.9 == pytest.approx(0.05263157894736842, abs=1e-17)

    def test_finite_time_value_matches_closed_form(self):
        # t = 50: (1 - tail) 0.9^100 + tail
        tail = 0.1 / 1.9
        expected = (1 - tail) * 0.9**100 + tail
        assert iid_second_moment_exact(0.1, 1.0, 1.0, 50) == pytest.approx(expected, abs=1e-15)
        report = iid_scalar_validation(ts=(50,), replications=30_000, seed=2)
        assert abs(report.empirical[0] - expected) <= 3 * report.std_errors[0]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            iid_scalar_validation(alpha=1.5)


class TestPersistence:
    def test_round_trip_reproduces_trials(self, tmp_path):
        spec = small_spec(checkpoint_stride=20)
        result = sweep(spec)
        persist(result, tmp_path, name="rt")
        meta, trials = load_results(tmp_path, "rt")
        assert meta["spec"] == spec.to_dict()
        originals = sorted(
            result.trials,
            key=lambda t: (t.n_agents, t.sync_period, t.alpha, t.horizon, t.replication),
        )
        assert len(trials) == len(originals)
        for loaded, orig in zip(trials, originals):
            assert loaded.mse == orig.mse
            assert loaded.final_sq_error == orig.final_sq_error
            assert loaded.t_hat == orig.t_hat
            assert loaded.checkpoint_ts == orig.checkpoint_ts
            assert loaded.error_series == orig.error_series
            assert loaded.omega_series == orig.omega_series

    def test_rerun_writes_identical_bytes(self, tmp_path):
        spec = small_spec()
        p1 = persist(sweep(spec), tmp_path / "a", name="d")
        p2 = persist(sweep(spec), tmp_path / "b", name="d")
        for key in ("meta", "results", "series"):
            assert p1[key].read_bytes() == p2[key].read_bytes()

    def test_results_row_count(self, tmp_path):
        spec = small_spec()
        paths = persist(sweep(spec), tmp_path, name="rows")
        rows = paths["results"].read_text().strip().split("\n")
        assert len(rows) - 1 == len(spec.cells()) * spec.replications


    def test_divergence_goes_to_the_timing_sidecar_only(self, tmp_path):
        # alpha 0.1 runs, 50 overflows the error while the iterates stay
        # finite, 1e6 turns non-finite at step 66 on agent 0
        spec = ExperimentSpec(
            name="diverge", kind=OFF_POLICY_TD_TABULAR,
            params=GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.5, n_agents=2),
            n_agents_grid=[2], sync_periods=[1], alpha_grid=[0.1, 50.0, 1e6], horizon=200,
            replications=1, master_seed=2024,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the c_out fallback at alpha 50
            paths = persist(sweep(spec), tmp_path, name="diverge")
        digests = {key: hashlib.sha256(paths[key].read_bytes()).hexdigest()
                   for key in ("meta", "results", "series")}
        # the bytes written before the sidecar kept the divergence
        assert digests == {
            "meta": "2518b9584f2b7b5c0f2235e3cf915be1614ea726dd6b71aa1c734f2123e97bd3",
            "results": "00b15bdafa03e0d94b9f9836d0b95cce00693bd18769ca9f1638ff95cabbcb42",
            "series": "20e5a6cd85d82c8e269fc91a1cbf8a49e4d8ac97b31460cce4ea3d70d190b200",
        }
        header, *rows = paths["timing"].read_text().splitlines()
        assert header.endswith(",wall_ms,diverged_step,diverged_agent")
        tails = [row.split(",")[-2:] for row in rows]
        assert tails == [["", ""], ["", ""], ["66", "0"]]

    # one lockstep batch in which the K = 64 trials turn non-finite at
    # different (step, agent); see tests/test_lockstep.py
    DIVERGING = dict(name="mixed", kind=Q_LEARNING,
                     params=GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.6,
                                            n_agents=3),
                     n_agents_grid=[3], sync_periods=[1, 64], alpha_grid=[6.0], horizon=1113,
                     replications=3, master_seed=3)

    def test_round_trip_keeps_the_timing_sidecar(self, tmp_path):
        result = sweep(ExperimentSpec(**self.DIVERGING))
        paths = persist(result, tmp_path, name="mixed")
        _, trials = load_results(tmp_path, "mixed")
        sidecar = ("status", "wall_ms", "diverged_step", "diverged_agent")
        assert [[getattr(t, f) for f in sidecar] for t in trials] == [
            [getattr(t, f) for f in sidecar] for t in result.trials]
        assert [(t.diverged_step, t.diverged_agent) for t in trials if t.status == "diverged"] == [
            (1097, 1), (1093, 0), (1104, 1)]
        assert all(t.wall_ms > 0.0 for t in trials)
        # without the sidecar, the persisted fields alone
        paths["timing"].unlink()
        _, bare = load_results(tmp_path, "mixed")
        assert repr([trial_key(t) for t in bare]) == repr([
            {**trial_key(t), "diverged_step": None, "diverged_agent": None} for t in trials])
        assert {t.wall_ms for t in bare} == {0.0}


class TestPickledSetUp:
    """A sweep sends its set-up to every worker without the tables that
    each process rebuilds on first use."""

    def test_pickled_set_up_holds_no_table(self):
        spec = small_spec(params=dataclasses.replace(SMALL, n_states=30), n_agents_grid=[1, 4],
                          sync_periods=[1], replications=16)
        setup = harness._sweep_setup(spec)
        sweep(spec)  # runs lockstep batches, which build the behaviors' action rows
        for _, problem, _ in setup.values():
            problem.policy_rows
        data = pickle.dumps(setup)
        instance, problem, _ = setup[4]
        tables = [instance.mdp.transition_cdf.tobytes(), problem.policy_rows.tobytes(),
                  *(b.cdf.tobytes() for b in instance.behaviors)]
        assert not any(table in data for table in tables)
        loaded = pickle.loads(data)
        for instance, problem, _ in loaded.values():  # the N share one MDP and its behaviors
            assert "transition_cdf" not in instance.mdp.__dict__
            assert "policy_rows" not in problem.__dict__
            assert not any("cdf" in b.__dict__ for b in instance.behaviors)
        for n, (instance, problem, _) in loaded.items():
            original_instance, original_problem, _ = setup[n]
            assert instance.mdp.transition_cdf == original_instance.mdp.transition_cdf
            assert problem.policy_rows.tobytes() == original_problem.policy_rows.tobytes()
            assert [b.cdf for b in instance.behaviors] == [b.cdf for b in original_instance.behaviors]


def checkpoint_rows():
    """Checkpoint means whose norms may overflow when squared, or be NaN."""
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 12))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(
        allow_nan=True, allow_infinity=False, width=64)))


class TestTrialResultBits:
    @settings(max_examples=300, deadline=None)
    @given(series=checkpoint_rows(), kind=st.sampled_from(["sup", "l2"]))
    def test_error_series_equals_per_row_squares(self, series, kind):
        problem = harness.FedSamProblem.__new__(harness.FedSamProblem)
        problem.norm_kind = kind
        theta = np.ones(series.shape[1])
        trace = RunTrace(np.arange(len(series)), series, np.zeros(len(series)),
                         np.zeros(len(series)), 0, theta, theta)
        with np.errstate(over="ignore"):
            got = harness._trial_result(problem, Cell(1, 1, 0.1, 10), 0, trace)
            try:
                want = [float(norm(row, kind) ** 2) for row in series]
            except OverflowError:
                want = None
        if want is None:
            assert got.status == "diverged"
        else:
            assert repr(got.error_series) == repr(want)


class TestAtomicPersist:
    def test_failed_write_keeps_previous_file_and_leaves_no_partial(self, tmp_path, monkeypatch):
        paths = persist(sweep(small_spec(checkpoint_stride=5)), tmp_path, name="at")
        before = paths["series"].read_bytes()

        class FullDisk:
            """A file that takes 1000 characters, then fails like a full disk."""

            def __init__(self, f):
                self.f, self.room = f, 1000

            def write(self, text):
                if len(text) > self.room:
                    self.f.write(text[: self.room])
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(text)
                return self.f.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def open_with_full_disk(path, *args, **kw):
            f = open(path, *args, **kw)
            return FullDisk(f) if "series" in Path(path).name else f

        monkeypatch.setattr(harness, "open", open_with_full_disk, raising=False)
        with pytest.raises(OSError, match="No space"):
            persist(sweep(small_spec(checkpoint_stride=5, master_seed=6)), tmp_path, name="at")
        assert paths["series"].read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths.values())


class TestSubInstance:
    def test_restriction_keeps_oracle_and_beta(self):
        inst = generate_instance(ON_POLICY_TD_LFA, SMALL, seed=4)
        small = sub_instance(inst, 2)
        assert small.n_agents == 2
        assert np.array_equal(small.fixed_point, inst.fixed_point)
        assert small.beta == inst.beta

    def test_cannot_grow(self):
        inst = generate_instance(Q_LEARNING, SMALL, seed=4)
        with pytest.raises(ValueError):
            sub_instance(inst, 10)

    @pytest.mark.parametrize("kind", (ON_POLICY_TD_LFA, OFF_POLICY_TD_TABULAR, Q_LEARNING))
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_slice_equals_instance_built_from_scratch(self, kind, n):
        full = generate_instance(kind, SMALL, seed=6)
        sliced = sub_instance(full, n)
        scratch = AlgorithmInstance(
            kind=kind, mdp=full.mdp, target=full.target, behaviors=full.behaviors[:n],
            n_step=full.n_step, features=full.features,
        )
        assert sliced.behaviors == scratch.behaviors
        assert [mu.tobytes() for mu in sliced.stationary] == [mu.tobytes() for mu in scratch.stationary]
        assert sliced.agent_mixing == scratch.agent_mixing
        assert sliced.mixing == scratch.mixing
        assert sliced.fixed_point.tobytes() == scratch.fixed_point.tobytes()
        assert sliced.beta == scratch.beta
        assert theory_constants(sliced) == theory_constants(scratch)
        assert full.n_agents == SMALL.n_agents  # the full instance is left as it was


def eager_mixing(instance) -> list[MixingEstimate]:
    """Each agent's estimate as construction used to solve it: spectrum, stationary law, diagnostics."""
    rows = None
    if instance.kind == Q_LEARNING:
        rows = instance.mdp.transition.reshape(-1, instance.mdp.n_states)
    out = []
    for behavior in instance.behaviors:
        p_b = policy_transition_matrix(instance.mdp, behavior)
        moduli = eigen_moduli(p_b)
        mu = stationary_distribution(p_b, moduli)
        out.append(mixing_diagnostics(p_b, mu=mu, moduli=moduli, rows=rows))
    return out


def bits(estimates) -> list[tuple[str, str]]:
    return [(m.rho.hex(), m.m_bar.hex()) for m in estimates]


class TestMixingOnDemand:
    @pytest.mark.parametrize("kind", (ON_POLICY_TD_LFA, OFF_POLICY_TD_TABULAR, Q_LEARNING))
    @pytest.mark.parametrize("sub_first", (False, True))
    def test_equals_eager_estimates_bit_for_bit(self, kind, sub_first):
        full = generate_instance(kind, SMALL, seed=6)
        sub = sub_instance(full, 2)
        expected = eager_mixing(full)
        worst = MixingEstimate(max(m.rho for m in expected), max(m.m_bar for m in expected))
        if sub_first:
            assert bits(sub.agent_mixing) == bits(expected[:2])
        assert bits(full.agent_mixing) == bits(expected)
        assert bits([full.mixing]) == bits([worst])
        assert bits(sub.agent_mixing) == bits(expected[:2])
        assert all(b >= m.rho for b, m in zip(full.rho_bounds, expected))
        assert sub.rho_bounds == full.rho_bounds[:2]

    def test_uncertified_chain_takes_its_bound_from_the_spectrum(self):
        # two 2-state classes coupled at 1e-10: ergodic, but no power up to 2^8 certifies it
        chain = np.array([[0.6, 0.4, 0.0, 0.0], [0.3, 0.7 - 1e-10, 1e-10, 0.0],
                          [0.0, 1e-10, 0.7 - 1e-10, 0.3], [0.0, 0.0, 0.4, 0.6]])
        mdp = Mdp(4, 1, chain[:, None, :], np.full((4, 1), 0.5), 0.5)
        target = Policy(np.ones((4, 1)))
        instance = AlgorithmInstance(kind=OFF_POLICY_TD_TABULAR, mdp=mdp, target=target,
                                     behaviors=[target])
        assert instance.rho_bounds == [float(eigen_moduli(chain)[1])]
        assert bits(instance.agent_mixing) == bits(eager_mixing(instance))

    def test_sweep_solves_no_state_sized_spectrum(self, monkeypatch):
        real = np.linalg.eigvals
        shapes = []

        def counting(mat):
            shapes.append(np.shape(mat))
            return real(mat)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        spec = ExperimentSpec(
            name="eig", kind=Q_LEARNING,
            params=GeneratorParams(n_states=50, n_actions=2, branching=3, gamma=0.8, n_agents=16),
            n_agents_grid=[1, 4, 16], sync_periods=[8], alpha_grid=[0.1], horizon=200,
            replications=1, master_seed=3,
        )
        sweep(spec)
        instance = build_instance_for_spec(spec)
        assert (50, 50) not in shapes
        instance.mixing
        distinct = {b.probs.tobytes() for b in instance.behaviors}
        assert shapes.count((50, 50)) == len(distinct) == 16
        instance.mixing  # solved once per behavior
        sub_instance(instance, 4).agent_mixing
        assert shapes.count((50, 50)) == 16


def exact_rule_warnings(spec: ExperimentSpec, instance) -> list[str]:
    """The short-horizon warnings of the rule that reads the exact rho for every cell."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        for cell in spec.cells():
            alpha_eff = cell.alpha * (instance.beta or 1.0)
            if not 0 < alpha_eff < 1:
                continue
            FedRunConfig(
                n_agents=cell.n_agents, sync_period=cell.sync_period, step_size=cell.alpha,
                horizon=cell.horizon, output_c=0.5, master_seed=0,
            ).warn_if_short_horizon(instance.mixing.tau_alpha(alpha_eff))
    return [str(w.message) for w in record]


def symmetric_two_state_instance() -> AlgorithmInstance:
    # a normal chain: the bound equals rho = 0.4 up to rounding
    mdp = Mdp(2, 1, np.array([[[0.7, 0.3]], [[0.3, 0.7]]]), np.array([[0.2], [0.9]]), 0.5)
    target = Policy(np.ones((2, 1)))
    return AlgorithmInstance(kind=OFF_POLICY_TD_TABULAR, mdp=mdp, target=target, behaviors=[target])


class TestShortHorizonWarning:
    @pytest.mark.parametrize("make", [
        lambda: generate_instance(Q_LEARNING, GeneratorParams(n_states=50, branching=3, n_agents=4), 3),
        lambda: generate_instance(OFF_POLICY_TD_TABULAR, SMALL, 5),
        lambda: generate_instance(ON_POLICY_TD_LFA, SMALL, 5),
        symmetric_two_state_instance,
    ], ids=["q_learning_S50", "off_policy_td", "on_policy_td_lfa", "two_state"])
    def test_warns_exactly_when_the_exact_rule_does(self, make):
        instance = make()
        rho_bound = max(instance.rho_bounds)
        counts = {True: 0, False: 0}
        # 0.16 = 0.4^2 puts tau of the two-state chain on an integer boundary
        for alpha, k in product((0.01, 0.16, 0.3, 0.9), (1, 16)):
            alpha_eff = alpha * (instance.beta or 1.0)
            if not 0 < alpha_eff < 1:
                continue
            taus = (tau_alpha(instance.mixing.rho, alpha_eff), tau_alpha(rho_bound, alpha_eff))
            needs = {max(k + tau, 2 * tau) + d for tau in taus for d in (-1, 0, 1)}
            for horizon in sorted(needs):
                spec = ExperimentSpec(kind=instance.kind, n_agents_grid=[instance.n_agents],
                                      sync_periods=[k], alpha_grid=[alpha], horizon=horizon)
                with warnings.catch_warnings(record=True) as record:
                    warnings.simplefilter("always")
                    harness._warn_short_horizons(spec, instance)
                expected = exact_rule_warnings(spec, instance)
                assert [str(w.message) for w in record] == expected
                counts[bool(expected)] += 1
        assert counts[True] and counts[False]
