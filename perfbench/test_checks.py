"""Each benchmark check passes on real outputs and fails on a deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

workloads.import_fedsam()

import checks  # noqa: E402
from fedsam import (  # noqa: E402
    ExperimentSpec,
    build_problem,
    generate_instance,
    load_results,
    persist,
    sweep,
    theory_constants,
)
from fedsam.harness import sub_instance  # noqa: E402

KINDS = ("off_policy_td_tabular", "q_learning", "on_policy_td_lfa")


@pytest.fixture(scope="module", params=KINDS)
def case(request):
    spec = ExperimentSpec.from_dict({
        "name": "tiny",
        "kind": request.param,
        "params": {"n_states": 6, "n_actions": 2, "branching": 2, "gamma": 0.7,
                   "d": 2, "n_step": 2 if request.param != "q_learning" else 1,
                   "n_agents": 2},
        "n_agents_grid": [1, 2],
        "sync_periods": [1, 3],
        "alpha_grid": [0.1, 0.2],
        "horizon": 60,
        "replications": 1,
        "master_seed": 5,
        "checkpoint_stride": 5,
    })
    result = sweep(spec)
    full = generate_instance(spec.kind, spec.params, spec.master_seed)
    instances = {n: sub_instance(full, n) for n in spec.n_agents_grid}
    trials = [checks.trial_record(t) for t in result.trials]
    return spec, result, instances, trials


def _swap(trials, field, a, b):
    """Trials with `field` swapped between the trials at keys a and b."""
    out = copy.deepcopy(trials)
    by_key = {checks.trial_key(t): t for t in out}
    by_key[a][field], by_key[b][field] = by_key[b][field], by_key[a][field]
    return out


def test_replay_passes_on_real_outputs(case):
    spec, _, instances, trials = case
    assert checks.check_replay(spec, instances, trials) == []


@pytest.mark.parametrize("field", ["mse", "final_sq_error"])
def test_replay_fails_on_perturbed_error(case, field):
    spec, _, instances, trials = case
    bad = copy.deepcopy(trials)
    bad[0][field] *= 1.0 + 1e-7
    assert checks.check_replay(spec, instances, bad)


def test_replay_fails_when_sync_period_is_swapped(case):
    spec, _, instances, trials = case
    bad = _swap(trials, "sync_period", (2, 1, 0.1, 60, 0), (2, 3, 0.1, 60, 0))
    assert checks.check_replay(spec, instances, bad)


def test_replay_fails_when_alpha_is_swapped(case):
    spec, _, instances, trials = case
    bad = _swap(trials, "alpha", (2, 3, 0.1, 60, 0), (2, 3, 0.2, 60, 0))
    assert checks.check_replay(spec, instances, bad)


def test_replay_fails_on_t_hat_out_of_range(case):
    spec, _, instances, trials = case
    bad = copy.deepcopy(trials)
    bad[0]["t_hat"] = bad[0]["horizon"]
    assert checks.check_replay(spec, instances, bad)


def test_fixed_point_check_fails_on_perturbed_fixed_point(case):
    _, _, instances, _ = case
    inst = instances[2]
    assert checks.check_fixed_point(inst, "real") == []
    bad = copy.copy(inst)
    bad.fixed_point = np.asarray(inst.fixed_point) + 1e-6
    assert checks.check_fixed_point(bad, "perturbed")


def test_stationary_check_fails_on_perturbed_distribution(case):
    _, _, instances, _ = case
    inst = instances[2]
    assert checks.check_stationary(inst, "real") == []
    shifted = inst.stationary[0].copy()
    shifted[0] += 1e-6
    shifted[1] -= 1e-6  # still sums to 1, no longer invariant
    bad = copy.copy(inst)
    bad.stationary = [shifted] + list(inst.stationary[1:])
    assert checks.check_stationary(bad, "shifted")
    bad.stationary = [inst.stationary[0] * (1 + 1e-6)] + list(inst.stationary[1:])
    assert checks.check_stationary(bad, "scaled")


def test_omega_check_fails_on_nonzero_omega_at_sync_instant(case):
    _, _, _, trials = case
    assert checks.check_omega(trials, "real") == []
    bad = copy.deepcopy(trials)
    bad[0]["omega_series"][0] = 1e-300  # t = 0 is a sync instant
    assert checks.check_omega(bad, "perturbed")


def test_bounds_check_fails_on_too_small_declared_bounds(case):
    _, _, instances, _ = case
    inst = instances[2]
    problem, constants = build_problem(inst), theory_constants(inst)
    rng = np.random.default_rng(0)
    assert checks.check_bounds(inst, problem, constants, rng, "real") == []
    # every G(., y) leaves all but a rank-one part of theta alone, so ratios near 1 show up
    small_a1 = dataclasses.replace(constants, a1=0.5)
    assert checks.check_bounds(inst, problem, small_a1, rng, "small A1")
    small_b = dataclasses.replace(constants, b_bound=1e-3 * constants.b_bound)
    assert checks.check_bounds(inst, problem, small_b, rng, "small B")


def test_tolerances_point_the_right_way():
    assert checks.within_bound(0.5, 1.0)
    assert checks.within_bound(1.0, 1.0)
    assert not checks.within_bound(1.0 + 1e-6, 1.0)
    assert checks.close(1.0 + 1e-12, 1.0)
    assert not checks.close(1.0 + 1e-7, 1.0)
    assert not checks.close(1.0, 1.0 + 1e-7)


def test_persist_roundtrip_detects_one_changed_byte(case, tmp_path):
    _, result, _, trials = case
    persist(result, tmp_path, name="tiny")
    _, loaded = load_results(tmp_path, "tiny")
    assert checks.compare_trials(trials, [checks.trial_record(t) for t in loaded], "real") == []
    path = tmp_path / "tiny.results.csv"
    data = bytearray(path.read_bytes())
    row_start = data.index(b"\n") + 1
    fields = data[row_start:].split(b",")
    mse_start = row_start + sum(len(f) + 1 for f in fields[:5])  # mse is the sixth column
    digit_at = mse_start + fields[5].index(b".") + 1
    data[digit_at] = ord("1") if data[digit_at] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    _, loaded = load_results(tmp_path, "tiny")
    assert checks.compare_trials(trials, [checks.trial_record(t) for t in loaded], "changed byte")


def test_round_comparison_detects_one_changed_field(case):
    _, _, _, trials = case
    assert checks.compare_trials(trials, copy.deepcopy(trials), "same") == []
    bad = copy.deepcopy(trials)
    bad[-1]["error_series"][-1] = np.nextafter(bad[-1]["error_series"][-1], np.inf)
    assert checks.compare_trials(trials, bad, "one ulp")
