"""Acceptance suite: one test per criterion, at full replication counts.

Each test prints a PASS/FAIL line (run pytest with -s or check captured
output) and asserts the criterion at its stated tolerance and within its
stated runtime budget. The same checks back the `fedsam validate` command.
"""

import os
import time

from fedsam import validation

WORKERS = min(6, os.cpu_count() or 1)
SEED = validation.DEFAULT_SEED


def report(result: validation.CheckResult, started: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"{result.line()}  [{elapsed:.1f}s / {budget_s:.0f}s budget]")
    assert result.passed, result.line()
    assert elapsed < budget_s, f"{result.name} took {elapsed:.1f}s, budget {budget_s:.0f}s"


def test_criterion_01_iid_recursion_closed_form():
    # E[x_t^2] within 3 standard errors of the exact second moment at
    # t in {0, 10, 50, 200}, 1e5 replications
    t0 = time.perf_counter()
    result = validation.check_iid_recursion(SEED)
    report(result, t0, 30)
    assert result.observed == "max standardized deviation 0.57 (limit 3.0) at t=[0, 10, 50, 200]"


def test_criterion_02_oracle_consistency():
    # solver vs iterative evaluation <= 1e-8; optimality residual <= 1e-10;
    # projected residual <= 1e-8; identity features reproduce values <= 1e-8
    t0 = time.perf_counter()
    report(validation.check_oracle_consistency(SEED, instances=20), t0, 10)


def test_criterion_03_contraction_factors():
    # 20 instances x 100 pairs per tabular algorithm with zero violations;
    # spectral radius below 0.99 at the selected beta for linear FA
    t0 = time.perf_counter()
    report(validation.check_contraction(SEED, instances=20, pairs=100), t0, 20)


def test_criterion_04_fixed_point_nullity():
    # expected operator at zero and enumerated mean raw update at the oracle
    # both vanish to 1e-12, 20 instances per algorithm
    t0 = time.perf_counter()
    report(validation.check_fixed_point_nullity(SEED, instances=20), t0, 20)


def test_criterion_05_assumption_suite():
    # sampled Lipschitz/boundedness within declared constants; noise-average
    # 1/sqrt(N) scaling within 20%; cross-agent independence at 3 sigma;
    # mixing bias decay toward the expected operator; 60 s combined budget
    t0 = time.perf_counter()
    results = []
    for check, kwargs in (
        (validation.check_lipschitz_bounds, dict(instances=3, samples=10_000)),
        (validation.check_noise_average_scaling, dict(samples=10_000)),
        (validation.check_agent_independence, dict(samples=100_000)),
        (validation.check_mixing_bias_decay, {}),
    ):
        started = time.perf_counter()
        results.append(check(SEED, **kwargs))
        results[-1].elapsed_s = time.perf_counter() - started
    elapsed = time.perf_counter() - t0
    for result in results:
        print(result.line())
        assert result.passed, result.line()
    times = ", ".join(f"{result.name} {result.elapsed_s:.1f}s" for result in results)
    print(f"assumption suite: {times} [{elapsed:.1f}s / 60s budget]")
    assert elapsed < 60
    # the seeded report strings, as `fedsam validate` writes them
    assert [result.observed for result in results] == [
        "worst sampled/declared ratio 0.9988 (A2 on on_policy_td_lfa); every sample within bounds: True",
        "E||avg b|| = N=1: 0.7876, N=4: 0.3964, N=16: 0.1987; "
        "worst relative deviation from 1/sqrt(N) scaling 0.009 (<=0.20)",
        "chi-square 0.01 on a 2x2 table of 100000 thinned paired samples (3-sigma limit 9.0)",
        "|E[G] - Gbar| at t=0/8/32: 0.5151/0.2218/0.0081 (Monte-Carlo floor ~0.0431)",
    ]


def test_criterion_06_single_node_convergence():
    t0 = time.perf_counter()
    report(
        validation.check_single_node_convergence(SEED, n_seeds=20, workers=WORKERS), t0, 120
    )


def test_criterion_07_linear_speedup():
    t0 = time.perf_counter()
    report(validation.check_linear_speedup(SEED, replications=100, workers=WORKERS), t0, 600)


def test_criterion_08_sync_period_effect():
    t0 = time.perf_counter()
    report(
        validation.check_sync_period_effect(SEED, replications=100, workers=WORKERS), t0, 600
    )


def test_criterion_09_determinism():
    t0 = time.perf_counter()
    report(validation.check_determinism(SEED), t0, 600)


def test_criterion_10_output_distribution():
    t0 = time.perf_counter()
    report(validation.check_output_distribution(SEED, draws=100_000), t0, 30)
