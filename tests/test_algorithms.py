"""Algorithm updates, the shifted reduction, expected operators, constants."""

import functools
import json
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsam.algorithms import (
    KINDS,
    OFF_POLICY_TD_TABULAR,
    ON_POLICY_TD_LFA,
    Q_LEARNING,
    AlgorithmInstance,
    build_problem,
    expected_operator,
    offpolicy_td_lipschitz,
    offpolicy_td_update,
    onpolicy_td_update,
    q_contraction_factor,
    q_learning_update,
    rate_constant,
    run_single_node,
    select_beta,
    spectral_radius_at_beta,
    td_contraction_factor,
    theory_constants,
)
from fedsam.engine import FedRunConfig, FedSamProblem, run_fedsam
from fedsam.errors import DivergenceError, ErgodicityError
from fedsam.harness import GeneratorParams, generate_instance, generate_mdp
from fedsam.mdp import FeatureMatrix, Mdp, Policy, cdf_table
from fedsam.sampling import AgentChain, stream

ACCEPT = GeneratorParams(n_states=5, n_actions=3, branching=3, gamma=0.8, d=2, n_step=2, n_agents=2)


def constant_chain_mdp(rewards, gamma=0.5):
    """Single-action MDP whose state cycles deterministically, reward per state."""
    n = len(rewards)
    trans = np.zeros((n, 1, n))
    for s in range(n):
        trans[s, 0, (s + 1) % n] = 1.0
    return Mdp(n, 1, trans, np.array([[r] for r in rewards], dtype=float), gamma)


class TestRawUpdates:
    def test_onpolicy_zero_rewards_zero_weights(self):
        mdp = constant_chain_mdp([0.0, 0.0], gamma=0.5)
        phi = FeatureMatrix(np.array([[1.0], [2.0]]))
        out = onpolicy_td_update(np.zeros(1), np.array([0, 1, 0]), np.array([0, 0]), phi, mdp, 0.1)
        assert np.array_equal(out, np.zeros(1))

    def test_onpolicy_identity_features_is_classic_td0(self):
        mdp = constant_chain_mdp([0.3, 0.9], gamma=0.5)
        phi = FeatureMatrix.identity(2)
        v = np.array([0.2, -0.4])
        out = onpolicy_td_update(v, np.array([0, 1]), np.array([0]), phi, mdp, 0.1)
        expected = v.copy()
        expected[0] += 0.1 * (0.3 + 0.5 * v[1] - v[0])
        assert np.allclose(out, expected, atol=1e-15)

    def test_onpolicy_two_step_hand_arithmetic(self):
        # d=1, phi == 1, n=2, gamma=0.5, rewards (1,1), v=0, alpha=0.1:
        # E = (1 + 0) + 0.5 (1 + 0) = 1.5, so v' = 0.15
        mdp = constant_chain_mdp([1.0, 1.0, 1.0], gamma=0.5)
        phi = FeatureMatrix(np.ones((3, 1)))
        out = onpolicy_td_update(np.zeros(1), np.array([0, 1, 2]), np.array([0, 0]), phi, mdp, 0.1)
        assert out[0] == pytest.approx(0.15, abs=1e-15)

    def test_offpolicy_equals_onpolicy_when_policies_match(self):
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.7, n_step=3)
        inst = generate_instance(OFF_POLICY_TD_TABULAR, params, seed=1)
        rng = stream(2, 1)
        chain = AgentChain(inst.mdp, inst.target, inst.xi, 3, rng)
        values = stream(3, 1).standard_normal(4)
        states, actions = chain.step()
        out = offpolicy_td_update(values, states, actions, inst.target, inst.target, inst.mdp, 0.1)
        # on-policy n-step tabular TD computed independently
        expected = values.copy()
        acc, g = 0.0, 1.0
        for l in range(3):
            s, a, s2 = states[l], actions[l], states[l + 1]
            acc += g * (inst.mdp.reward[s, a] + 0.7 * values[s2] - values[s])
            g *= 0.7
        expected[states[0]] += 0.1 * acc
        assert np.allclose(out, expected, atol=1e-15)

    def test_offpolicy_single_step_hand_arithmetic(self):
        # ratio 0.6/0.3 = 2.0, r=1, gamma=0.5, V=0, alpha=0.1 -> V'(S_t) = 0.2
        trans = np.zeros((2, 2, 2))
        trans[:, :, 1] = 1.0
        mdp2 = Mdp(2, 2, trans, np.ones((2, 2)), 0.5)
        target2 = Policy(np.array([[0.6, 0.4], [0.5, 0.5]]))
        behavior2 = Policy(np.array([[0.3, 0.7], [0.5, 0.5]]))
        out = offpolicy_td_update(
            np.zeros(2), np.array([0, 1]), np.array([0]), target2, behavior2, mdp2, 0.1
        )
        assert out[0] == pytest.approx(0.2, abs=1e-15)
        assert out[1] == 0.0

    def test_only_window_head_state_changes(self):
        inst = generate_instance(OFF_POLICY_TD_TABULAR, ACCEPT, seed=5)
        chain = AgentChain(inst.mdp, inst.behaviors[0], inst.xi, 2, stream(7, 1))
        values = stream(8, 1).standard_normal(5)
        states, actions = chain.step()
        out = offpolicy_td_update(values, states, actions, inst.target, inst.behaviors[0], inst.mdp, 0.1)
        changed = np.nonzero(out != values)[0]
        assert set(changed) <= {int(states[0])}

    def test_q_learning_hand_arithmetic(self):
        mdp = constant_chain_mdp([1.0, 0.5], gamma=0.5)
        q = np.zeros((2, 1))
        out = q_learning_update(q, 0, 0, 1, mdp, 0.1)
        assert out[0, 0] == pytest.approx(0.1, abs=1e-15)
        assert out[1, 0] == 0.0

    def test_q_learning_zero_step(self):
        mdp = constant_chain_mdp([1.0, 0.5], gamma=0.5)
        q = stream(9, 1).standard_normal((2, 1))
        assert np.array_equal(q_learning_update(q, 0, 0, 1, mdp, 0.0), q)


class TestInstanceValidation:
    def test_lfa_requires_features(self):
        inst_params = GeneratorParams(n_states=3, n_actions=2, gamma=0.5, d=2)
        good = generate_instance(ON_POLICY_TD_LFA, inst_params, seed=0)
        with pytest.raises(ValueError, match="feature"):
            AlgorithmInstance(
                kind=ON_POLICY_TD_LFA, mdp=good.mdp, target=good.target, behaviors=[good.target]
            )

    def test_onpolicy_behavior_must_match_target(self):
        good = generate_instance(ON_POLICY_TD_LFA, GeneratorParams(n_states=3, d=2), seed=0)
        other = Policy.uniform(3, 2)
        with pytest.raises(ValueError, match="on-policy"):
            AlgorithmInstance(
                kind=ON_POLICY_TD_LFA, mdp=good.mdp, target=good.target,
                behaviors=[other], features=good.features,
            )

    def test_q_learning_rejects_unvisited_state_action_pairs(self):
        good = generate_instance(Q_LEARNING, GeneratorParams(n_states=3), seed=0)
        greedy = np.zeros((3, 2))
        greedy[:, 0] = 1.0
        with pytest.raises(ErgodicityError, match="zero mass"):
            AlgorithmInstance(
                kind=Q_LEARNING, mdp=good.mdp, target=good.target, behaviors=[Policy(greedy)]
            )

    def test_q_learning_single_transition_windows(self):
        good = generate_instance(Q_LEARNING, GeneratorParams(n_states=3), seed=0)
        with pytest.raises(ValueError, match="n_step"):
            AlgorithmInstance(
                kind=Q_LEARNING, mdp=good.mdp, target=good.target,
                behaviors=good.behaviors, n_step=2,
            )


class TestShiftedReduction:
    @pytest.mark.parametrize("kind", KINDS)
    def test_raw_and_shifted_runs_coincide(self, kind):
        # identical streams: raw estimate - fixed point tracks the shifted
        # parameter to 1e-12 over 10^4 steps
        inst = generate_instance(kind, ACCEPT, seed=11)
        problem = build_problem(inst)
        alpha = 0.05
        window_n = 1 if kind == Q_LEARNING else inst.n_step
        chain = AgentChain(inst.mdp, inst.behaviors[0], inst.xi, window_n, stream(20, 1, 0))
        noise = problem.make_noise(0, stream(20, 1, 0))
        theta = problem.initial_theta.copy()
        alpha_eff = alpha * problem.step_scale
        if kind == ON_POLICY_TD_LFA:
            est = np.zeros(inst.features.d)
        elif kind == OFF_POLICY_TD_TABULAR:
            est = np.zeros(inst.mdp.n_states)
        else:
            est = np.zeros((inst.mdp.n_states, inst.mdp.n_actions))
        for _ in range(10_000):
            states, actions = chain.step()
            if kind == ON_POLICY_TD_LFA:
                est = onpolicy_td_update(est, states, actions, inst.features, inst.mdp, alpha)
            elif kind == OFF_POLICY_TD_TABULAR:
                est = offpolicy_td_update(
                    est, states, actions, inst.target, inst.behaviors[0], inst.mdp, alpha
                )
            else:
                est = q_learning_update(
                    est, int(states[0]), int(actions[0]), int(states[1]), inst.mdp, alpha
                )
            y = noise.step()
            theta = theta + alpha_eff * (
                problem.apply_g(0, theta, y) - theta + problem.apply_b(0, y)
            )
        gap = np.abs((est.reshape(-1) - inst.flat_fixed_point()) - theta).max()
        assert gap <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_parameter_is_noisy_fixed_point(self, kind):
        inst = generate_instance(kind, ACCEPT, seed=12)
        problem = build_problem(inst)
        zero = np.zeros(inst.dim)
        for agent in range(inst.n_agents):
            noise = problem.make_noise(agent, stream(21, 1, agent))
            for _ in range(200):
                g0 = problem.apply_g(agent, zero, noise.step())
                assert problem.norm(g0) <= 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_sampled_noise_below_declared_bound(self, kind):
        inst = generate_instance(kind, ACCEPT, seed=13)
        problem = build_problem(inst)
        bound = theory_constants(inst).b_bound
        for agent in range(inst.n_agents):
            noise = problem.make_noise(agent, stream(22, 1, agent))
            for _ in range(2000):
                assert problem.norm(problem.apply_b(agent, noise.step())) <= bound * (1 + 1e-12)

    def test_lfa_production_update_independent_of_beta(self):
        # powers of two make the (1/beta within operators) x (beta-scaled step)
        # cancellation exact; the only beta-dependence left is ulp-level
        # absorption in the G = theta + u, G - theta round trip
        inst8 = generate_instance(ON_POLICY_TD_LFA, ACCEPT, seed=14)
        alpha = 0.05
        trajs = []
        for beta in (inst8.beta, inst8.beta * 4):
            inst = AlgorithmInstance(
                kind=ON_POLICY_TD_LFA, mdp=inst8.mdp, target=inst8.target,
                behaviors=inst8.behaviors, n_step=inst8.n_step,
                features=inst8.features, beta=beta,
            )
            problem = build_problem(inst)
            noise = problem.make_noise(0, stream(23, 1, 0))
            theta = problem.initial_theta.copy()
            alpha_eff = alpha * problem.step_scale
            path = []
            for _ in range(500):
                y = noise.step()
                theta = theta + alpha_eff * (
                    problem.apply_g(0, theta, y) - theta + problem.apply_b(0, y)
                )
                path.append(theta.copy())
            trajs.append(np.stack(path))
        assert np.abs(trajs[0] - trajs[1]).max() <= 1e-13


def twin_chains(problem, agent, seed):
    """Two chains of one agent on the same stream: one for the kernel, one for the generic path."""
    return [problem.make_noise(agent, stream(seed, 1, agent)) for _ in range(2)]


def block_outcome(run_block, agent, *args):
    """A `run_block` call's outcome: (end row, None), or (None, failing step)."""
    try:
        return run_block(agent, *args), None
    except DivergenceError as exc:
        assert exc.agent == agent
        return None, exc.step


def assert_block_matches_generic(problem, agent, chains, theta, t_start, k, alpha):
    """The kind's `run_block` against `FedSamProblem.run_block` on a twin chain.

    Returns the kernel's outcome: (end row, None), or (None, failing step).
    A diverged block is compared by its failing step, and every block by the
    chain it leaves: both walk the whole block before they step.
    """
    kernel_chain, generic_chain = chains
    got = block_outcome(problem.run_block, agent, theta.copy(), kernel_chain, t_start,
                        t_start + k, alpha)
    want = block_outcome(functools.partial(FedSamProblem.run_block, problem), agent, theta.copy(),
                         generic_chain, t_start, t_start + k, alpha)
    if want[0] is None or got[0] is None:
        assert got == want
    else:
        assert got[0].tobytes() == want[0].tobytes()
    assert (kernel_chain.states, kernel_chain.actions) == (generic_chain.states, generic_chain.actions)
    states = [json.dumps(c.rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())
              for c in chains]
    assert states[0] == states[1]
    return got


class TestFusedUpdate:
    """The tabular kinds' block kernel is the engine's generic block, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from([OFF_POLICY_TD_TABULAR, Q_LEARNING]),
        seed=st.integers(0, 2**16),
        n_step=st.integers(1, 3),
        n_agents=st.integers(1, 4),
        scale_exp=st.integers(-3, 150),
        alpha=st.sampled_from([0.0, 0.01, 0.3, 1.0, 50.0]),
    )
    def test_bit_equal_to_generic_step(self, kind, seed, n_step, n_agents, scale_exp, alpha):
        params = GeneratorParams(n_states=5, n_actions=3, branching=3, gamma=0.8,
                                 n_step=n_step, n_agents=n_agents)
        inst = generate_instance(kind, params, seed=seed)
        problem = build_problem(inst)
        rng = np.random.default_rng(seed)
        for agent in range(n_agents):  # agents differ in their behaviors and ratio tables
            chains = twin_chains(problem, agent, seed)
            t = 0
            for k in (1, 2, 5, 20, 64):  # blocks in a row on the same chains
                theta = rng.standard_normal(inst.dim) * 10.0**scale_exp
                end, _ = assert_block_matches_generic(problem, agent, chains, theta, t, k, alpha)
                assert end is not None
                t += k

    def test_generic_update_kept_for_linear_features(self):
        problem = build_problem(generate_instance(ON_POLICY_TD_LFA, ACCEPT, seed=3))
        assert problem.run_block.__func__ is FedSamProblem.run_block
        assert problem.update.__func__ is FedSamProblem.update


class TestFiniteGuard:
    """The kernels check only the written entry while every entry is inside
    +-DBL_MAX / (2 dim); their verdicts and failing steps are those of the
    generic per-step isfinite(np.add.reduce(theta))."""

    @pytest.mark.parametrize("kind", [OFF_POLICY_TD_TABULAR, Q_LEARNING])
    def test_verdicts_equal_per_step_row_sum(self, kind):
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.8, n_step=2,
                                 n_agents=2)
        inst = generate_instance(kind, params, seed=11)
        problem = build_problem(inst)
        bound = problem.finite_bound
        assert bound == sys.float_info.max / (2 * inst.dim)
        rng = np.random.default_rng(5)
        below = np.nextafter(bound, 0.0)
        starts = []
        for scale in (1e300, 1e305, 1e306, 1e307, 0.5 * bound, below):
            starts.append(rng.uniform(-1.0, 1.0, inst.dim) * scale)
            starts.append(rng.choice([-1.0, 1.0], inst.dim) * scale)
        starts.append(np.full(inst.dim, below))
        starts.append(np.full(inst.dim, bound))  # at the bound: the row is summed from the start
        for bad in (np.nan, np.inf, -np.inf):
            theta = rng.uniform(-1.0, 1.0, inst.dim)
            theta[1] = bad
            starts.append(theta)
        seen = {"crossed, still finite": 0, "crossed, then diverged": 0, "diverged at once": 0}
        with np.errstate(over="ignore", invalid="ignore"):
            for agent in range(inst.n_agents):
                chains = twin_chains(problem, agent, 7)
                t = 0
                for theta in starts:
                    for alpha in (0.5, 3.0, 50.0):
                        for k in (1, 2, 5, 64):
                            end, out = assert_block_matches_generic(
                                problem, agent, chains, theta, t, k, alpha
                            )
                            inside = np.abs(theta).max() < bound
                            if inside and end is not None and np.abs(end).max() >= bound:
                                seen["crossed, still finite"] += 1
                            elif inside and end is None and out > t:
                                seen["crossed, then diverged"] += 1
                            elif not inside and end is None and out == t:
                                seen["diverged at once"] += 1
                            t += k
        assert all(seen.values()), seen


    @pytest.mark.parametrize("kind, case", [(OFF_POLICY_TD_TABULAR, 498), (OFF_POLICY_TD_TABULAR, 677),
                                            (Q_LEARNING, 524), (Q_LEARNING, 866)])
    def test_sum_overflow_after_a_crossing_write(self, kind, case):
        # found by search over starts inside the bound: a write crosses it
        # while the row sum stays finite, and a later write inside the bound
        # overflows the sum, which only summing the row can see
        params = GeneratorParams(n_states=4, n_actions=2, branching=2, gamma=0.8, n_step=2,
                                 n_agents=2)
        problem = build_problem(generate_instance(kind, params, seed=11))
        theta = np.random.default_rng(case).uniform(-0.5, 0.5, problem.dim) * problem.finite_bound
        with np.errstate(over="ignore", invalid="ignore"):
            end, step = assert_block_matches_generic(problem, 0, twin_chains(problem, 0, case),
                                                     theta, 0, 64, 3.0)
        assert end is None and step > 0

    @pytest.mark.parametrize("kind", [OFF_POLICY_TD_TABULAR, Q_LEARNING])
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_a_barrier_overflow_is_seen_at_the_next_block_start(self, kind, k):
        # every row starts inside the bound, with one entry at 0.9 bound in all
        # five agents: the barrier's average overflows to inf in an entry that
        # the next step may not write, so only the block-start scan sees it
        params = GeneratorParams(n_states=2, n_actions=1, branching=2, gamma=0.8, n_agents=5)
        inst = generate_instance(kind, params, seed=1)
        problem, generic = build_problem(inst), build_problem(inst)
        generic.run_block = functools.partial(FedSamProblem.run_block, generic)

        def outcome(p, config):
            try:
                return run_fedsam(p, config).theta_bar_series.tobytes()
            except DivergenceError as exc:
                return exc.step, exc.agent

        after_a_barrier = 0
        for entry in range(inst.dim):
            theta = np.ones(inst.dim)
            theta[entry] = 0.9 * problem.finite_bound
            for p in (problem, generic):
                p.initial_theta = theta
            for alpha in (0.01, 0.1, 0.5):
                for seed in range(3):
                    config = FedRunConfig(5, k, alpha, 32, 0.9, seed, checkpoint_stride=32)
                    got = outcome(problem, config)
                    assert got == outcome(generic, config)
                    after_a_barrier += got == (k, 0)
        assert after_a_barrier


class TestBuiltProblems:
    @pytest.mark.parametrize("kind", KINDS)
    def test_pickled_problem_runs_bit_identically(self, kind):
        inst = generate_instance(kind, ACCEPT, seed=5)
        problem = build_problem(inst)
        config = FedRunConfig(n_agents=inst.n_agents, sync_period=4, step_size=0.05, horizon=300,
                              output_c=0.9, master_seed=7, checkpoint_stride=10)
        runs = [run_fedsam(p, config) for p in (problem, pickle.loads(pickle.dumps(problem)))]
        for field in ("checkpoint_ts", "theta_bar_series", "delta_series", "omega_series",
                      "output_theta", "final_theta_bar"):
            assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
        assert runs[0].output_index == runs[1].output_index


class TestNoiseTerms:
    """The tabular noise terms, taken per step from O(S A) rows, equal the
    (s, a, s') broadcast they replace, bit for bit, at every (s, a, s')."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n_actions", [1, 3])
    @pytest.mark.parametrize("n_states", [2, 5, 17])
    def test_off_policy_apply_b_equals_the_broadcast(self, n_states, n_actions, seed):
        params = GeneratorParams(n_states=n_states, n_actions=n_actions,
                                 branching=min(3, n_states), gamma=0.9, n_agents=2)
        gen = generate_instance(OFF_POLICY_TD_TABULAR, params, seed)
        # the target itself as agent 0: its ratios are exactly 1.0, so apply_b is td itself
        inst = AlgorithmInstance(kind=OFF_POLICY_TD_TABULAR, mdp=gen.mdp, target=gen.target,
                                 behaviors=[gen.target, *gen.behaviors])
        mdp, v_pi = inst.mdp, inst.fixed_point
        td = mdp.reward[:, :, None] + mdp.gamma * v_pi[None, None, :] - v_pi[:, None, None]
        problem = build_problem(inst)
        for i, ratios in enumerate(problem.ratios):
            for s, a, s2 in np.ndindex(td.shape):
                want = np.zeros(n_states)
                want[s] = 0.0 + 1.0 * ratios[s, a] * td[s, a, s2]
                got = problem.apply_b(i, ((s, s2), (a,)))
                assert got.tobytes() == want.tobytes(), (i, s, a, s2)
                if i == 0:
                    assert got[s] == td[s, a, s2]

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n_actions", [1, 3])
    @pytest.mark.parametrize("n_states", [2, 5, 17])
    def test_q_learning_apply_b_equals_the_broadcast(self, n_states, n_actions, seed):
        params = GeneratorParams(n_states=n_states, n_actions=n_actions,
                                 branching=min(3, n_states), gamma=0.9, n_agents=2)
        inst = generate_instance(Q_LEARNING, params, seed)
        mdp, q_star = inst.mdp, inst.fixed_point
        gamma_q_max = mdp.gamma * q_star.max(axis=1)
        b_table = mdp.reward[:, :, None] + gamma_q_max[None, None, :] - q_star[:, :, None]
        problem = build_problem(inst)
        for s, a, s2 in np.ndindex(b_table.shape):
            want = np.zeros(n_states * n_actions)
            want[s * n_actions + a] = b_table[s, a, s2]
            assert problem.apply_b(0, ((s, s2), (a,))).tobytes() == want.tobytes(), (s, a, s2)


def _traced(call) -> tuple[int, int]:
    """(retained, peak) bytes that tracemalloc traces while `call()` runs; the
    result is held until both are read."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
        del result
    finally:
        tracemalloc.stop()
    return current - start, peak - start


class TestSetUpMemory:
    """Set-up keeps one copy of each S A S array, and a built problem holds none."""

    PARAMS = GeneratorParams(n_states=200, n_actions=2, n_agents=4)
    TABLE = 200 * 2 * 200 * 8  # bytes of one S A S float64 table

    def set_up_call(self, case):
        """The set-up call a case traces, with its inputs built beforehand."""
        if case in KINDS:
            inst = generate_instance(case, self.PARAMS, seed=1)
            # built by the first chain: the MDP's own, shared by every problem of the instance
            assert len(inst.mdp.transition_cdf) * 8 == self.TABLE
            return lambda: build_problem(inst)
        if case == "generate_mdp":
            return lambda: generate_mdp(self.PARAMS, np.random.default_rng(1))
        rows = np.random.default_rng(1).dirichlet(np.ones(200), size=(200, 2))
        assert len(cdf_table(rows)) * 8 == self.TABLE
        return lambda: cdf_table(rows)

    # one more full-size temporary in generate_mdp, or a bytes copy in cdf_table,
    # reads 2.0 or 3.1 tables; a problem holding an S A S noise table, 1.07-1.2
    @pytest.mark.parametrize("case, reading, tables", [
        (OFF_POLICY_TD_TABULAR, "retained", 1.0),
        (Q_LEARNING, "retained", 1.0),
        ("generate_mdp", "peak", 1.5),
        ("cdf_table", "peak", 2.5),
    ])
    def test_set_up_stays_below_its_tables(self, case, reading, tables):
        retained, peak = _traced(self.set_up_call(case))
        assert {"retained": retained, "peak": peak}[reading] < tables * self.TABLE


class TestExpectedOperator:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_maps_to_zero(self, kind):
        inst = generate_instance(kind, ACCEPT, seed=15)
        for agent in range(inst.n_agents):
            assert np.abs(expected_operator(inst, np.zeros(inst.dim), agent)).max() <= 1e-12

    def test_matches_exhaustive_window_enumeration(self):
        # 2-state instance: stationary-weighted sum of G over every window
        params = GeneratorParams(n_states=2, n_actions=2, branching=2, gamma=0.6, n_step=2, n_agents=1)
        inst = generate_instance(OFF_POLICY_TD_TABULAR, params, seed=16)
        problem = build_problem(inst)
        theta = stream(24, 1).standard_normal(2)
        mu = inst.stationary[0]
        behavior = inst.behaviors[0]
        total = np.zeros(2)
        for s0 in range(2):
            for a0 in range(2):
                for s1 in range(2):
                    for a1 in range(2):
                        for s2 in range(2):
                            w = (
                                mu[s0]
                                * behavior.probs[s0, a0] * inst.mdp.transition[s0, a0, s1]
                                * behavior.probs[s1, a1] * inst.mdp.transition[s1, a1, s2]
                            )
                            y = (np.array([s0, s1, s2]), np.array([a0, a1]))
                            total += w * problem.apply_g(0, theta, y)
        assert np.abs(total - expected_operator(inst, theta, 0)).max() <= 1e-12

    def test_monte_carlo_mean_converges(self):
        params = GeneratorParams(n_states=3, n_actions=2, branching=2, gamma=0.7, n_step=1, n_agents=1)
        inst = generate_instance(Q_LEARNING, params, seed=17)
        problem = build_problem(inst)
        theta = stream(25, 1).standard_normal(inst.dim)
        gbar = expected_operator(inst, theta, 0)
        noise = problem.make_noise(0, stream(26, 1))
        for _ in range(300):
            noise.step()
        samples = 50_000
        acc = np.zeros(inst.dim)
        acc_sq = np.zeros(inst.dim)
        for _ in range(samples):
            g = problem.apply_g(0, theta, noise.step())
            acc += g
            acc_sq += g * g
        mean = acc / samples
        std = np.sqrt(np.maximum(acc_sq / samples - mean**2, 1e-12))
        # Markovian samples: allow 3 sigma with a correlation inflation factor
        z = np.abs(mean - gbar) / (std / math.sqrt(samples))
        assert z.max() <= 9.0


class TestTheoryConstants:
    def test_q_contraction_arithmetic(self):
        assert q_contraction_factor(0.1, 0.9) == pytest.approx(0.99, abs=1e-15)

    def test_td_contraction_arithmetic(self):
        assert td_contraction_factor(0.1, 0.9, 1) == pytest.approx(0.981, abs=1e-15)

    def test_td_lipschitz_case_split(self):
        # gamma * imax == 1 with n=3 takes the linear-in-n branch
        gamma = 0.8
        assert offpolicy_td_lipschitz(1.0 / gamma, gamma, 3) == pytest.approx(
            1.0 + (1.0 + gamma) * 3.0, abs=1e-12
        )

    def test_rate_constant_vanishes_with_contraction_gap(self):
        assert rate_constant(1e-9) == pytest.approx(0.0, abs=1e-6)
        assert rate_constant(0.3) > rate_constant(0.1) > 0.0

    def test_rate_constant_matches_envelope_derivation(self):
        # independent route: with contraction factor g = 1 - x and envelope
        # parameter psi = ((1+g)/(2g))^2 - 1, the rate is 1 - g sqrt((1+psi)/(1+psi/sqrt(e)))
        for x in (0.01, 0.05, 0.1, 0.3, 0.6):
            g = 1.0 - x
            psi = ((1.0 + g) / (2.0 * g)) ** 2 - 1.0
            via_psi = 1.0 - g * math.sqrt((1.0 + psi) / (1.0 + psi / math.sqrt(math.e)))
            assert rate_constant(x) == pytest.approx(via_psi, abs=1e-12)

    def test_instance_constants_consistent(self):
        inst = generate_instance(OFF_POLICY_TD_TABULAR, ACCEPT, seed=18)
        tc = theory_constants(inst)
        assert 0 < tc.gamma_c < 1
        assert tc.imax >= 1.0
        assert tc.c_out(0.1) == pytest.approx(1 - 0.1 * tc.phi / 2, abs=1e-15)
        mu_min = min(float(mu.min()) for mu in inst.stationary)
        assert tc.gamma_c == pytest.approx(td_contraction_factor(mu_min, 0.8, 2), abs=1e-15)

    def test_q_mu_min_over_state_action_pairs(self):
        inst = generate_instance(Q_LEARNING, ACCEPT, seed=19)
        tc = theory_constants(inst)
        expected = min(
            float((mu[:, None] * b.probs).min())
            for mu, b in zip(inst.stationary, inst.behaviors)
        )
        assert tc.mu_min == pytest.approx(expected, abs=1e-15)
        assert (tc.a1, tc.a2) == (2.0, 2.0)
        assert tc.b_bound == pytest.approx(2.0 / (1 - 0.8), abs=1e-12)

    @pytest.mark.parametrize("kind", (OFF_POLICY_TD_TABULAR, Q_LEARNING))
    def test_contraction_property_random_pairs(self, kind):
        inst = generate_instance(kind, ACCEPT, seed=20)
        gamma_c = theory_constants(inst).gamma_c
        rng = stream(27, 1)
        for _ in range(100):
            th1 = rng.standard_normal(inst.dim)
            th2 = rng.standard_normal(inst.dim)
            for agent in range(inst.n_agents):
                lhs = np.abs(
                    expected_operator(inst, th1, agent) - expected_operator(inst, th2, agent)
                ).max()
                assert lhs <= gamma_c * np.abs(th1 - th2).max() + 1e-12

    def test_lfa_spectral_condition_at_selected_beta(self):
        for seed in range(5):
            inst = generate_instance(ON_POLICY_TD_LFA, ACCEPT, seed=21 + seed)
            assert spectral_radius_at_beta(inst) < 1 - 0.01
            assert math.log2(inst.beta) == int(math.log2(inst.beta))  # power of two

    def test_select_beta_is_smallest_power_of_two(self):
        inst = generate_instance(ON_POLICY_TD_LFA, ACCEPT, seed=30)
        beta = select_beta(inst.expected_update_matrix())
        assert spectral_radius_at_beta(inst, beta) <= 0.99
        if beta > 2.0 ** -10:
            assert spectral_radius_at_beta(inst, beta / 2) > 0.99


class TestLfaLipschitzClosedForm:
    """The closed-form A1 equals the maximum of the exact per-pair 2-norms, bit for bit."""

    @staticmethod
    def pairwise_norm_max(inst) -> float:
        # the S^2 loop the closed form replaced
        phi, n = inst.features.phi, inst.n_step
        gamma, beta = inst.mdp.gamma, float(inst.beta)
        a_bound = 0.0
        for s0 in range(inst.mdp.n_states):
            for sn in range(inst.mdp.n_states):
                mat = np.eye(inst.features.d) + np.outer(phi[s0], (gamma**n) * phi[sn] - phi[s0]) / beta
                a_bound = max(a_bound, float(np.linalg.norm(mat, 2)))
        return a_bound

    @pytest.mark.parametrize("n_states,d,n_step,seeds", [
        (5, 1, 1, range(8)), (5, 2, 2, range(8)), (5, 5, 1, range(4)),
        (50, 1, 1, range(2)), (50, 3, 2, range(2)), (200, 4, 1, range(1)),
    ])
    def test_bit_equal_to_pairwise_norms(self, n_states, d, n_step, seeds):
        for seed in seeds:
            params = GeneratorParams(n_states=n_states, d=d, n_step=n_step, gamma=0.9)
            inst = generate_instance(ON_POLICY_TD_LFA, params, seed=seed)
            tc = theory_constants(inst)
            assert tc.a1 == self.pairwise_norm_max(inst)
            assert tc.a2 == tc.a1


class TestSingleNodeRunner:
    @pytest.mark.parametrize("kind", KINDS)
    def test_short_run_shapes_and_finiteness(self, kind):
        inst = generate_instance(kind, ACCEPT, seed=31)
        est = run_single_node(inst, alpha=0.1, horizon=200, rng=stream(32, 1))
        assert est.reshape(-1).shape == (inst.dim,)
        assert np.all(np.isfinite(est))
