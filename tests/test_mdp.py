"""Exact-solver and policy-algebra tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsam.errors import CoverageError, ErgodicityError
from fedsam.harness import GeneratorParams, generate_mdp
from fedsam.mdp import (
    FeatureMatrix,
    Mdp,
    Policy,
    bellman_optimality_operator,
    bellman_residual,
    certified_stationary,
    eigen_moduli,
    importance_ratio,
    importance_ratio_max,
    importance_ratio_table,
    optimality_residual,
    policy_transition_matrix,
    projected_fixed_point_oracle,
    projected_fixed_point_residual,
    q_star_oracle,
    reward_under_policy,
    stationary_distribution,
    value_function_oracle,
)


def single_state_mdp(reward: float, gamma: float, n_actions: int = 1, rewards=None) -> Mdp:
    rewards = [reward] * n_actions if rewards is None else rewards
    return Mdp(
        n_states=1,
        n_actions=n_actions,
        transition=np.ones((1, n_actions, 1)),
        reward=np.array([rewards], dtype=float),
        gamma=gamma,
    )


def random_mdp(n_states, n_actions, gamma, seed, branching=None) -> Mdp:
    params = GeneratorParams(
        n_states=n_states, n_actions=n_actions,
        branching=branching or n_states, gamma=gamma, d=1,
    )
    return generate_mdp(params, np.random.default_rng(seed))


def random_policy(n_states, n_actions, seed) -> Policy:
    return Policy(np.random.default_rng(seed).dirichlet(np.ones(n_actions), size=n_states))


class TestMdpInvariants:
    def test_rejects_non_stochastic_kernel(self):
        trans = np.ones((2, 1, 2))  # rows sum to 2
        with pytest.raises(ValueError, match="sum to 1"):
            Mdp(2, 1, trans, np.zeros((2, 1)), 0.9)

    def test_rejects_out_of_range_rewards(self):
        trans = np.full((1, 1, 1), 1.0)
        with pytest.raises(ValueError, match="rewards"):
            Mdp(1, 1, trans, np.array([[1.5]]), 0.9)

    def test_rejects_bad_gamma(self):
        trans = np.full((1, 1, 1), 1.0)
        with pytest.raises(ValueError, match="gamma"):
            Mdp(1, 1, trans, np.zeros((1, 1)), 1.0)

    def test_json_round_trip_is_exact(self):
        mdp = random_mdp(4, 3, 0.7321, seed=0)
        clone = Mdp.from_json(mdp.to_json())
        assert np.array_equal(clone.transition, mdp.transition)
        assert np.array_equal(clone.reward, mdp.reward)
        assert clone.gamma == mdp.gamma


class TestPolicyTransitionMatrix:
    def test_deterministic_cycle_gives_permutation(self):
        n = 4
        trans = np.zeros((n, 1, n))
        for s in range(n):
            trans[s, 0, (s + 1) % n] = 1.0
        mdp = Mdp(n, 1, trans, np.zeros((n, 1)), 0.9)
        p = policy_transition_matrix(mdp, Policy(np.ones((n, 1))))
        expected = np.roll(np.eye(n), 1, axis=1)
        assert np.array_equal(p, expected)

    def test_uniform_everything_gives_flat_matrix(self):
        n, a = 3, 2
        mdp = Mdp(n, a, np.full((n, a, n), 1 / n), np.zeros((n, a)), 0.9)
        p = policy_transition_matrix(mdp, Policy.uniform(n, a))
        assert np.allclose(p, 1 / n, atol=1e-15)

    def test_rows_sum_to_one_on_random_input(self):
        mdp = random_mdp(4, 3, 0.8, seed=3)
        p = policy_transition_matrix(mdp, random_policy(4, 3, 4))
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12

    def test_shape_mismatch_raises(self):
        mdp = random_mdp(4, 3, 0.8, seed=3)
        with pytest.raises(ValueError, match="shape"):
            policy_transition_matrix(mdp, random_policy(5, 3, 4))


class TestStationaryDistribution:
    def test_doubly_stochastic_two_state(self):
        mu = stationary_distribution(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(mu, [0.5, 0.5], atol=1e-12)

    def test_asymmetric_two_state(self):
        # mu (P - I) = 0 with sum 1 gives mu = [5/6, 1/6]
        mu = stationary_distribution(np.array([[0.9, 0.1], [0.5, 0.5]]))
        assert np.allclose(mu, [5 / 6, 1 / 6], atol=1e-12)

    def test_periodic_chain_rejected(self):
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ErgodicityError):
            stationary_distribution(perm)

    def test_reducible_chain_rejected(self):
        with pytest.raises(ErgodicityError):
            stationary_distribution(np.eye(3))

    def test_three_cycle_rejected(self):
        cycle = np.roll(np.eye(3), 1, axis=1)
        with pytest.raises(ErgodicityError):
            stationary_distribution(cycle)

    def test_two_block_chain_rejected(self):
        # two closed, individually ergodic classes: eigenvalue 1 is repeated
        block = np.array([[0.6, 0.4], [0.3, 0.7]])
        chain = np.zeros((4, 4))
        chain[:2, :2] = block
        chain[2:, 2:] = block[::-1]
        with pytest.raises(ErgodicityError):
            stationary_distribution(chain)

    def test_invariance_residual_on_random_chains(self):
        for seed in range(20):
            mdp = random_mdp(6, 2, 0.9, seed=seed, branching=3)
            p = policy_transition_matrix(mdp, random_policy(6, 2, seed + 100))
            mu = stationary_distribution(p)
            assert np.abs(mu @ p - mu).sum() <= 1e-10
            assert mu.min() > 0


def _two_blocks(c_ab: float, c_ba: float) -> np.ndarray:
    """Two closed 2-state classes, coupled c_ab one way and c_ba the other."""
    block = np.array([[0.6, 0.4], [0.3, 0.7]])
    chain = np.zeros((4, 4))
    chain[:2, :2] = block
    chain[2:, 2:] = block[::-1]
    chain[1, 1] -= c_ab
    chain[1, 2] += c_ab
    chain[2, 2] -= c_ba
    chain[2, 1] += c_ba
    return chain


def _blend(chain: np.ndarray, c: float) -> np.ndarray:
    return (1.0 - c) * chain + c / chain.shape[0]


THREE_CYCLE = np.roll(np.eye(3), 1, axis=1)
SECOND_MODULUS_1 = "second eigenvalue modulus 1.000000000000: chain reducible or periodic"
ZERO_MASS = "stationary distribution has (near-)zero mass states"


@st.composite
def ergodic_chains(draw) -> np.ndarray:
    """Random chains with every entry positive: dense, or 1-3 successors per row plus a small uniform blend."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        chain = rng.random((n, n)) ** 3 + 1e-9
    else:
        chain = np.zeros((n, n))
        for row in chain:
            succ = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
            row[succ] = rng.random(len(succ)) + 0.05
        chain = _blend(chain / chain.sum(axis=1, keepdims=True), draw(st.sampled_from([1e-3, 1e-2, 0.1])))
    return chain / chain.sum(axis=1, keepdims=True)


class TestMixingCertificate:
    """The squaring certificate only accepts; whatever it does not accept takes the eigenvalue path."""

    @settings(max_examples=200, deadline=None)
    @given(ergodic_chains())
    def test_bound_covers_second_eigenvalue_modulus(self, chain):
        moduli = eigen_moduli(chain)
        certified = certified_stationary(chain)
        if certified is not None:
            mu, bound = certified
            assert moduli[1] <= bound < 1.0 - 1e-12
            assert mu.tobytes() == stationary_distribution(chain, moduli).tobytes()
        assert stationary_distribution(chain).tobytes() == stationary_distribution(chain, moduli).tobytes()

    @pytest.mark.parametrize("chain", [
        np.array([[0.92938191, 0.07061809], [0.93839742, 0.06160258]]),  # rho 0.009
        np.tile([0.3, 0.2, 0.5], (3, 1)),  # rank one: rho 0
    ], ids=["rho_0.009", "rank_one"])
    def test_fast_mixing_chain_stops_before_its_powers_underflow(self, chain):
        chain = chain / chain.sum(axis=1, keepdims=True)
        _, bound = certified_stationary(chain)
        assert eigen_moduli(chain)[1] <= bound < 0.01

    @pytest.mark.parametrize("n_states", [5, 50, 200])
    def test_generated_chains_are_certified(self, n_states):
        mdp = random_mdp(n_states, 2, 0.9, seed=n_states, branching=3)
        for seed in range(3):
            chain = policy_transition_matrix(mdp, random_policy(n_states, 2, seed))
            _, bound = certified_stationary(chain)
            assert eigen_moduli(chain)[1] <= bound < 1.0 - 1e-12

    @pytest.mark.parametrize("chain,message", [
        (np.array([[0.0, 1.0], [1.0, 0.0]]), SECOND_MODULUS_1),
        (THREE_CYCLE, SECOND_MODULUS_1),
        (np.eye(3), SECOND_MODULUS_1),
        (_two_blocks(0.0, 0.0), SECOND_MODULUS_1),
        (_two_blocks(1e-14, 1e-14), SECOND_MODULUS_1),
        (_two_blocks(1e-14, 0.0), SECOND_MODULUS_1),
        (_two_blocks(1e-10, 0.0), ZERO_MASS),
        (_blend(THREE_CYCLE, 1e-14), SECOND_MODULUS_1),
    ], ids=["two_cycle", "three_cycle", "identity", "two_blocks", "blocks_1e-14",
            "leak_1e-14", "leak_1e-10", "cycle_1e-14"])
    def test_rejected_chains_are_never_certified(self, chain, message):
        assert certified_stationary(chain) is None
        for moduli in (None, eigen_moduli(chain)):
            with pytest.raises(ErgodicityError) as err:
                stationary_distribution(chain, moduli)
            assert str(err.value) == message

    @pytest.mark.parametrize("chain", [_two_blocks(1e-10, 1e-10), _blend(THREE_CYCLE, 1e-10)],
                             ids=["blocks_1e-10", "cycle_1e-10"])
    def test_near_reducible_ergodic_chains_keep_their_verdict(self, chain):
        # rho = 1 - O(1e-10) passes the eigenvalue verdict; no power up to
        # 2^8 certifies it, and the eigenvalue path gives the same bits
        assert certified_stationary(chain) is None
        expected = stationary_distribution(chain, eigen_moduli(chain))
        assert stationary_distribution(chain).tobytes() == expected.tobytes()


class TestValueFunctionOracle:
    def test_zero_rewards_give_zero_values(self):
        mdp = random_mdp(5, 2, 0.9, seed=1)
        zero = Mdp(5, 2, mdp.transition, np.zeros((5, 2)), 0.9)
        v = value_function_oracle(zero, random_policy(5, 2, 2))
        assert np.allclose(v, 0.0, atol=1e-15)

    def test_single_state_geometric_series(self):
        v = value_function_oracle(single_state_mdp(1.0, 0.9), Policy(np.ones((1, 1))))
        assert v[0] == pytest.approx(10.0, abs=1e-10)

    def test_matches_iterative_policy_evaluation(self):
        mdp = random_mdp(6, 3, 0.85, seed=7)
        policy = random_policy(6, 3, 8)
        v = value_function_oracle(mdp, policy)
        # independent oracle: fixed-point iteration run to 1e-12
        p_pi = policy_transition_matrix(mdp, policy)
        r_pi = reward_under_policy(mdp, policy)
        v_iter = np.zeros(6)
        for _ in range(100_000):
            v_next = r_pi + mdp.gamma * p_pi @ v_iter
            if np.abs(v_next - v_iter).max() <= 1e-12:
                break
            v_iter = v_next
        assert np.abs(v - v_iter).max() <= 1e-8

    def test_bellman_residual_bound(self):
        for seed in range(10):
            mdp = random_mdp(5, 2, 0.9, seed=seed)
            policy = random_policy(5, 2, seed + 50)
            v = value_function_oracle(mdp, policy)
            assert bellman_residual(mdp, policy, v) <= 1e-10
            assert np.abs(v).max() <= 1.0 / (1.0 - mdp.gamma) + 1e-9


class TestQStarOracle:
    def test_single_state_single_action(self):
        q = q_star_oracle(single_state_mdp(1.0, 0.5))
        assert q[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_single_state_good_and_bad_action(self):
        mdp = single_state_mdp(0.0, 0.5, n_actions=2, rewards=[1.0, 0.0])
        q = q_star_oracle(mdp)
        assert q[0, 0] == pytest.approx(2.0, abs=1e-10)
        assert q[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_optimality_residual(self):
        mdp = random_mdp(5, 3, 0.9, seed=5)
        assert optimality_residual(mdp, q_star_oracle(mdp)) <= 1e-10

    def test_greedy_policy_beats_random_policies(self):
        mdp = random_mdp(5, 3, 0.85, seed=6)
        q = q_star_oracle(mdp)
        greedy = np.zeros_like(q)
        greedy[np.arange(5), q.argmax(axis=1)] = 1.0
        v_greedy = value_function_oracle(mdp, Policy(greedy))
        for seed in range(50):
            v_other = value_function_oracle(mdp, random_policy(5, 3, seed))
            assert np.all(v_greedy >= v_other - 1e-9)

    def test_optimality_operator_is_sup_norm_contraction(self):
        mdp = random_mdp(5, 3, 0.9, seed=9)
        rng = np.random.default_rng(10)
        for _ in range(50):
            q1 = rng.standard_normal((5, 3))
            q2 = rng.standard_normal((5, 3))
            lhs = np.abs(
                bellman_optimality_operator(mdp, q1) - bellman_optimality_operator(mdp, q2)
            ).max()
            assert lhs <= mdp.gamma * np.abs(q1 - q2).max() + 1e-12


class TestProjectedFixedPoint:
    def test_identity_features_reproduce_value_function(self):
        mdp = random_mdp(5, 2, 0.8, seed=11)
        policy = random_policy(5, 2, 12)
        v = projected_fixed_point_oracle(mdp, policy, FeatureMatrix.identity(5), n=1)
        assert np.abs(v - value_function_oracle(mdp, policy)).max() <= 1e-8

    def test_zero_rewards_give_zero_weights(self):
        mdp = random_mdp(5, 2, 0.8, seed=13)
        zero = Mdp(5, 2, mdp.transition, np.zeros((5, 2)), 0.8)
        phi = FeatureMatrix(np.linalg.qr(np.random.default_rng(14).standard_normal((5, 2)))[0])
        v = projected_fixed_point_oracle(zero, random_policy(5, 2, 15), phi, n=2)
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_multistep_residual(self):
        mdp = random_mdp(6, 2, 0.85, seed=16)
        policy = random_policy(6, 2, 17)
        phi = FeatureMatrix(np.linalg.qr(np.random.default_rng(18).standard_normal((6, 2)))[0])
        v = projected_fixed_point_oracle(mdp, policy, phi, n=2)
        assert projected_fixed_point_residual(mdp, policy, phi, 2, v) <= 1e-8

    def test_rank_deficient_features_rejected(self):
        phi = np.ones((4, 2))  # duplicate columns
        with pytest.raises(ValueError, match="rank"):
            FeatureMatrix(phi)


class TestImportanceRatios:
    def test_identical_policies_give_one(self):
        pi = random_policy(3, 2, 20)
        table = importance_ratio_table(pi, pi)
        assert np.allclose(table, 1.0, atol=1e-15)

    def test_direct_ratio(self):
        target = Policy(np.array([[0.6, 0.4]]))
        behavior = Policy(np.array([[0.3, 0.7]]))
        assert importance_ratio(target, behavior, 0, 0) == pytest.approx(2.0, abs=1e-15)

    def test_coverage_violation_raises(self):
        target = Policy(np.array([[0.6, 0.4]]))
        behavior = Policy(np.array([[1.0, 0.0]]))
        with pytest.raises(CoverageError):
            importance_ratio(target, behavior, 0, 1)
        with pytest.raises(CoverageError):
            importance_ratio_table(target, behavior)

    def test_reweighting_identity_by_enumeration(self):
        # sum_a behavior(a|s) ratio(s,a) f(a) == sum_a target(a|s) f(a)
        target = random_policy(4, 3, 21)
        behavior = random_policy(4, 3, 22)
        table = importance_ratio_table(target, behavior)
        f = np.random.default_rng(23).standard_normal(3)
        for s in range(4):
            lhs = float((behavior.probs[s] * table[s] * f).sum())
            rhs = float((target.probs[s] * f).sum())
            assert abs(lhs - rhs) <= 1e-14

    def test_max_ratio_over_agents(self):
        target = Policy(np.array([[0.6, 0.4]]))
        behaviors = [Policy(np.array([[0.3, 0.7]])), Policy(np.array([[0.2, 0.8]]))]
        assert importance_ratio_max(target, behaviors) == pytest.approx(3.0, abs=1e-12)
