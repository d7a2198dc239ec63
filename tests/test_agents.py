"""Loss-function semantics: hand cases, reductions, and oracles."""

import numpy as np
import pytest

from o2olab import agents
from o2olab.envs import Batch
from o2olab.errors import NumericError
from o2olab.networks import (
    CriticEnsemble,
    GaussianPolicy,
    ScaleNet,
    critic_input,
    make_critic_ensemble,
    make_policy,
    make_scale_net,
)
from o2olab.numkit import (
    MlpSpec,
    ParamStack,
    ParamVector,
    init_params,
    mlp_forward_batch,
    mlp_grad_batch,
    mlp_input_grad,
)
from o2olab.optim import adam_step, init_opt_state
from o2olab.seeding import stream


def single_layer_critic(state_dim, action_dim, w_state, w_action, bias):
    """Exactly linear critic Q(s, a) = w_s . s + w_a . a + b."""
    spec = MlpSpec((state_dim + action_dim, 1))
    values = np.concatenate([np.atleast_1d(w_state), np.atleast_1d(w_action), [bias]])
    return ParamVector(spec, values)


def const_ensemble(state_dim, action_dim, value):
    member = single_layer_critic(state_dim, action_dim, np.zeros(state_dim), np.zeros(action_dim), value)
    return CriticEnsemble(ParamStack.of([member, member]))


def random_batch(rng, state_dim=3, action_dim=2, size=8, with_mc=True):
    rows = dict(
        s=rng.standard_normal((size, state_dim)),
        a=np.clip(rng.standard_normal((size, action_dim)), -0.95, 0.95),
        r=rng.standard_normal(size),
        s2=rng.standard_normal((size, state_dim)),
        done=(rng.random(size) < 0.2).astype(np.float64),
    )
    rng.random(size)  # the draw of the dropped outcome labels, so later draws stay put
    return Batch(**rows, mc=rng.standard_normal(size) + 1.0 if with_mc else np.full(size, np.nan))


def random_nets(rng, state_dim=3, action_dim=2, hidden=(8,), n_critics=2):
    policy = make_policy(state_dim, -np.ones(action_dim), np.ones(action_dim), hidden, rng, activation="tanh")
    ens = make_critic_ensemble(state_dim, action_dim, hidden, n_critics, rng, activation="tanh")
    ens.target_stack.values += 0.01 * rng.standard_normal(ens.target_stack.values.shape)
    return policy, ens


class TestPolicy:
    def test_vanishing_std_gives_squashed_mean(self):
        # Single-layer policy: zero weights, bias sets (mean, pre-std).
        spec = MlpSpec((1, 2))
        mean_u = 0.7
        params = ParamVector(spec, np.array([0.0, 0.0, mean_u, -30.0]))
        policy = GaussianPolicy(params, np.array([-1.0]), np.array([1.0]))
        a, _, _ = policy.sample(np.zeros((1, 1)), np.random.default_rng(0))
        assert abs(a[0, 0] - np.tanh(mean_u)) <= 1e-3

    def test_log_density_integrates_to_one(self):
        rng = stream(1, "policy")
        policy = make_policy(2, [-1.0], [1.0], (8, 8), rng)
        grid = np.linspace(-1 + 1e-9, 1 - 1e-9, 20001)
        s = np.tile(np.array([[0.4, -0.2]]), (grid.size, 1))
        logp, _ = policy.logprob_given(s, grid[:, None])
        mass = float(np.trapezoid(np.exp(logp), grid))
        assert 0.99 <= mass <= 1.01
        assert abs(mass - 1.0) <= 1e-3

    def test_sampling_deterministic_per_seed(self):
        rng = stream(2, "policy")
        policy = make_policy(2, [-1.0, -1.0], [1.0, 1.0], (8,), rng)
        s = np.zeros((1, 2))
        a1, l1, _ = policy.sample(s, np.random.default_rng(7))
        a2, l2, _ = policy.sample(s, np.random.default_rng(7))
        assert np.array_equal(a1, a2) and np.array_equal(l1, l2)

    def test_samples_respect_bounds(self):
        rng = stream(3, "policy")
        policy = make_policy(1, [-0.5], [2.0], (8,), rng)
        a, _, _ = policy.sample(np.zeros((500, 1)), rng)
        assert np.all(a >= -0.5) and np.all(a <= 2.0)

    @pytest.mark.parametrize("batch", [1, 7])
    def test_act_is_sample_without_log_density(self, batch):
        policy = make_policy(2, [-1.0, -0.5], [1.0, 2.0], (16, 16), stream(5, "policy"))
        s = stream(6, "states").standard_normal((batch, 2))
        by_sample, by_act = stream(7, "explore"), stream(7, "explore")
        want, _, _ = policy.sample(s, by_sample)
        got = policy.act(s, by_act)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert by_act.bit_generator.state == by_sample.bit_generator.state

    @pytest.mark.parametrize("batch", [1, 7])
    def test_stacked_mean_action_matches_each_member(self, batch):
        rng = stream(4, "policy")
        members = [make_policy(2, [-1.0, -0.5], [1.0, 2.0], (64, 64), rng) for _ in range(3)]
        stack = members[0].with_params(ParamStack.of(m.params for m in members))
        shared = rng.standard_normal((batch, 2))
        per_member = rng.standard_normal((3, batch, 2))
        stacked_shared = stack.mean_action(shared)
        stacked_own = stack.mean_action(per_member)
        assert stacked_shared.shape == stacked_own.shape == (3, batch, 2)
        for i, member in enumerate(members):
            assert np.array_equal(stacked_shared[i], member.mean_action(shared))
            assert np.array_equal(stacked_own[i], member.mean_action(per_member[i]))


class TestMinMemberActionGrad:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_equals_input_gradient_pass(self, activation):
        # The min-member Q and action gradient are those of one stacked
        # forward and one stacked input-gradient pass, bit for bit.
        rng = stream(8, "critics")
        ens = make_critic_ensemble(3, 2, (64, 64), 3, rng, activation=activation)
        x = rng.standard_normal((256, 5))
        stack = ens.member_stack
        qmin, ga = agents._min_member_action_grad(stack, x, 3)
        fwd = mlp_forward_batch(stack, x)
        gin = mlp_input_grad(fwd, np.ones((3, 256, 1)))
        qs = fwd.out[..., 0]
        idx, rows = np.argmin(qs, axis=0), np.arange(256)
        assert qmin.tobytes() == qs[idx, rows].tobytes()
        assert ga.tobytes() == gin[idx, rows, 3:].tobytes()


class TestSacCritic:
    def test_terminal_constant_reward_zero_loss(self):
        # Q == r on an all-terminal batch regresses exactly onto r.
        rng = stream(4, "x")
        ens = const_ensemble(2, 1, 1.5)
        policy = make_policy(2, [-1.0], [1.0], (4,), rng)
        batch = Batch(
            s=np.zeros((4, 2)),
            a=np.zeros((4, 1)),
            r=np.full(4, 1.5),
            s2=np.ones((4, 2)),
            done=np.ones(4),
            mc=np.zeros(4),
        )
        loss, grads = agents.sac_critic_loss(ens, policy, batch, 0.3, 0.99, rng)
        assert loss == 0.0

    def test_zero_discount_regresses_onto_reward(self):
        rng = stream(5, "x")
        policy, ens = random_nets(rng)
        batch = random_batch(rng)
        loss, _ = agents.sac_critic_loss(ens, policy, batch, 0.3, 0.0, stream(6, "t"))
        x = critic_input(batch.s, batch.a)
        manual = np.mean(
            [(mlp_forward_batch(m, x).out[:, 0] - batch.r) ** 2 for m in ens.member_stack.vectors()]
        )
        assert abs(loss - manual) <= 1e-15

    def test_min_over_targets_bounds_each_member(self):
        rng = stream(7, "x")
        policy, ens = random_nets(rng, n_critics=4)
        batch = random_batch(rng)
        a2, _, _ = policy.sample(batch.s2, np.random.default_rng(0))
        x2 = critic_input(batch.s2, a2)
        tq, _ = agents._min_over(ens.target_stack, x2)
        for t in ens.target_stack.vectors():
            assert np.all(tq <= mlp_forward_batch(t, x2).out[:, 0] + 1e-15)


class TestSacPolicy:
    def test_constant_q_reduces_to_entropy_gradient(self):
        rng = stream(8, "x")
        policy = make_policy(2, [-1.0], [1.0], (8,), rng, activation="tanh")
        ens = const_ensemble(2, 1, 2.0)
        batch = random_batch(rng, state_dim=2, action_dim=1)
        coef = 0.7
        loss, grad, _ = agents.sac_policy_loss(policy, ens, batch, coef, np.random.default_rng(9))
        # entropy-only objective with the same samples
        a, logp, internals = policy.sample(batch.s, np.random.default_rng(9))
        ent_grad = policy.sample_grads(
            internals, np.full(batch.size, coef / batch.size), np.zeros_like(a)
        )
        assert np.array_equal(grad, ent_grad)
        assert abs(loss - float(np.mean(coef * logp - 2.0))) <= 1e-15

    def test_trained_policy_matches_softmax_of_q(self):
        # Fit a critic to a sharp quadratic, train the policy against it
        # with entropy coefficient 1, and compare to exp(Q)/Z on the box
        # by quadrature.
        coef_q, center = 18.0, 0.1
        rng = stream(9, "init")
        cspec = MlpSpec((2, 32, 32, 1), activation="tanh")
        critic = init_params(cspec, rng)
        opt = init_opt_state("adam", critic.values.size, 1e-3)
        drng = stream(10, "data")
        for _ in range(4000):
            s = np.zeros((256, 1))
            a = drng.uniform(-1, 1, (256, 1))
            x = np.concatenate([s, a], axis=1)
            fwd = mlp_forward_batch(critic, x)
            resid = fwd.out[:, 0] - (-coef_q * (a[:, 0] - center) ** 2)
            grad = mlp_grad_batch(fwd, (2.0 / 256) * resid[:, None])
            critic, opt = adam_step(opt, critic, ParamVector(cspec, grad))
        ens = CriticEnsemble(ParamStack.of([critic, critic]))
        policy = make_policy(1, [-1.0], [1.0], (32, 32), rng, activation="tanh")
        batch = Batch(
            s=np.zeros((256, 1)), a=np.zeros((256, 1)), r=np.zeros(256),
            s2=np.zeros((256, 1)), done=np.zeros(256), mc=np.zeros(256),
        )
        prng = stream(11, "policy")
        for lr, steps in ((3e-4, 4000), (3e-5, 2000)):
            popt = init_opt_state("adam", policy.params.values.size, lr)
            for _ in range(steps):
                _, grad, _ = agents.sac_policy_loss(policy, ens, batch, 1.0, prng)
                newp, popt = adam_step(popt, policy.params, ParamVector(policy.params.spec, grad))
                policy = policy.with_params(newp)
        grid = np.linspace(-1 + 1e-6, 1 - 1e-6, 4001)
        x = np.concatenate([np.zeros((grid.size, 1)), grid[:, None]], axis=1)
        q = mlp_forward_batch(critic, x).out[:, 0]
        e = np.exp(q - q.max())
        pstar = e / np.trapezoid(e, grid)
        logp, _ = policy.logprob_given(np.zeros((grid.size, 1)), grid[:, None])
        kl = float(np.trapezoid(np.exp(logp) * (logp - np.log(pstar)), grid))
        assert kl <= 1e-2


class TestActionMixture:
    def test_counts_split_exactly(self):
        rng = stream(12, "x")
        policy = make_policy(2, [-1.0], [1.0], (8,), rng)
        s = np.zeros((10, 2))
        a = agents.sample_action_mixture(policy, s, 10, np.random.default_rng(13))
        assert a.shape == (10, 1)

    def test_uniform_half_passes_ks_test(self):
        rng = stream(13, "x")
        policy = make_policy(1, [-1.0], [1.0], (4,), rng)
        n = 100_000
        s = np.zeros((n, 1))
        a = agents.sample_action_mixture(policy, s, n, np.random.default_rng(14))
        uniform_half = np.sort(a[n // 2 :, 0])
        cdf = (uniform_half + 1.0) / 2.0
        ecdf = np.arange(1, uniform_half.size + 1) / uniform_half.size
        ks = np.max(np.abs(ecdf - cdf))
        assert ks <= 1.628 / np.sqrt(uniform_half.size)  # 1% critical value

    def test_all_samples_within_bounds(self):
        rng = stream(14, "x")
        policy = make_policy(1, [-0.3], [0.8], (4,), rng)
        a = agents.sample_action_mixture(policy, np.zeros((200, 1)), 200, np.random.default_rng(15))
        assert np.all(a >= -0.3) and np.all(a <= 0.8)

    def test_odd_batch_rejected(self):
        rng = stream(15, "x")
        policy = make_policy(1, [-1.0], [1.0], (4,), rng)
        with pytest.raises(ValueError):
            agents.sample_action_mixture(policy, np.zeros((3, 1)), 3, np.random.default_rng(0))


class LinearScoreStub:
    """Score model stand-in whose k=1 output is a fixed vector."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=np.float64)

    def predict(self, s, a, w, k):
        return np.tile(self.vector, (np.atleast_2d(s).shape[0], 1))


def unit_scale_net(state_dim, value=1.0):
    spec = MlpSpec((state_dim, 1))
    return ScaleNet(ParamVector(spec, np.concatenate([np.zeros(state_dim), [value]])))


class TestScoreMatch:
    def test_linear_critic_matching_score_gives_zero(self):
        # Q linear in the action with slope v, score estimate v, scale 1.
        v = np.array([0.4, -0.7])
        member = single_layer_critic(2, 2, np.array([0.3, -0.1]), v, 0.5)
        ens = CriticEnsemble(ParamStack.of([member, member]))
        rng = stream(16, "x")
        s = rng.standard_normal((6, 2))
        actions = rng.uniform(-1, 1, (6, 2))
        loss, grads, _ = agents.score_match_loss(
            ens, unit_scale_net(2, 1.0), LinearScoreStub(v), s, actions, 1.0
        )
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_zero_scale_measures_gradient_norm(self):
        v = np.array([0.4, -0.7])
        member = single_layer_critic(2, 2, np.zeros(2), v, 0.0)
        ens = CriticEnsemble(ParamStack.of([member, member]))
        rng = stream(17, "x")
        s = rng.standard_normal((5, 2))
        actions = rng.uniform(-1, 1, (5, 2))
        loss, _, _ = agents.score_match_loss(
            ens, unit_scale_net(2, 0.0), LinearScoreStub(np.array([9.0, 9.0])), s, actions, 1.0
        )
        assert abs(loss - float(v @ v)) <= 1e-15


class TestSmacCritic:
    def _setup(self, seed=18):
        rng = stream(seed, "x")
        policy, ens = random_nets(rng)
        scale = make_scale_net(3, (8,), rng, activation="tanh")
        batch = random_batch(rng, size=6)
        stub = LinearScoreStub(np.array([0.2, -0.3]))
        return policy, ens, scale, batch, stub

    def test_zero_weight_equals_plain_critic_loss(self):
        policy, ens, scale, batch, stub = self._setup()
        td_loss, td_grads = agents.sac_critic_loss(
            ens, policy, batch, 0.2, 0.99, np.random.default_rng(1)
        )
        out = agents.smac_critic_loss(
            ens, policy, scale, stub, batch,
            score_match_weight=0.0, entropy_coef=0.2, discount=0.99,
            target_rng=np.random.default_rng(1), action_rng=np.random.default_rng(2),
        )
        assert out.total == td_loss and out.sm_loss == 0.0
        assert all(np.array_equal(a, b) for a, b in zip(out.member_grads, td_grads))

    def test_weighted_sum_is_exact_composition(self):
        policy, ens, scale, batch, stub = self._setup()
        kappa = 40.0
        out = agents.smac_critic_loss(
            ens, policy, scale, stub, batch,
            score_match_weight=kappa, entropy_coef=0.2, discount=0.99,
            target_rng=np.random.default_rng(1), action_rng=np.random.default_rng(2),
        )
        assert out.total == out.td_loss + kappa * out.sm_loss
        td_loss, _ = agents.sac_critic_loss(ens, policy, batch, 0.2, 0.99, np.random.default_rng(1))
        assert out.td_loss == td_loss
        sm_actions = agents.sample_action_mixture(
            policy, batch.s, batch.size, np.random.default_rng(2)
        )
        sm_loss, _, _ = agents.score_match_loss(ens, scale, stub, batch.s, sm_actions, 1.0)
        assert out.sm_loss == sm_loss

    def test_nonzero_weight_drives_scale_gradient(self):
        policy, ens, scale, batch, stub = self._setup()
        out = agents.smac_critic_loss(
            ens, policy, scale, stub, batch,
            score_match_weight=40.0, entropy_coef=0.2, discount=0.99,
            target_rng=np.random.default_rng(1), action_rng=np.random.default_rng(2),
        )
        assert np.any(out.scale_grad != 0.0)


class TestConservativePenalties:
    def test_constant_q_zero_penalty(self):
        rng = stream(19, "x")
        policy = make_policy(3, [-1, -1], [1, 1], (4,), rng)
        ens = const_ensemble(3, 2, 5.0)
        batch = random_batch(rng)
        penalty, grads = agents.cql_penalty(ens, policy, batch, np.random.default_rng(0))
        assert penalty == 0.0

    def test_higher_data_q_gives_negative_penalty(self):
        # Q = -|a|^2-ish via linear critic with negative action slope and
        # dataset actions at the maximizer.
        rng = stream(20, "x")
        policy = make_policy(1, [-1.0], [1.0], (4,), rng)
        member = single_layer_critic(1, 1, np.zeros(1), np.array([1.0]), 0.0)
        ens = CriticEnsemble(ParamStack.of([member, member]))
        batch = Batch(
            s=np.zeros((6, 1)), a=np.full((6, 1), 1.0), r=np.zeros(6),
            s2=np.zeros((6, 1)), done=np.zeros(6), mc=np.zeros(6),
        )
        penalty, _ = agents.cql_penalty(ens, policy, batch, np.random.default_rng(21))
        assert penalty < 0.0

    def test_hand_case_matches_manual_arithmetic(self):
        # 3-transition batch, linear critic; recompute the penalty by
        # hand from the same sampled actions.
        rng = stream(21, "x")
        policy = make_policy(2, [-1.0], [1.0], (4,), rng)
        w_s, w_a, b = np.array([0.5, -0.25]), np.array([0.8]), 0.1
        member = single_layer_critic(2, 1, w_s, w_a, b)
        ens = CriticEnsemble(ParamStack.of([member, member]))
        batch = Batch(
            s=np.array([[0.1, 0.2], [-0.3, 0.4], [0.0, -0.5]]),
            a=np.array([[0.3], [-0.6], [0.9]]),
            r=np.zeros(3), s2=np.zeros((3, 2)), done=np.zeros(3),
            mc=np.zeros(3),
        )
        # Odd batches cannot split between policy and uniform samples.
        with pytest.raises(ValueError):
            agents.cql_penalty(ens, policy, batch, np.random.default_rng(22))
        batch4 = Batch(
            s=np.vstack([batch.s, [[0.7, 0.7]]]),
            a=np.vstack([batch.a, [[-0.2]]]),
            r=np.zeros(4), s2=np.zeros((4, 2)), done=np.zeros(4),
            mc=np.zeros(4),
        )
        penalty, _ = agents.cql_penalty(ens, policy, batch4, np.random.default_rng(22))
        sampled = agents.sample_action_mixture(
            policy, batch4.s, 4, np.random.default_rng(22)
        )
        q = lambda s, a: s @ w_s + a @ w_a + b
        manual = np.mean(q(batch4.s, sampled)) - np.mean(q(batch4.s, batch4.a))
        assert abs(penalty - manual) <= 1e-12

    def test_infinite_mc_sentinel_equals_plain_penalty(self):
        rng = stream(23, "x")
        policy, ens = random_nets(rng)
        batch = random_batch(rng, size=6)
        batch.mc = np.full(6, np.inf)
        a, _ = agents.cql_penalty(ens, policy, batch, np.random.default_rng(24))
        b, _ = agents.calql_penalty(ens, policy, batch, np.random.default_rng(24))
        assert a == b

    def test_capped_never_exceeds_plain(self):
        rng = stream(25, "x")
        for case in range(100):
            policy, ens = random_nets(rng)
            batch = random_batch(rng, size=6)
            plain, _ = agents.cql_penalty(ens, policy, batch, np.random.default_rng(case))
            capped, _ = agents.calql_penalty(ens, policy, batch, np.random.default_rng(case))
            assert capped <= plain + 1e-15

    def test_missing_mc_rejected(self):
        rng = stream(26, "x")
        policy, ens = random_nets(rng)
        batch = random_batch(rng, size=6, with_mc=False)
        with pytest.raises(ValueError, match="Monte-Carlo"):
            agents.calql_penalty(ens, policy, batch, np.random.default_rng(0))

    def test_two_element_capped_hand_case(self):
        rng = stream(27, "x")
        policy = make_policy(1, [-1.0], [1.0], (4,), rng)
        w_a = np.array([2.0])
        member = single_layer_critic(1, 1, np.zeros(1), w_a, 0.0)
        ens = CriticEnsemble(ParamStack.of([member, member]))
        batch = Batch(
            s=np.zeros((2, 1)), a=np.array([[0.5], [-0.5]]), r=np.zeros(2),
            s2=np.zeros((2, 1)), done=np.zeros(2), mc=np.array([0.3, -2.0]),
        )
        penalty, _ = agents.calql_penalty(ens, policy, batch, np.random.default_rng(28))
        sampled = agents.sample_action_mixture(
            policy, batch.s, 2, np.random.default_rng(28)
        )
        q_ood = sampled[:, 0] * 2.0
        manual = np.mean(np.minimum(batch.mc, q_ood)) - np.mean(batch.a[:, 0] * 2.0)
        assert abs(penalty - manual) <= 1e-12


class TestIql:
    def _nets(self, seed=29):
        rng = stream(seed, "x")
        policy, ens = random_nets(rng)
        value = make_scale_net(3, (8,), rng, activation="tanh")
        return policy, ens, value

    def test_symmetric_expectile_is_half_mse(self):
        policy, ens, value = self._nets()
        rng = stream(30, "x")
        for case in range(20):
            batch = random_batch(rng)
            out = agents.iql_losses(ens, value, policy, batch, 0.5, 1.0, 0.99)
            x = critic_input(batch.s, batch.a)
            qt, _ = agents._min_over(ens.target_stack, x)
            u = qt - value.values(batch.s)
            assert abs(out.value_loss - 0.5 * np.mean(u * u)) <= 1e-12

    def test_asymmetric_weights(self):
        # u = +1 gets weight tau, u = -1 gets 1 - tau.
        member = single_layer_critic(1, 1, np.ones(1), np.zeros(1), 0.0)  # Q = s
        ens = CriticEnsemble(ParamStack.of([member, member]))
        value = ScaleNet(ParamVector(MlpSpec((1, 1)), np.array([0.0, 0.0])))  # V = 0
        rng = stream(31, "x")
        policy = make_policy(1, [-1.0], [1.0], (4,), rng)
        batch = Batch(
            s=np.array([[1.0], [-1.0]]), a=np.zeros((2, 1)), r=np.zeros(2),
            s2=np.zeros((2, 1)), done=np.zeros(2), mc=np.zeros(2),
        )
        out = agents.iql_losses(ens, value, policy, batch, 0.9, 1.0, 0.99)
        assert abs(out.value_loss - 0.5 * (0.9 * 1.0 + 0.1 * 1.0)) <= 1e-15

    def test_expectile_minimizer_on_grid(self):
        # The 0.9-expectile of {0, 1} is 0.9: sweep constant value nets
        # over a grid and find the value-loss minimizer.
        member = single_layer_critic(1, 1, np.ones(1), np.zeros(1), 0.0)  # Q = s
        ens = CriticEnsemble(ParamStack.of([member, member]))
        rng = stream(32, "x")
        policy = make_policy(1, [-1.0], [1.0], (4,), rng)
        batch = Batch(
            s=np.array([[0.0], [1.0]]), a=np.zeros((2, 1)), r=np.zeros(2),
            s2=np.zeros((2, 1)), done=np.zeros(2), mc=np.zeros(2),
        )
        grid = np.linspace(0.0, 1.0, 1001)
        losses = []
        for v in grid:
            value = ScaleNet(ParamVector(MlpSpec((1, 1)), np.array([0.0, v])))
            losses.append(agents.iql_losses(ens, value, policy, batch, 0.9, 1.0, 0.99).value_loss)
        assert abs(grid[int(np.argmin(losses))] - 0.9) <= 2e-3

    def test_critic_regresses_to_value_target(self):
        policy, ens, value = self._nets(33)
        rng = stream(34, "x")
        batch = random_batch(rng)
        out = agents.iql_losses(ens, value, policy, batch, 0.7, 1.0, 0.99)
        y = batch.r + 0.99 * (1.0 - batch.done) * value.values(batch.s2)
        x = critic_input(batch.s, batch.a)
        manual = np.mean([(mlp_forward_batch(m, x).out[:, 0] - y) ** 2 for m in ens.member_stack.vectors()])
        assert abs(out.critic_loss - manual) <= 1e-12

    def test_policy_weights_clipped(self):
        policy, ens, value = self._nets(35)
        rng = stream(36, "x")
        batch = random_batch(rng)
        out = agents.iql_losses(ens, value, policy, batch, 0.7, 1e-6, 0.99)
        x = critic_input(batch.s, batch.a)
        qt, _ = agents._min_over(ens.target_stack, x)
        u = qt - value.values(batch.s)
        wts = np.minimum(np.exp(np.minimum(u / 1e-6, 700.0)), agents.WEIGHT_CLIP)
        logp, _ = policy.logprob_given(batch.s, batch.a)
        assert abs(out.policy_loss - np.mean(-wts * logp)) <= 1e-9


class TestTd3:
    def test_no_smoothing_uses_exact_mean_action(self):
        rng = stream(37, "x")
        policy, ens = random_nets(rng)
        batch = random_batch(rng)
        out = agents.td3_losses(ens, policy, batch, 0.99, np.random.default_rng(0), smoothing=False)
        a2 = policy.mean_action(batch.s2)
        x2 = critic_input(batch.s2, a2)
        tq, _ = agents._min_over(ens.target_stack, x2)
        y = batch.r + 0.99 * (1.0 - batch.done) * tq
        x = critic_input(batch.s, batch.a)
        manual = np.mean([(mlp_forward_batch(m, x).out[:, 0] - y) ** 2 for m in ens.member_stack.vectors()])
        assert abs(out.critic_loss - manual) <= 1e-12

    def test_smoothing_noise_stays_within_clip(self):
        rng = stream(38, "x")
        policy, ens = random_nets(rng)
        batch = random_batch(rng, size=64)
        out_a = agents.td3_losses(ens, policy, batch, 0.99, np.random.default_rng(1))
        out_b = agents.td3_losses(ens, policy, batch, 0.99, np.random.default_rng(1))
        assert out_a.critic_loss == out_b.critic_loss  # seeded determinism

    def test_constant_q_zero_policy_gradient(self):
        rng = stream(39, "x")
        policy = make_policy(3, [-1, -1], [1, 1], (8,), rng)
        ens = const_ensemble(3, 2, 4.0)
        batch = random_batch(rng)
        out = agents.td3_losses(ens, policy, batch, 0.99, np.random.default_rng(2), smoothing=False)
        assert np.all(out.policy_grad == 0.0)
        assert out.policy_loss == -4.0


class TestTd3Bc:
    def test_constant_q_leaves_bc_gradient_only(self):
        rng = stream(40, "x")
        policy = make_policy(3, [-1, -1], [1, 1], (8,), rng)
        ens = const_ensemble(3, 2, 3.0)
        batch = random_batch(rng)
        beta = 2.5
        loss, grad = agents.td3bc_policy_loss(ens, policy, batch, beta)
        a_mean = policy.mean_action(batch.s)
        bc_grad = policy.mean_action_grads(
            policy.forward(batch.s), (2.0 * beta / batch.size) * (a_mean - batch.a)
        )
        assert np.array_equal(grad, bc_grad)
        manual = -1.0 + beta * np.mean(np.sum((a_mean - batch.a) ** 2, axis=1))
        assert abs(loss - manual) <= 1e-12

    def test_large_bc_weight_dominates(self):
        rng = stream(41, "x")
        policy, ens = random_nets(rng)
        batch = random_batch(rng)
        _, grad = agents.td3bc_policy_loss(ens, policy, batch, 1e9)
        a_mean = policy.mean_action(batch.s)
        bc_grad = policy.mean_action_grads(
            policy.forward(batch.s), (2.0 * 1e9 / batch.size) * (a_mean - batch.a)
        )
        cos = grad @ bc_grad / (np.linalg.norm(grad) * np.linalg.norm(bc_grad))
        assert cos >= 1.0 - 1e-9

    def test_two_transition_hand_case(self):
        w_a = np.array([1.5])
        member = single_layer_critic(1, 1, np.zeros(1), w_a, 0.2)
        ens = CriticEnsemble(ParamStack.of([member, member]))
        spec = MlpSpec((1, 2))
        params = ParamVector(spec, np.array([0.0, 0.0, 0.4, 0.0]))  # mean head 0.4
        policy = GaussianPolicy(params, np.array([-1.0]), np.array([1.0]))
        batch = Batch(
            s=np.zeros((2, 1)), a=np.array([[0.1], [-0.2]]), r=np.zeros(2),
            s2=np.zeros((2, 1)), done=np.zeros(2), mc=np.zeros(2),
        )
        beta = 0.7
        loss, _ = agents.td3bc_policy_loss(ens, policy, batch, beta)
        a_mean = np.tanh(0.4)
        q = 1.5 * a_mean + 0.2
        norm = abs(q)
        manual = np.mean(
            [-q / norm + beta * (a_mean - 0.1) ** 2, -q / norm + beta * (a_mean + 0.2) ** 2]
        )
        assert abs(loss - manual) <= 1e-12


class TestAwr:
    def test_equal_advantages_reduce_to_cloning(self):
        rng = stream(42, "x")
        policy = make_policy(3, [-1, -1], [1, 1], (8,), rng)
        ens = const_ensemble(3, 2, 1.0)
        batch = random_batch(rng)
        loss, grad = agents.awr_policy_loss(ens, policy, batch, 0.5, np.random.default_rng(3))
        logp, internals = policy.logprob_given(batch.s, batch.a)
        bc_grad = policy.given_grads(internals, -np.ones(batch.size) / batch.size)
        assert np.array_equal(grad, bc_grad)
        assert abs(loss - np.mean(-logp)) <= 1e-12

    def test_infinite_temperature_flattens_weights(self):
        rng = stream(43, "x")
        policy, ens = random_nets(rng)
        batch = random_batch(rng)
        wts = agents.awr_weights(ens, policy, batch, 1e12, np.random.default_rng(4))
        assert np.allclose(wts, 1.0, atol=1e-10)

    def test_two_transition_hand_case(self):
        rng = stream(44, "x")
        policy = make_policy(1, [-1.0], [1.0], (4,), rng)
        member = single_layer_critic(1, 1, np.zeros(1), np.array([1.0]), 0.0)
        ens = CriticEnsemble(ParamStack.of([member, member]))
        batch = Batch(
            s=np.zeros((2, 1)), a=np.array([[0.5], [-0.5]]), r=np.zeros(2),
            s2=np.zeros((2, 1)), done=np.zeros(2), mc=np.zeros(2),
        )
        temp = 0.8
        loss, _ = agents.awr_policy_loss(ens, policy, batch, temp, np.random.default_rng(5))
        a_pi, _, _ = policy.sample(batch.s, np.random.default_rng(5))
        adv = batch.a[:, 0] - a_pi[:, 0]
        wts = np.minimum(np.exp(adv / temp), 100.0)
        logp, _ = policy.logprob_given(batch.s, batch.a)
        assert abs(loss - np.mean(-wts * logp)) <= 1e-12


class TestMaxEntIdentity:
    def test_quadratic_gap_tiny(self):
        grid = np.linspace(-4.0, 4.0, 2001)
        gap = agents.verify_maxent_identity(lambda a: -0.5 * (a - 0.2) ** 2, 1.0, grid)
        assert gap <= 1e-6

    def test_constant_q_uniform_density(self):
        grid = np.linspace(-1.0, 1.0, 501)
        gap = agents.verify_maxent_identity(lambda a: np.zeros_like(a), 1.0, grid)
        assert gap <= 1e-6

    def test_scaling_invariance(self):
        grid = np.linspace(-3.0, 3.0, 1001)
        q = lambda a: -(a**2) + 0.5 * a
        g1 = agents.verify_maxent_identity(q, 1.0, grid)
        g2 = agents.verify_maxent_identity(lambda a: 7.0 * q(a), 7.0, grid)
        assert abs(g1 - g2) <= 1e-9

    def test_divergent_normalizer_rejected(self):
        grid = np.linspace(-2.0, 2.0, 101)
        with pytest.raises(ValueError, match="diverges"):
            agents.verify_maxent_identity(lambda a: np.where(np.abs(a) > 1, np.inf, 0.0), 1.0, grid)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            agents.verify_maxent_identity(lambda a: a, 0.0, np.linspace(0, 1, 11))


class TestEntropyCoef:
    def test_moves_toward_target(self):
        # Entropy below target (mean logp + target > 0) grows the coefficient.
        up = agents.entropy_coef_update(0.0, mean_logp=-1.0, target_entropy=2.0, lr=0.1)
        assert up > 0.0
        down = agents.entropy_coef_update(0.0, mean_logp=-5.0, target_entropy=2.0, lr=0.1)
        assert down < 0.0

    @pytest.mark.parametrize(
        "log_coef, mean_logp, lr",
        [
            # One step past the largest coefficient a float64 holds.
            (agents.LOG_ENTROPY_COEF_MAX - 0.5, 0.0, 1.0),
            # A gradient that overflows to inf.
            (700.0, 1e300, 1.0),
            # A step of inf * 0.
            (0.0, -1.0, np.inf),
        ],
        ids=["past-max", "gradient-overflow", "nan-step"],
    )
    def test_overflow_names_the_coefficient(self, log_coef, mean_logp, lr):
        # It used to return a log coefficient whose exp overflows (a
        # RuntimeWarning at the next exp), and the run then aborted a step
        # later on a non-finite TD target.
        with pytest.raises(NumericError, match="entropy coefficient"):
            agents.entropy_coef_update(log_coef, mean_logp, target_entropy=1.0, lr=lr)

    def test_largest_finite_coefficient_accepted(self):
        top = agents.LOG_ENTROPY_COEF_MAX
        assert agents.entropy_coef_update(top, mean_logp=-1.0, target_entropy=1.0, lr=1.0) == top
        assert np.isfinite(np.exp(top))
