"""Optimizers: Adam, Newton-Schulz orthogonalization, Muon, Polyak."""

from dataclasses import replace

import numpy as np
import pytest

from o2olab.errors import NumericError, ShapeError
from o2olab.numkit import MlpSpec, ParamStack, ParamVector, init_params
from o2olab.optim import (
    adam_step,
    init_opt_state,
    muon_step,
    newton_schulz_orthogonalize,
    optimizer_step,
    polyak_update,
)


def vec(spec, values):
    return ParamVector(spec, np.asarray(values, dtype=np.float64))


class TestAdam:
    spec = MlpSpec((1, 1))  # two parameters: weight, bias

    def test_zero_gradient_fresh_state_unchanged(self):
        state = init_opt_state("adam", 2, 0.1)
        params = vec(self.spec, [1.0, -2.0])
        new, _ = adam_step(state, params, vec(self.spec, [0.0, 0.0]))
        assert np.array_equal(new.values, params.values)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        state = init_opt_state("adam", 2, 0.1)
        params = vec(self.spec, [0.0, 0.0])
        g = vec(self.spec, [1.0, -3.0])
        prev = params.values.copy()
        for _ in range(500):
            params, state = adam_step(state, params, g)
        step = params.values - prev_after_last_step(prev, params, state, g)
        # magnitude of the final per-coordinate step approaches lr, with
        # sign opposite the gradient
        assert np.allclose(np.abs(step), 0.1, atol=1e-3)
        assert np.all(np.sign(step) == -np.sign(g.values))

    def test_single_step_hand_recurrence(self):
        # One step with g = 1: m_hat = 1, v_hat = 1, so the update is
        # -lr / (1 + eps) exactly.
        state = init_opt_state("adam", 2, 0.1)
        params = vec(self.spec, [0.0, 0.0])
        new, st = adam_step(state, params, vec(self.spec, [1.0, 1.0]))
        want = -0.1 * 1.0 / (1.0 + 1e-8)
        assert np.allclose(new.values, want, rtol=0, atol=1e-18)
        assert st.step_count == 1

    def test_matches_hand_evaluated_recurrence_multi_step(self):
        rng = np.random.default_rng(0)
        state = init_opt_state("adam", 2, 0.01)
        params = vec(self.spec, rng.standard_normal(2))
        m = np.zeros(2)
        v = np.zeros(2)
        x = params.values.copy()
        for t in range(1, 6):
            g = rng.standard_normal(2)
            params, state = adam_step(state, params, vec(self.spec, g))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x = x - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert np.array_equal(params.values, x)

    def test_leaves_its_inputs_untouched(self):
        # The step is pure, and on a stack it equals the written recurrence
        # bit for bit, with each operation in the written order.
        rng = np.random.default_rng(1)
        spec = MlpSpec((3, 16, 2))
        params = ParamStack(spec, rng.standard_normal((3, spec.param_count)))
        grad = ParamStack(spec, rng.standard_normal((3, spec.param_count)))
        state = replace(
            init_opt_state("adam", params.values.shape, 0.01),
            step_count=4,
            m=rng.standard_normal(params.values.shape),
            v=rng.random(params.values.shape),
        )
        handed = [params.values, grad.values, state.m, state.v]
        before = [a.copy() for a in handed]
        new, st = adam_step(state, params, grad)
        for old, now in zip(before, handed):
            assert old.tobytes() == now.tobytes()
        g, m0, v0 = before[1], before[2], before[3]
        m = 0.9 * m0 + (1.0 - 0.9) * g
        v = 0.999 * v0 + (1.0 - 0.999) * g * g
        want = before[0] - 0.01 * (m / (1.0 - 0.9**5)) / (np.sqrt(v / (1.0 - 0.999**5)) + 1e-8)
        assert st.m.tobytes() == m.tobytes() and st.v.tobytes() == v.tobytes()
        assert new.values.tobytes() == want.tobytes()

    def test_non_finite_gradient_rejected(self):
        state = init_opt_state("adam", 2, 0.1)
        with pytest.raises(NumericError):
            adam_step(state, vec(self.spec, [0.0, 0.0]), vec(self.spec, [np.nan, 0.0]))

    def test_deterministic(self):
        state = init_opt_state("adam", 2, 0.1)
        params = vec(self.spec, [1.0, 2.0])
        g = vec(self.spec, [0.3, -0.2])
        a, _ = adam_step(state, params, g)
        b, _ = adam_step(state, params, g)
        assert np.array_equal(a.values, b.values)


def prev_after_last_step(initial, params, state, g):
    """Parameters one step before the final ones (re-run the recurrence)."""
    # Recompute the trajectory one step short.
    st = init_opt_state("adam", 2, state.learning_rate)
    p = ParamVector(params.spec, initial)
    for _ in range(state.step_count - 1):
        p, st = adam_step(st, p, g)
    return p.values


class TestNewtonSchulz:
    def test_orthogonal_input_is_fixed_point(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        out = newton_schulz_orthogonalize(q, 5)
        assert np.max(np.abs(out - q)) <= 1e-2

    def test_identity_is_fixed_point(self):
        for n in (2, 4, 8, 16):
            out = newton_schulz_orthogonalize(np.eye(n), 5)
            assert np.max(np.abs(out - np.eye(n))) <= 1e-2

    def test_diagonal_matches_svd_oracle(self):
        out = newton_schulz_orthogonalize(np.diag([3.0, 0.5]), 5)
        # The SVD orthogonal factor of a positive diagonal matrix is I.
        assert np.max(np.abs(out - np.eye(2))) <= 1e-4

    def test_random_16x8_singular_values_in_band(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = rng.standard_normal((16, 8))
            out = newton_schulz_orthogonalize(g, 5)
            sv = np.linalg.svd(out, compute_uv=False)
            assert sv.min() >= 0.7 and sv.max() <= 1.3

    def test_gram_residual_bound(self):
        # Rectangular Gaussian matrices keep their smallest singular
        # value well away from zero, so five sweeps suffice.
        rng = np.random.default_rng(3)
        for shape in ((16, 8), (12, 6), (6, 12)):
            for _ in range(10):
                g = rng.standard_normal(shape)
                out = newton_schulz_orthogonalize(g, 5)
                k = min(shape)
                gram = out @ out.T if shape[0] <= shape[1] else out.T @ out
                assert np.max(np.abs(gram - np.eye(k))) <= 0.3

    def test_matches_svd_polar_factor(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((10, 6))
        u, _, vt = np.linalg.svd(g, full_matrices=False)
        out = newton_schulz_orthogonalize(g, 12)
        assert np.max(np.abs(out - u @ vt)) <= 1e-3

    def test_wide_matrix_transposition(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 9))
        out = newton_schulz_orthogonalize(g, 5)
        assert out.shape == (4, 9)
        assert np.max(np.abs(out @ out.T - np.eye(4))) <= 0.3

    @pytest.mark.parametrize("shape", [(64, 4), (4, 64), (1, 64), (64, 1)])
    def test_small_side_shapes_match_svd_polar_factor(self, shape):
        rng = np.random.default_rng(6)
        g = rng.standard_normal(shape)
        u, _, vt = np.linalg.svd(g, full_matrices=False)
        out = newton_schulz_orthogonalize(g, 12)
        assert out.shape == shape
        assert np.max(np.abs(out - u @ vt)) <= 1e-3

    @pytest.mark.parametrize("shape", [(3, 64, 4), (2, 4, 64), (5, 8, 8), (2, 1, 64)])
    def test_stack_equals_per_matrix_calls(self, shape):
        g = np.random.default_rng(7).standard_normal(shape)
        out = newton_schulz_orthogonalize(g, 5)
        assert np.array_equal(out, np.stack([newton_schulz_orthogonalize(m, 5) for m in g]))

    def test_zero_matrix_in_stack_rejected(self):
        g = np.ones((2, 3, 3))
        g[1] = 0.0
        with pytest.raises(ValueError):
            newton_schulz_orthogonalize(g)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            newton_schulz_orthogonalize(np.zeros((3, 3)))

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeError):
            newton_schulz_orthogonalize(np.zeros(3))


class TestMuon:
    spec = MlpSpec((3, 4, 2), activation="tanh")

    def test_zero_gradient_zero_momentum_unchanged(self):
        rng = np.random.default_rng(6)
        params = init_params(self.spec, rng)
        state = init_opt_state("muon", params.values.size, 0.05)
        new, st = muon_step(state, params, vec(self.spec, np.zeros(params.values.size)))
        assert np.array_equal(new.values, params.values)
        assert st.step_count == 1

    def test_rank_one_gradient_updates_along_uv(self):
        # A rank-1 gradient on a single weight matrix orthogonalizes to
        # u v^T (its SVD factor), so the update is -lr * u v^T.
        spec = MlpSpec((3, 2))
        params = ParamVector(spec, np.zeros(spec.param_count))
        u = np.array([1.0, -2.0])
        v = np.array([0.5, 1.0, -1.5])
        g_w = np.outer(u, v)
        grad = np.concatenate([g_w.reshape(-1), np.zeros(2)])
        state = init_opt_state("muon", grad.size, 0.1)
        new, _ = muon_step(state, params, ParamVector(spec, grad))
        w_update = (new.values - params.values)[:6].reshape(2, 3)
        uv = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        assert np.max(np.abs(w_update + 0.1 * uv)) <= 1e-3

    def test_bias_only_reduces_to_momentum_sgd(self):
        # Zero the weight-matrix gradients; bias coordinates must follow
        # the Nesterov momentum-SGD recurrence exactly.
        rng = np.random.default_rng(7)
        params = init_params(self.spec, rng)
        state = init_opt_state("muon", params.values.size, 0.05)
        mask = np.zeros(params.values.size)
        pos = 0
        for (out_w, in_w), _ in self.spec.layer_shapes():
            pos += out_w * in_w
            mask[pos : pos + out_w] = 1.0
            pos += out_w
        mu = 0.95
        buf = np.zeros(params.values.size)
        expect = params.values.copy()
        for t in range(4):
            g = rng.standard_normal(params.values.size) * mask
            params, state = muon_step(state, params, ParamVector(self.spec, g))
            buf = mu * buf + (1.0 - mu) * g
            eff = (1.0 - mu) * g + mu * buf
            expect = expect - 0.05 * eff
            assert np.array_equal(params.values, expect)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        params = init_params(self.spec, rng)
        g = ParamVector(self.spec, rng.standard_normal(params.values.size))
        state = init_opt_state("muon", params.values.size, 0.05)
        a, _ = muon_step(state, params, g)
        b, _ = muon_step(state, params, g)
        assert np.array_equal(a.values, b.values)


class TestPolyak:
    spec = MlpSpec((2, 2))

    def test_rate_one_copies_online(self):
        target = vec(self.spec, np.zeros(6))
        online = vec(self.spec, np.arange(6.0))
        out = polyak_update(target, online, 1.0)
        assert np.array_equal(out.values, online.values)

    def test_small_rate_value(self):
        target = vec(self.spec, np.zeros(6))
        online = vec(self.spec, np.ones(6))
        out = polyak_update(target, online, 0.005)
        assert np.allclose(out.values, 0.005, rtol=0, atol=1e-18)

    def test_repeated_updates_converge_geometrically(self):
        target = vec(self.spec, np.zeros(6))
        online = vec(self.spec, np.full(6, 3.0))
        t = target
        for k in range(1, 200):
            t = polyak_update(t, online, 0.05)
            want = 3.0 * (1.0 - 0.95**k)
            assert np.allclose(t.values, want, rtol=1e-12)
        assert np.max(np.abs(t.values - 3.0)) < 3.0 * 0.95**100

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(9)
        target = vec(self.spec, rng.standard_normal(6))
        online = vec(self.spec, target.values + np.abs(rng.standard_normal(6)))
        prev = polyak_update(target, online, 0.1).values
        for rate in (0.3, 0.7, 1.0):
            cur = polyak_update(target, online, rate).values
            assert np.all(cur >= prev)
            prev = cur

    def test_invalid_rate_and_mismatch_rejected(self):
        target = vec(self.spec, np.zeros(6))
        with pytest.raises(ValueError):
            polyak_update(target, target, 0.0)
        other = ParamVector(MlpSpec((1, 2)), np.zeros(MlpSpec((1, 2)).param_count))
        with pytest.raises(ShapeError):
            polyak_update(target, other, 0.5)


@pytest.mark.parametrize("kind", ["adam", "muon"])
def test_stacked_steps_equal_per_member_steps(kind):
    # Member 1's first-layer gradient is zero, so Muon must orthogonalize
    # member 0's matrix alone and leave member 1's as it is.
    rng = np.random.default_rng(8)
    spec = MlpSpec((3, 4, 2), activation="tanh")
    members = [init_params(spec, rng) for _ in range(3)]
    stack = ParamStack.of(members)
    grads = rng.standard_normal(stack.values.shape)
    grads[1, :12] = 0.0
    state = init_opt_state(kind, stack.values.shape, 0.05)
    singles = [init_opt_state(kind, spec.param_count, 0.05) for _ in members]
    for _ in range(3):
        stack, state = optimizer_step(state, stack, ParamStack(spec, grads))
        stepped = [optimizer_step(st, p, vec(spec, g)) for st, p, g in zip(singles, members, grads)]
        members, singles = [p for p, _ in stepped], [st for _, st in stepped]
        assert np.array_equal(stack.values, np.stack([p.values for p in members]))
        assert np.array_equal(state.m, np.stack([st.m for st in singles]))
    target = ParamStack(spec, stack.values + 1.0)
    mixed = polyak_update(target, stack, 0.3)
    for i, p in enumerate(members):
        assert np.array_equal(mixed.values[i], polyak_update(vec(spec, target.values[i]), p, 0.3).values)
