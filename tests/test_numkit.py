"""Numeric core: forward passes, reverse-mode gradients, flattening."""

import numpy as np
import pytest

from o2olab.errors import FormatError, NumericError, ShapeError
from o2olab.numkit import (
    ForwardCache,
    MlpSpec,
    ParamStack,
    ParamVector,
    finite_diff_check,
    flatten,
    init_params,
    mlp_forward,
    mlp_forward_batch,
    mlp_grad,
    mlp_grad_batch,
    mlp_input_grad,
    mlp_second_grad,
    spec_from_header,
    spec_header,
    unflatten,
)


def reference_forward(params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Independent loop-based forward pass used as an oracle."""
    layers = unflatten(params)
    spec = params.spec
    h = np.array(x, dtype=np.float64)
    for idx, (w, b) in enumerate(layers):
        h = np.array([float(row @ h) + bv for row, bv in zip(w, b)])
        if idx == len(layers) - 1:
            break
        h = np.maximum(h, 0.0) if spec.activation == "relu" else np.tanh(h)
    return h


def linear_1_1(weight, bias):
    spec = MlpSpec((1, 1))
    return ParamVector(spec, np.array([weight, bias]))


class TestSpecAndFlattening:
    def test_spec_validation(self):
        with pytest.raises(ShapeError):
            MlpSpec((4,))
        with pytest.raises(ShapeError):
            MlpSpec((4, 0, 2))
        with pytest.raises(ValueError):
            MlpSpec((4, 2), activation="sigmoid")

    def test_spec_header_round_trip(self):
        spec = MlpSpec((4, 8, 2), activation="relu")
        header = spec_header(spec)
        assert header == {
            "layer_widths": [4, 8, 2], "activation": "relu", "output_transform": "identity"
        }
        assert spec_from_header(header, "spec") == spec

    # (field, bad value); with no field the whole spec is the bad value.
    @pytest.mark.parametrize(
        "key, value",
        [
            (None, None),
            ("layer_widths", 5),
            ("layer_widths", None),
            ("layer_widths", [4, "8", 2]),
            ("layer_widths", [4, True, 2]),
            ("activation", 3),
            ("activation", "sigmoid"),
            ("output_transform", "exp"),
            ("output_transform", "tanh_squash"),
        ],
    )
    def test_spec_from_header_refuses_a_bad_field(self, key, value):
        header = spec_header(MlpSpec((4, 8, 2)))
        if key is None:
            header = value
        else:
            header[key] = value
        with pytest.raises(FormatError, match="'policy_spec'" + (f".*'{key}'" if key else "")):
            spec_from_header(header, "entry 'policy_spec'")

    def test_param_count(self):
        spec = MlpSpec((4, 8, 2))
        assert spec.param_count == 4 * 8 + 8 + 8 * 2 + 2

    def test_flatten_round_trip_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            depth = rng.integers(2, 5)
            widths = tuple(int(w) for w in rng.integers(1, 7, size=depth))
            spec = MlpSpec(widths)
            params = init_params(spec, rng)
            rebuilt = flatten(spec, unflatten(params))
            assert np.array_equal(rebuilt.values, params.values)

    def test_wrong_length_rejected(self):
        spec = MlpSpec((2, 2))
        with pytest.raises(ShapeError):
            ParamVector(spec, np.zeros(5))

    def test_init_weight_range(self):
        rng = np.random.default_rng(1)
        spec = MlpSpec((10, 20, 5))
        params = init_params(spec, rng)
        for (w, b), (in_w, out_w) in zip(unflatten(params), [(10, 20), (20, 5)]):
            bound = np.sqrt(6.0 / (in_w + out_w))
            assert np.all(np.abs(w) <= bound)
            assert np.all(b == 0.0)


class TestForward:
    def test_zero_network_gives_zero(self):
        spec = MlpSpec((3, 4, 2), activation="relu")
        params = ParamVector(spec, np.zeros(spec.param_count))
        out = mlp_forward(params, np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_affine_1_1(self):
        out = mlp_forward(linear_1_1(2.0, 1.0), np.array([3.0]))
        assert out[0] == 7.0

    def test_matches_independent_forward(self):
        rng = np.random.default_rng(2)
        for activation in ("relu", "tanh"):
            spec = MlpSpec((4, 8, 2), activation=activation)
            params = init_params(spec, rng)
            x = rng.standard_normal(4)
            got = mlp_forward(params, x)
            want = reference_forward(params, x)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_pure_function_bit_identical(self):
        rng = np.random.default_rng(3)
        spec = MlpSpec((5, 7, 3), activation="tanh")
        params = init_params(spec, rng)
        x = rng.standard_normal(5)
        assert np.array_equal(mlp_forward(params, x), mlp_forward(params, x))

    def test_dimension_mismatch_rejected(self):
        spec = MlpSpec((3, 2))
        params = ParamVector(spec, np.zeros(spec.param_count))
        with pytest.raises(ShapeError):
            mlp_forward(params, np.zeros(4))

    def test_non_finite_intermediate_names_layer(self):
        spec = MlpSpec((1, 1))
        params = ParamVector(spec, np.array([1e308, 1e308]))
        with pytest.raises(NumericError, match="layer 0"):
            mlp_forward(params, np.array([10.0]))


class TestGradients:
    def test_affine_1_1_grads(self):
        grads, gin = mlp_grad(linear_1_1(2.0, 1.0), np.array([3.0]), np.array([1.0]))
        assert gin[0] == 2.0
        assert grads.values[0] == 3.0  # d/dw
        assert grads.values[1] == 1.0  # d/db

    def test_tanh_net_input_grad_at_zero(self):
        # tanh'(0) = 1, so the input gradient is the product of the
        # weight matrices.
        rng = np.random.default_rng(4)
        spec = MlpSpec((3, 4, 2), activation="tanh")
        params = init_params(spec, rng)
        layers = unflatten(params)
        upstream = rng.standard_normal(2)
        _, gin = mlp_grad(params, np.zeros(3), upstream)
        want = upstream @ layers[1][0] @ layers[0][0]
        assert np.max(np.abs(gin - want)) <= 1e-12

    def test_random_nets_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            depth = int(rng.integers(2, 5))
            widths = tuple(int(w) for w in rng.integers(2, 6, size=depth))
            spec = MlpSpec(widths, activation="tanh")
            params = init_params(spec, rng)
            x = rng.standard_normal(widths[0])
            u = rng.standard_normal(widths[-1])

            def f(pv):
                g, _ = mlp_grad(pv, x, u)
                return float(u @ mlp_forward(pv, x)), g.values

            assert finite_diff_check(f, params, 1e-5, rng=rng, max_coords=64) <= 1e-5

    def test_batched_grads_sum_over_batch(self):
        rng = np.random.default_rng(6)
        spec = MlpSpec((3, 4, 2), activation="tanh")
        params = init_params(spec, rng)
        xs = rng.standard_normal((4, 3))
        us = rng.standard_normal((4, 2))
        flat, gins = mlp_grad_batch(params, xs, us)
        single = sum(mlp_grad(params, x, u)[0].values for x, u in zip(xs, us))
        assert np.max(np.abs(flat - single)) <= 1e-12
        for i in range(4):
            _, gi = mlp_grad(params, xs[i], us[i])
            assert np.max(np.abs(gins[i] - gi)) <= 1e-12


class TestSecondGrad:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(7)
        spec = MlpSpec((4, 6, 1), activation=activation)
        params = init_params(spec, rng)
        x = rng.standard_normal((3, 4))
        u = np.ones((3, 1))
        v = rng.standard_normal((3, 4))

        def f(pv):
            _, gins = mlp_grad_batch(pv, x, u)
            val = float(np.sum(gins * v))
            _, flat = mlp_second_grad(pv, x, u, v)
            return val, flat

        assert finite_diff_check(f, params, 1e-5, rng=rng) <= 1e-5

    def test_jvp_value_matches_vjp(self):
        rng = np.random.default_rng(8)
        spec = MlpSpec((4, 5, 2), activation="tanh")
        params = init_params(spec, rng)
        x = rng.standard_normal((2, 4))
        u = rng.standard_normal((2, 2))
        v = rng.standard_normal((2, 4))
        ydot, _ = mlp_second_grad(params, x, u, v)
        _, gins = mlp_grad_batch(params, x, u)
        assert abs(float(np.sum(u * ydot)) - float(np.sum(gins * v))) <= 1e-10

    def test_linear_net_param_grad(self):
        # For f(x) = w x + b, d/dw <1, J v> = v and d/db = 0.
        params = linear_1_1(2.0, 1.0)
        _, flat = mlp_second_grad(
            params, np.array([[3.0]]), np.array([[1.0]]), np.array([[0.7]])
        )
        assert np.allclose(flat, [0.7, 0.0], atol=1e-15)


def _stack_case(n, batch, activation, seed=11):
    """A stack of n critics-shaped nets, shared rows, per-member rows and
    per-member upstreams and directions."""
    rng = np.random.default_rng(seed)
    spec = MlpSpec((4, 64, 64, 1), activation=activation)
    stack = ParamStack.of([init_params(spec, rng) for _ in range(n)])
    stack.values[:, -65:] += rng.standard_normal((n, 65))  # nonzero biases
    x = rng.standard_normal((batch, 4))
    xs = rng.standard_normal((n, batch, 4))
    up = rng.standard_normal((n, batch, 1))
    v = rng.standard_normal((n, batch, 4))
    return stack, x, xs, up, v


class TestParamStack:
    """A stacked pass equals the per-member loop bit for bit."""

    cases = pytest.mark.parametrize(
        "n,batch,activation",
        [(n, b, act) for n in (2, 5) for b in (64, 256) for act in ("tanh", "relu")],
    )

    @cases
    def test_forward_equals_member_loop(self, n, batch, activation):
        stack, x, xs, _, _ = _stack_case(n, batch, activation)
        members = stack.vectors()
        assert np.array_equal(
            mlp_forward_batch(stack, x), np.stack([mlp_forward_batch(m, x) for m in members])
        )
        assert np.array_equal(
            mlp_forward_batch(stack, xs),
            np.stack([mlp_forward_batch(m, xi) for m, xi in zip(members, xs)]),
        )

    @cases
    def test_grad_equals_member_loop(self, n, batch, activation):
        stack, x, xs, up, _ = _stack_case(n, batch, activation)
        members = stack.vectors()
        for rows in (x, xs):
            flat, gin = mlp_grad_batch(stack, rows, up)
            loop = [
                mlp_grad_batch(m, rows if rows.ndim == 2 else rows[i], up[i])
                for i, m in enumerate(members)
            ]
            assert np.array_equal(flat, np.stack([f for f, _ in loop]))
            assert np.array_equal(gin, np.stack([g for _, g in loop]))

    @cases
    def test_second_grad_equals_member_loop(self, n, batch, activation):
        stack, x, _, up, v = _stack_case(n, batch, activation)
        jvp, flat = mlp_second_grad(stack, x, up, v)
        loop = [mlp_second_grad(m, x, up[i], v[i]) for i, m in enumerate(stack.vectors())]
        assert np.array_equal(jvp, np.stack([j for j, _ in loop]))
        assert np.array_equal(flat, np.stack([f for _, f in loop]))

    def test_rows_are_views(self):
        stack, _, _, _, _ = _stack_case(2, 8, "tanh")
        first = stack.vectors()[0]
        stack.values[0, 0] = 123.0
        assert first.values[0] == 123.0

    def test_mixed_specs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            ParamStack.of([init_params(MlpSpec((2, 3, 1)), rng), init_params(MlpSpec((2, 4, 1)), rng)])

    def test_rows_of_another_member_count_rejected(self):
        stack, _, _, _, _ = _stack_case(2, 8, "tanh")
        with pytest.raises(ShapeError):
            mlp_forward_batch(stack, np.zeros((3, 8, 4)))


class TestForwardCache:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_cached_passes_equal_uncached(self, activation):
        stack, x, _, up, v = _stack_case(2, 64, activation)
        cache = ForwardCache()
        out = mlp_forward_batch(stack, x, cache)
        assert np.array_equal(cache.out, out)
        cached = mlp_grad_batch(stack, x, up, cache)
        plain = mlp_grad_batch(stack, x, up)
        assert all(np.array_equal(a, b) for a, b in zip(cached, plain))
        cached = mlp_second_grad(stack, x, up, v, cache)
        plain = mlp_second_grad(stack, x, up, v)
        assert all(np.array_equal(a, b) for a, b in zip(cached, plain))

    def test_grad_fills_an_empty_cache(self):
        rng = np.random.default_rng(2)
        params = init_params(MlpSpec((3, 5, 2)), rng)
        x = rng.standard_normal((6, 3))
        cache = ForwardCache()
        mlp_grad_batch(params, x, np.ones((6, 2)), cache)
        assert np.array_equal(cache.out, mlp_forward_batch(params, x))

    def test_view_of_the_same_rows_reads_the_cache(self):
        # An unpickled array's dtype is a new instance, and np.asarray then
        # returns a fresh view of it; the cache must still apply.
        rng = np.random.default_rng(4)
        params = init_params(MlpSpec((3, 5, 2)), rng)
        x = rng.standard_normal((6, 3))
        cache = ForwardCache()
        mlp_forward_batch(params, x, cache)
        cached = mlp_grad_batch(params, x.view(), np.ones((6, 2)), cache)
        plain = mlp_grad_batch(params, x, np.ones((6, 2)))
        assert all(np.array_equal(a, b) for a, b in zip(cached, plain))

    def test_cache_of_other_rows_rejected(self):
        rng = np.random.default_rng(3)
        params = init_params(MlpSpec((3, 5, 2)), rng)
        x = rng.standard_normal((6, 3))
        cache = ForwardCache()
        mlp_forward_batch(params, x, cache)
        with pytest.raises(ValueError):
            mlp_grad_batch(params, x.copy(), np.ones((6, 2)), cache)
        with pytest.raises(ValueError):
            mlp_grad_batch(params.copy(), x, np.ones((6, 2)), cache)


def _pass_case(stacked, activation, per_member, seed=12):
    """Parameters (a `ParamStack` of 3 or a `ParamVector`), input rows,
    upstreams and directions of one pass case."""
    stack, x, xs, up, v = _stack_case(3, 32, activation, seed)
    if not stacked:
        return stack.vectors()[1].copy(), x, up[1], v[1]
    return stack, xs if per_member else x, up, v


PASS_CASES = pytest.mark.parametrize(
    "stacked,per_member,activation",
    [(False, False, act) for act in ("tanh", "relu")]
    + [(True, rows, act) for rows in (False, True) for act in ("tanh", "relu")],
)


class TestInputGrad:
    """`mlp_input_grad` is the input gradient of `mlp_grad_batch`, bit for bit."""

    @PASS_CASES
    @pytest.mark.parametrize("cache", ["none", "empty", "filled"])
    def test_equals_grad_batch_input_gradient(self, stacked, per_member, activation, cache):
        params, x, up, _ = _pass_case(stacked, activation, per_member)
        _, want = mlp_grad_batch(params, x, up)
        fc = None if cache == "none" else ForwardCache()
        if cache == "filled":
            mlp_forward_batch(params, x, fc)
        got = mlp_input_grad(params, x, up, fc)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        if fc is not None:
            assert np.array_equal(fc.out, mlp_forward_batch(params, x))

    def test_upstream_shape_checked(self):
        params, x, up, _ = _pass_case(False, "tanh", False)
        with pytest.raises(ShapeError):
            mlp_input_grad(params, x, up[:-1])


class TestPassesLeaveInputsUnchanged:
    """No pass writes into an array its caller handed it: rows, upstreams,
    directions, parameters or the arrays of a filled cache."""

    @PASS_CASES
    @pytest.mark.parametrize(
        "run",
        [
            lambda p, x, up, v, c: mlp_forward_batch(p, x, c),
            lambda p, x, up, v, c: mlp_grad_batch(p, x, up, c),
            lambda p, x, up, v, c: mlp_input_grad(p, x, up, c),
            lambda p, x, up, v, c: mlp_second_grad(p, x, up, v, c),
        ],
        ids=["forward", "grad", "input_grad", "second_grad"],
    )
    @pytest.mark.parametrize("filled", [False, True])
    def test_inputs_unchanged(self, stacked, per_member, activation, run, filled):
        params, x, up, v = _pass_case(stacked, activation, per_member)
        cache = ForwardCache()
        if filled:
            mlp_forward_batch(params, x, cache)
        handed = [x, up, v, params.values] + (cache.hs if filled else [])
        before = [a.copy() for a in handed]
        run(params, x, up, v, cache)
        for old, new in zip(before, handed):
            assert old.tobytes() == new.tobytes()


class TestFiniteDiffCheck:
    def test_quadratic_near_exact(self):
        spec = MlpSpec((4, 4))
        rng = np.random.default_rng(9)
        at = ParamVector(spec, rng.standard_normal(spec.param_count))

        def f(pv):
            return float(pv.values @ pv.values), 2.0 * pv.values

        assert finite_diff_check(f, at, 1e-5) <= 1e-9

    def test_constant_function_zero_error(self):
        spec = MlpSpec((2, 2))
        at = ParamVector(spec, np.zeros(spec.param_count))

        def f(pv):
            return 1.0, np.zeros(pv.values.size)

        assert finite_diff_check(f, at, 1e-5) == 0.0

    def test_bad_step_rejected(self):
        spec = MlpSpec((2, 2))
        at = ParamVector(spec, np.zeros(spec.param_count))
        with pytest.raises(ValueError):
            finite_diff_check(lambda pv: (0.0, np.zeros(pv.values.size)), at, 0.0)

    def test_samples_subset_on_large_vectors(self):
        # Roundoff in f grows with the parameter count, so the sampled
        # variant gets a looser (still tiny) bound.
        spec = MlpSpec((40, 40))
        rng = np.random.default_rng(10)
        at = ParamVector(spec, rng.standard_normal(spec.param_count))

        def f(pv):
            return float(pv.values @ pv.values), 2.0 * pv.values

        assert finite_diff_check(f, at, 1e-5, rng=rng, max_coords=64) <= 1e-7
