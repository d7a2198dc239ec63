"""Noise schedule, noising process, training loss, score queries, sampling."""

from dataclasses import dataclass

import numpy as np
import pytest

from o2olab.diffusion import (
    NoiseSchedule,
    CHECKPOINT_MAGIC,
    calibrated_score_at_k1,
    cosine_schedule,
    ddpm_sample,
    _draw_noising,
    diffusion_loss,
    init_score_model,
    load_score_model,
    noise_action,
    save_score_model,
    score_at_k1,
    train_score_model,
)
from o2olab.errors import FormatError
from o2olab.numkit import ParamVector
from o2olab.seeding import as_generator, stream


class ArrayDataset:
    """Minimal (s, a, w) container matching the training-loop protocol."""

    def __init__(self, s, a, w):
        self.s = np.asarray(s, dtype=np.float64)
        self.a = np.asarray(a, dtype=np.float64)
        self.w_labels = np.asarray(w, dtype=np.float64)
        self.size = len(self.s)


def eps_prediction_loss(predict_fn, schedule, action_dim, s, a, w, seed):
    """Mean noise-prediction error of an arbitrary predictor.

    Draws (k, eps) and noises the actions as `diffusion_loss` does, so for
    a model's own `.predict` this returns the value the training loss
    sees.  Useful for probing closed-form predictors.
    """
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    k, eps = _draw_noising(schedule, action_dim, s.shape[0], as_generator(seed))
    resid = predict_fn(s, noise_action(a, k, schedule, eps), w, k) - eps
    return float(np.mean(np.sum(resid * resid, axis=1)))


def gaussian_dataset(mu=0.0, sigma=0.2, n=4096, seed=0):
    rng = stream(seed, "gaussian-data")
    a = (mu + sigma * rng.standard_normal(n)).reshape(-1, 1)
    return ArrayDataset(np.zeros((n, 1)), a, np.ones(n))


class TestCosineSchedule:
    def test_first_step_close_to_one(self):
        sched = cosine_schedule(32)
        assert 0.99 < sched.at(1) < 1.0

    def test_last_step_near_zero(self):
        # direct evaluation of the cosine form at k = K
        sched = cosine_schedule(32)
        s = 0.008
        f = lambda k: np.cos(((k / 32 + s) / (1 + s)) * np.pi / 2) ** 2
        direct = max(f(32) / f(0), 1e-5)
        assert sched.at(32) == direct
        assert sched.at(32) <= 0.01

    def test_strictly_decreasing(self):
        sched = cosine_schedule(32)
        assert np.all(np.diff(sched.alpha_bar) < 0.0)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            cosine_schedule(1)

    def test_bad_schedules_rejected(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.5, 0.7]))  # increasing
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([1.2, 0.5]))  # out of range


class TestNoiseAction:
    def test_zero_noise_scales_clean_action(self):
        sched = cosine_schedule(8)
        a0 = np.array([0.4, -0.6])
        out = noise_action(a0, 3, sched, np.zeros(2))
        assert np.array_equal(out, np.sqrt(sched.at(3)) * a0)

    def test_last_step_crushes_signal(self):
        sched = cosine_schedule(32)
        a0 = np.array([0.9])
        eps = np.array([1.3])
        out = noise_action(a0, 32, sched, eps)
        assert abs(out[0] - eps[0]) < 0.15

    def test_variance_matches_moments(self):
        # Var(output) = abar * Var(a0) + (1 - abar) over noise draws.
        sched = cosine_schedule(16)
        rng = np.random.default_rng(1)
        a0 = 0.5 * rng.standard_normal(100_000)
        eps = rng.standard_normal(100_000)
        k = 7
        out = noise_action(a0, k, sched, eps)
        want = sched.at(k) * 0.25 + (1.0 - sched.at(k))
        assert abs(out.var() - want) <= 3.0 * want * np.sqrt(2.0 / 100_000)

    def test_step_out_of_range_rejected(self):
        sched = cosine_schedule(8)
        with pytest.raises(ValueError):
            noise_action(np.zeros(1), 9, sched, np.zeros(1))

    def test_one_step_per_row_equals_each_row_alone(self):
        sched = cosine_schedule(8)
        rng = np.random.default_rng(2)
        a0, eps = rng.standard_normal((2, 5, 3))
        k = np.array([1, 8, 3, 3, 6])
        out = noise_action(a0, k, sched, eps)
        for i in range(5):
            assert out[i].tobytes() == noise_action(a0[i], int(k[i]), sched, eps[i]).tobytes()


class TestDiffusionLoss:
    def test_zero_model_loss_near_action_dim(self):
        # A model that always outputs zero scores E||eps||^2 = action_dim.
        sched = cosine_schedule(8)
        model = init_score_model(1, 2, sched, stream(2, "init"), hidden=(8,))
        model = model.with_params(ParamVector(model.params.spec, np.zeros(model.params.values.size)))
        rng = np.random.default_rng(3)
        s = np.zeros((2000, 1))
        a = 0.1 * rng.standard_normal((2000, 2))
        loss, _ = diffusion_loss(model, s, a, 1.0, 4)
        assert abs(loss - 2.0) < 0.2

    def test_perfect_oracle_gives_zero_loss(self):
        # A predictor that inverts the noising process exactly.
        sched = cosine_schedule(8)
        rng = np.random.default_rng(5)
        a = 0.3 * rng.standard_normal((64, 2))
        s = np.zeros((64, 1))

        class Oracle:
            def __init__(self, clean):
                self.clean = clean

            def predict(self, s, noised, w, k):
                ab = sched.at(np.asarray(k))[:, None]
                return (noised - np.sqrt(ab) * self.clean) / np.sqrt(1.0 - ab)

        loss = eps_prediction_loss(Oracle(a).predict, sched, 2, s, a, 1.0, 6)
        assert loss <= 1e-22

    def test_helper_mirrors_training_loss(self):
        sched = cosine_schedule(8)
        model = init_score_model(2, 1, sched, stream(7, "init"), hidden=(8,))
        rng = np.random.default_rng(8)
        s = rng.standard_normal((32, 2))
        a = np.clip(rng.standard_normal((32, 1)), -1, 1)
        w = rng.random(32)
        full, _ = diffusion_loss(model, s, a, w, 11)
        value_only = eps_prediction_loss(model.predict, sched, 1, s, a, w, 11)
        assert full == value_only

    def test_draw_sends_half_of_each_batch_to_k1(self):
        # k=1 is the level the critic queries; the other levels must
        # still be drawn, since the reverse chain walks all of them.
        sched = cosine_schedule(8)
        seen = []

        def record_k(s, noised, w, k):
            seen.append(np.asarray(k).copy())
            return np.zeros_like(noised)

        for n in (1, 2, 7, 64, 4096):
            eps_prediction_loss(record_k, sched, 1, np.zeros((n, 1)), np.zeros((n, 1)), 1.0, 30 + n)
        for k in seen:
            assert np.all((k >= 1) & (k <= 8))
            assert np.all(k[: k.size // 2] == 1)
        assert set(np.unique(seen[-1]).tolist()) == set(range(1, 9))

    def test_empty_batch_rejected(self):
        sched = cosine_schedule(8)
        model = init_score_model(1, 1, sched, stream(9, "init"), hidden=(4,))
        with pytest.raises(ValueError):
            diffusion_loss(model, np.zeros((0, 1)), np.zeros((0, 1)), 1.0, 0)

    def test_deterministic_per_seed(self):
        sched = cosine_schedule(8)
        model = init_score_model(1, 1, sched, stream(10, "init"), hidden=(4,))
        rng = np.random.default_rng(12)
        s, a = rng.standard_normal((16, 1)), rng.standard_normal((16, 1))
        l1, g1 = diffusion_loss(model, s, a, 1.0, 99)
        l2, g2 = diffusion_loss(model, s, a, 1.0, 99)
        assert l1 == l2 and np.array_equal(g1, g2)


class TestTraining:
    def test_loss_decreases_moving_average(self):
        ds = gaussian_dataset()
        sched = cosine_schedule(16)
        model = init_score_model(1, 1, sched, stream(13, "init"), hidden=(32, 32))
        _, losses = train_score_model(model, ds, 600, 128, 1e-3, seed=14)
        smooth = np.convolve(losses, np.ones(10) / 10.0, mode="valid")
        assert smooth[-1] < smooth[0]

    def test_symmetric_data_scores_zero_at_mode(self):
        ds = gaussian_dataset(mu=0.0, sigma=0.3, n=4096)
        sched = cosine_schedule(16)
        model = init_score_model(1, 1, sched, stream(15, "init"), hidden=(32, 32), activation="tanh")
        model, _ = train_score_model(model, ds, 2500, 256, 1e-3, seed=16)
        at_mode = calibrated_score_at_k1(model, np.zeros((1, 1)), np.zeros((1, 1)), 1.0)[0, 0]
        scale = 1.0 / 0.3**2
        assert abs(at_mode) <= 0.1 * scale

    def test_outcome_labels_override_disables_conditioning(self):
        # The RvS-off ablation trains on constant labels; the resulting
        # model must differ from the conditioned one.
        rng = stream(40, "data")
        n = 512
        w = (rng.random(n) < 0.5).astype(np.float64)
        a = (np.where(w > 0.5, 0.4, -0.4) + 0.1 * rng.standard_normal(n)).reshape(-1, 1)
        ds = ArrayDataset(np.zeros((n, 1)), a, w)
        sched = cosine_schedule(8)
        model = init_score_model(1, 1, sched, stream(41, "init"), hidden=(16,))
        on, _ = train_score_model(model, ds, 200, 64, 1e-3, seed=42)
        off, _ = train_score_model(model, ds, 200, 64, 1e-3, seed=42, outcome_labels=np.ones(n))
        assert not np.array_equal(on.params.values, off.params.values)

    def test_conditioning_separates_outcome_labels(self):
        # Actions center at -0.5 for label 0 and +0.5 for label 1, so
        # the k=1 noise estimates must differ strongly between labels.
        rng = stream(17, "cond-data")
        n = 4096
        w = (rng.random(n) < 0.5).astype(np.float64)
        a = (np.where(w > 0.5, 0.5, -0.5) + 0.1 * rng.standard_normal(n)).reshape(-1, 1)
        ds = ArrayDataset(np.zeros((n, 1)), a, w)
        sched = cosine_schedule(16)
        model = init_score_model(1, 1, sched, stream(18, "init"), hidden=(32, 32))
        model, _ = train_score_model(model, ds, 3000, 256, 1e-3, seed=19)
        probe = np.zeros((200, 1))
        lo = score_at_k1(model, probe, probe, 0.0)[:, 0]
        hi = score_at_k1(model, probe, probe, 1.0)[:, 0]
        gap = abs(lo.mean() - hi.mean())
        spread = max(lo.std(), hi.std(), 1e-9)
        assert gap >= 3.0 * spread


def analytic_gaussian_model(schedule, mu, sigma, action_low=-4.0, action_high=4.0):
    """Stub predictor carrying the exact posterior-mean noise estimate of
    a Gaussian action distribution, for use as a sampling oracle."""

    @dataclass
    class Stub:
        schedule: object
        action_dim: int = 1
        action_low: np.ndarray = None
        action_high: np.ndarray = None

        def predict(self, s, x, w, k):
            ab = self.schedule.at(np.asarray(k))
            if np.ndim(ab) == 0:
                ab = np.full(x.shape[0], float(ab))
            ab = ab[:, None]
            return np.sqrt(1.0 - ab) * (x - np.sqrt(ab) * mu) / (ab * sigma**2 + 1.0 - ab)

    return Stub(schedule=schedule, action_low=np.array([action_low]), action_high=np.array([action_high]))


class TestSampling:
    def test_deterministic_per_seed(self):
        sched = cosine_schedule(16)
        model = init_score_model(1, 1, sched, stream(20, "init"), hidden=(8,))
        s = np.zeros((5, 1))
        a = ddpm_sample(model, s, 1.0, seed=21)
        b = ddpm_sample(model, s, 1.0, seed=21)
        assert np.array_equal(a, b)

    def test_samples_clipped_to_bounds(self):
        sched = cosine_schedule(16)
        model = init_score_model(1, 1, sched, stream(22, "init"), hidden=(8,))
        out = ddpm_sample(model, np.zeros((200, 1)), 1.0, seed=23)
        assert np.all(out >= model.action_low) and np.all(out <= model.action_high)

    def test_recovers_gaussian_moments(self):
        # With the exact noise predictor, the deterministic reverse chain
        # transports N(0, 1) close to the data distribution.
        mu, sigma = 0.3, 0.5
        sched = cosine_schedule(64)
        stub = analytic_gaussian_model(sched, mu, sigma)
        out = ddpm_sample(stub, np.zeros((10_000, 1)), 1.0, seed=24)[:, 0]
        assert abs(out.mean() - mu) <= 0.1 * max(abs(mu), sigma)
        assert abs(out.std() - sigma) <= 0.1 * sigma

    def test_stochastic_variant_also_recovers_moments(self):
        mu, sigma = -0.2, 0.4
        sched = cosine_schedule(64)
        stub = analytic_gaussian_model(sched, mu, sigma)
        out = ddpm_sample(stub, np.zeros((10_000, 1)), 1.0, seed=25, stochastic=True)[:, 0]
        assert abs(out.mean() - mu) <= 0.1 * max(abs(mu), sigma)
        assert abs(out.std() - sigma) <= 0.15 * sigma


class TestScoreQueries:
    def test_calibration_factor(self):
        sched = cosine_schedule(8)
        model = init_score_model(1, 1, sched, stream(26, "init"), hidden=(4,))
        s = np.zeros((3, 1))
        a = np.array([[0.1], [0.2], [-0.3]])
        raw = score_at_k1(model, s, a, 1.0)
        cal = calibrated_score_at_k1(model, s, a, 1.0)
        assert np.allclose(cal, -raw / np.sqrt(1.0 - sched.at(1)), rtol=0, atol=0)

    def test_exact_predictor_gives_k1_marginal_score(self):
        # The calibrated k=1 output of the exact noise predictor is the
        # closed-form score of the k=1 noised marginal, the reference
        # acceptance criterion 5 checks a trained model against.
        sigma = 0.2
        sched = cosine_schedule(32)
        ab1 = sched.at(1)
        for mu in (0.0, 0.3):
            stub = analytic_gaussian_model(sched, mu, sigma)
            grid = np.linspace(mu - 2 * sigma, mu + 2 * sigma, 81).reshape(-1, 1)
            got = calibrated_score_at_k1(stub, np.zeros_like(grid), grid, 1.0)[:, 0]
            want = (np.sqrt(ab1) * mu - grid[:, 0]) / (ab1 * sigma**2 + 1.0 - ab1)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_mixture_score_sign_flips_between_modes(self):
        # Two well-separated modes: between them, the score points toward
        # the nearer mode, so its sign flips across the midpoint.  The
        # closed-form mixture score provides the reference signs.
        rng = stream(27, "mix-data")
        n = 6000
        comp = rng.random(n) < 0.5
        a = (np.where(comp, 0.5, -0.5) + 0.12 * rng.standard_normal(n)).reshape(-1, 1)
        ds = ArrayDataset(np.zeros((n, 1)), a, np.ones(n))
        sched = cosine_schedule(16)
        model = init_score_model(1, 1, sched, stream(28, "init"), hidden=(48, 48), activation="tanh")
        model, _ = train_score_model(model, ds, 4000, 256, 1e-3, seed=29)

        def mixture_score(x, m=0.5, s2=0.12**2):
            p1 = np.exp(-((x - m) ** 2) / (2 * s2))
            p0 = np.exp(-((x + m) ** 2) / (2 * s2))
            return (p1 * (m - x) + p0 * (-m - x)) / (s2 * (p0 + p1))

        probes = np.array([[-0.25], [0.25]])
        got = calibrated_score_at_k1(model, np.zeros_like(probes), probes, 1.0)[:, 0]
        want = mixture_score(probes[:, 0])
        assert np.sign(got[0]) == np.sign(want[0]) == -1.0
        assert np.sign(got[1]) == np.sign(want[1]) == 1.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        sched = cosine_schedule(16)
        model = init_score_model(3, 2, sched, stream(30, "init"), hidden=(8, 8))
        path = tmp_path / "model.bin"
        save_score_model(model, path)
        back = load_score_model(path)
        assert np.array_equal(back.params.values, model.params.values)
        assert np.array_equal(back.schedule.alpha_bar, model.schedule.alpha_bar)
        assert back.params.spec == model.params.spec
        assert np.array_equal(back.action_low, model.action_low)

    def test_magic_bytes_checked(self, tmp_path):
        sched = cosine_schedule(8)
        model = init_score_model(1, 1, sched, stream(31, "init"), hidden=(4,))
        path = tmp_path / "model.bin"
        save_score_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"BOGUS123"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="SMACDM01"):
            load_score_model(path)

    def test_magic_is_versioned(self):
        assert CHECKPOINT_MAGIC == b"SMACDM01"
