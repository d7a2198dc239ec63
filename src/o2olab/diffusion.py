"""Outcome-conditioned denoising diffusion model over actions.

The model learns to predict the noise added to dataset actions at K
noise levels, conditioned on the state, the trajectory outcome label w,
and a sinusoidal embedding of the noise step.  Its k=1 output is the
least-perturbed noise estimate, which downstream critics consume as a
(scaled, sign-flipped) estimate of the action score; `calibrated_score_at_k1`
applies the -1/sqrt(1-abar_1) factor that turns the raw output into an
actual score estimate for validation against analytic densities.  That
score is the score of the k=1 noised marginal, the data density smoothed
by a Gaussian of variance 1 - abar_1, not of the clean data density.

k=1 is the only level the critic ever queries, so training sends half of
every batch there and draws the other half uniformly from 1..K; every
level stays trained, which the K-step reverse chain of `ddpm_sample`
needs.  `noise_action` is the one closed-form noising of clean actions,
and `diffusion_loss` noises each training batch through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import blobio
from .errors import NumericError, ShapeError, file_fault
from .numkit import (
    MlpSpec,
    ParamVector,
    init_params,
    mlp_forward_batch,
    mlp_grad_batch,
    spec_from_header,
    spec_header,
)
from .optim import init_opt_state, optimizer_step
from .seeding import stream

SCHEDULE_CLIP_LO = 1e-5
SCHEDULE_CLIP_HI = 0.9999
COSINE_OFFSET = 0.008

CHECKPOINT_MAGIC = b"SMACDM01"


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions abar_k, strictly decreasing in k."""

    alpha_bar: np.ndarray  # alpha_bar[k-1] is abar_k for k = 1..K

    def __post_init__(self):
        ab = np.asarray(self.alpha_bar, dtype=np.float64)
        object.__setattr__(self, "alpha_bar", ab)
        if ab.ndim != 1 or ab.size < 2:
            raise ShapeError("schedule needs at least 2 steps")
        # Written so that NaN, for which every comparison is false, fails.
        if not np.all((ab > 0.0) & (ab < 1.0)):
            raise ValueError("schedule values must lie in (0, 1)")
        if not np.all(np.diff(ab) < 0.0):
            raise ValueError("schedule must be strictly decreasing")

    @property
    def n_steps(self) -> int:
        return self.alpha_bar.size

    def at(self, k) -> np.ndarray:
        """abar_k for integer step(s) k in 1..K."""
        k = np.asarray(k)
        if np.any(k < 1) or np.any(k > self.n_steps):
            raise ValueError(f"step out of range 1..{self.n_steps}")
        return self.alpha_bar[k - 1]


def cosine_schedule(n_steps: int) -> NoiseSchedule:
    """abar_k = f(k)/f(0), f(k) = cos^2(((k/K + s)/(1 + s)) * pi/2)."""
    if n_steps < 2:
        raise ValueError("need at least 2 diffusion steps")
    k = np.arange(0, n_steps + 1, dtype=np.float64)
    f = np.cos(((k / n_steps + COSINE_OFFSET) / (1.0 + COSINE_OFFSET)) * np.pi / 2.0) ** 2
    alpha_bar = np.clip(f[1:] / f[0], SCHEDULE_CLIP_LO, SCHEDULE_CLIP_HI)
    return NoiseSchedule(alpha_bar=alpha_bar)


def noise_action(a0: np.ndarray, k, schedule: NoiseSchedule, eps: np.ndarray) -> np.ndarray:
    """Closed-form noising of clean actions to step k: one int step for
    every row, or a `(batch,)` array of steps, one per row of `a0`."""
    ab = schedule.at(k)
    if np.ndim(ab):
        ab = ab[:, None]
    return np.sqrt(ab) * np.asarray(a0, dtype=np.float64) + np.sqrt(1.0 - ab) * np.asarray(eps)


def _sinusoidal_embedding(k: np.ndarray, dim: int) -> np.ndarray:
    """Transformer-style embedding of integer noise steps; k is (batch,)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.asarray(k, dtype=np.float64)[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(angles), np.cos(angles)], axis=1)
    if emb.shape[1] < dim:  # odd dim pads with a zero column
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=1)
    return emb


@dataclass
class ScoreModel:
    """Noise-prediction MLP with (state, outcome, step) conditioning."""

    state_dim: int
    action_dim: int
    schedule: NoiseSchedule
    params: ParamVector
    k_embed_dim: int = 8
    action_low: np.ndarray | None = None
    action_high: np.ndarray | None = None

    def __post_init__(self):
        if self.action_low is None:
            self.action_low = -np.ones(self.action_dim)
        if self.action_high is None:
            self.action_high = np.ones(self.action_dim)
        self.action_low = np.asarray(self.action_low, dtype=np.float64)
        self.action_high = np.asarray(self.action_high, dtype=np.float64)
        expect = self.action_dim + self.state_dim + self.k_embed_dim + 1
        if self.params.spec.in_dim != expect or self.params.spec.out_dim != self.action_dim:
            raise ShapeError(
                f"network wants {self.params.spec.in_dim}->{self.params.spec.out_dim}, "
                f"conditioning implies {expect}->{self.action_dim}"
            )

    def net_input(self, s, a, w, k) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        n = s.shape[0]
        if np.ndim(w) == 0:
            w_col = np.full((n, 1), float(w))
        else:
            w_col = np.asarray(w, dtype=np.float64).reshape(n, 1)
        if np.ndim(k) == 0:
            k_vec = np.full(n, int(k))
        else:
            k_vec = np.asarray(k).reshape(n)
        emb = _sinusoidal_embedding(k_vec, self.k_embed_dim)
        return np.concatenate([a, s, emb, w_col], axis=1)

    def predict(self, s, a, w, k) -> np.ndarray:
        """Noise estimate eps_hat(s, a, w, k); batched."""
        return mlp_forward_batch(self.params, self.net_input(s, a, w, k)).out

    def with_params(self, params: ParamVector) -> "ScoreModel":
        return replace(self, params=params)


def init_score_model(
    state_dim: int,
    action_dim: int,
    schedule: NoiseSchedule,
    rng: np.random.Generator,
    hidden=(256, 256, 256),
    k_embed_dim: int = 8,
    activation: str = "relu",
    action_low=None,
    action_high=None,
) -> ScoreModel:
    in_dim = action_dim + state_dim + k_embed_dim + 1
    spec = MlpSpec((in_dim, *hidden, action_dim), activation=activation)
    return ScoreModel(
        state_dim=state_dim,
        action_dim=action_dim,
        schedule=schedule,
        params=init_params(spec, rng),
        k_embed_dim=k_embed_dim,
        action_low=action_low,
        action_high=action_high,
    )


def _draw_noising(schedule: NoiseSchedule, action_dim: int, n: int, rng: np.random.Generator):
    """Noise steps and noise for a batch of n: k ~ uniform{1..K}, except
    that the first n // 2 entries are set to k = 1; eps ~ N(0, I)."""
    k = rng.integers(1, schedule.n_steps + 1, size=n)
    k[: n // 2] = 1
    eps = rng.standard_normal((n, action_dim))
    return k, eps


def diffusion_loss(model: ScoreModel, s, a, w, rng: np.random.Generator):
    """Mean squared noise-prediction error and its parameter gradient.

    Per batch of n: the first n // 2 elements take k = 1, the level
    `score_at_k1` queries, and the rest take k ~ uniform{1..K} (a batch
    of 1 is uniform); eps ~ N(0, I).  The loss is the mean over the
    batch of ||eps - eps_hat||^2 (summed over action dims); k and eps are
    drawn from `rng`.
    """
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if s.shape[0] == 0:
        raise ValueError("empty batch")
    k, eps = _draw_noising(model.schedule, model.action_dim, s.shape[0], rng)
    x = model.net_input(s, noise_action(a, k, model.schedule, eps), w, k)
    fwd = mlp_forward_batch(model.params, x)
    resid = fwd.out - eps
    loss = float(np.mean(np.sum(resid * resid, axis=1)))
    if not np.isfinite(loss):
        raise NumericError("non-finite diffusion loss")
    return loss, mlp_grad_batch(fwd, 2.0 * resid / s.shape[0])


def train_score_model(
    model: ScoreModel,
    dataset,
    steps: int,
    batch_size: int,
    learning_rate: float,
    seed: int,
    outcome_labels: np.ndarray | None = None,
):
    """Train by Adam on `diffusion_loss`; returns (model, loss history).

    `outcome_labels` overrides the dataset's labels; passing a constant
    vector disables outcome conditioning (the RvS-off ablation).
    """
    labels = dataset.w_labels if outcome_labels is None else np.asarray(outcome_labels)
    batch_rng = stream(seed, "diffusion-batch")
    noise_rng = stream(seed, "diffusion-noise")
    state = init_opt_state("adam", model.params.values.size, learning_rate)
    params = model.params
    losses = np.empty(steps)
    for i in range(steps):
        idx = batch_rng.integers(0, dataset.size, size=batch_size)
        cur = model.with_params(params)
        loss, grad = diffusion_loss(
            cur, dataset.s[idx], dataset.a[idx], labels[idx], noise_rng
        )
        params, state = optimizer_step(state, params, ParamVector(params.spec, grad))
        losses[i] = loss
    return model.with_params(params), losses


def score_at_k1(model: ScoreModel, s, a, w) -> np.ndarray:
    """Raw k=1 noise estimate, exactly as consumed by the critic
    regularizer (no sign or scale adjustment)."""
    return model.predict(s, a, w, 1)


def calibrated_score_at_k1(model: ScoreModel, s, a, w) -> np.ndarray:
    """-eps_hat / sqrt(1 - abar_1): the actual score estimate, for
    validation against closed-form densities.

    It estimates the score of the k=1 noised marginal, the law of
    sqrt(abar_1) a0 + sqrt(1 - abar_1) eps: a slightly smoothed data
    density.  For a0 ~ N(mu, sigma^2) that score is
    (sqrt(abar_1) mu - a) / (abar_1 sigma^2 + 1 - abar_1)."""
    ab1 = model.schedule.at(1)
    return -score_at_k1(model, s, a, w) / np.sqrt(1.0 - ab1)


def ddpm_sample(
    model: ScoreModel, s, w, rng: np.random.Generator, stochastic: bool = False
) -> np.ndarray:
    """Run the K-step reverse chain from Gaussian noise.

    The default sampler is the deterministic (no added noise) variant of
    the denoising step; `stochastic=True` switches to ancestral sampling.
    Output is clipped to the model's action bounds.
    """
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    n = s.shape[0]
    ab = model.schedule.alpha_bar
    x = rng.standard_normal((n, model.action_dim))
    for k in range(model.schedule.n_steps, 0, -1):
        ab_k = ab[k - 1]
        ab_prev = ab[k - 2] if k > 1 else 1.0
        eps_hat = model.predict(s, x, w, k)
        x0 = (x - np.sqrt(1.0 - ab_k) * eps_hat) / np.sqrt(ab_k)
        if k == 1:
            x = x0
        elif stochastic:
            alpha_k = ab_k / ab_prev
            sigma = np.sqrt((1.0 - ab_prev) / (1.0 - ab_k) * (1.0 - alpha_k))
            x = (x - (1.0 - alpha_k) / np.sqrt(1.0 - ab_k) * eps_hat) / np.sqrt(alpha_k)
            x = x + sigma * rng.standard_normal((n, model.action_dim))
        else:
            x = np.sqrt(ab_prev) * x0 + np.sqrt(1.0 - ab_prev) * eps_hat
    if not np.all(np.isfinite(x)):
        raise NumericError("non-finite sample from reverse chain")
    return np.clip(x, model.action_low, model.action_high)


def save_score_model(model: ScoreModel, path):
    header = {
        "state_dim": model.state_dim,
        "action_dim": model.action_dim,
        "k_embed_dim": model.k_embed_dim,
        **spec_header(model.params.spec),
    }
    arrays = {
        "alpha_bar": model.schedule.alpha_bar,
        "params": model.params.values,
        "action_low": model.action_low,
        "action_high": model.action_high,
    }
    blobio.write_blob(path, CHECKPOINT_MAGIC, header, arrays)


def load_score_model(path) -> ScoreModel:
    """Read a score model written by `save_score_model`.  Every fault
    raises `FormatError` naming the file, and the entry where it has one:
    a missing, mistyped or non-finite entry (`blobio.read_blob` checks),
    an `alpha_bar` that is not a schedule, a `params` array that does not
    fit the header's network, and `state_dim`, `action_dim` and
    `k_embed_dim` whose conditioning does not fit its `layer_widths`."""
    with file_fault(str(path)):
        header, arrays = blobio.read_blob(path, CHECKPOINT_MAGIC)
        alpha_bar, values = arrays["alpha_bar"], arrays["params"]
        box = {key: arrays[key] for key in ("action_low", "action_high")}
        spec = spec_from_header(header, "score model header")
        dims = {key: header.typed(key, int) for key in ("state_dim", "action_dim", "k_embed_dim")}
        with file_fault("score model array 'alpha_bar' is not a schedule"):
            schedule = NoiseSchedule(alpha_bar)
        with file_fault("score model array 'params' does not fit 'layer_widths'"):
            params = ParamVector(spec, values)
        where = "score model entries 'state_dim', 'action_dim', 'k_embed_dim'"
        with file_fault(f"{where} do not fit 'layer_widths'"):
            return ScoreModel(**dims, schedule=schedule, params=params, **box)
