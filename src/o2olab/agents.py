"""Loss functions for every agent in the laboratory.

The actor-critic family shares one convention: a loss function takes
stacked batch arrays plus the networks it differentiates, and returns
its scalar value together with flat parameter gradients (an `(n, P)`
array with one row per critic member, one flat vector per auxiliary
network).  Gradients are exact reverse-mode, so every function here is
covered by the finite-difference suite.

Each loss runs one forward pass per network and set of input rows: the
critic ensemble is evaluated as one `ParamStack`, and every gradient
pass that follows is handed that forward's `numkit.Forward` record.

Critic arithmetic shared by several agents has one implementation each:
`_td_regression` (every member regressed onto one TD target, used by
soft actor-critic, IQL and TD3), `_min_member_action_grad` (the min-member
Q and that member's action gradient, ascended by the SAC, TD3 and TD3+BC
actors), `_min_over` (the min-member Q of a stack, for TD targets and
IQL), and `td3_critic_loss` (the critic of both TD3 and TD3+BC).

Each numkit pass returns one array, and a loss reads all of it: the
actors' critic pass and the first critic pass of the score-matching
regularizer read input gradients alone, so they run
`numkit.mlp_input_grad`; every other gradient pass yields a parameter
gradient.

The score-matching regularizer penalizes the distance between a
critic's action gradient and a state-scaled noise estimate from the
diffusion model; its critic gradient therefore needs second-order
differentiation, provided by `numkit.mlp_second_grad`.

Out-of-distribution actions (`sample_action_mixture`, used by the
regularizer and the conservative penalties) are drawn inside the
policy's own action box, `policy.action_low` to `policy.action_high`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .networks import CriticEnsemble, GaussianPolicy, ScaleNet, critic_input
from .numkit import (
    mlp_forward_batch,
    mlp_grad_batch,
    mlp_input_grad,
    mlp_second_grad,
)

# Advantage weights are clipped here to keep exponentials from overflowing.
WEIGHT_CLIP = 100.0


def _clipped_exp_weights(exponents: np.ndarray) -> np.ndarray:
    """min(exp(x), WEIGHT_CLIP) without intermediate overflow."""
    return np.minimum(np.exp(np.minimum(exponents, 700.0)), WEIGHT_CLIP)
# Floor for the TD3+BC critic normalizer (batch-mean |Q| can be zero at init).
NORMALIZER_FLOOR = 1e-12
# TD3 target-policy smoothing: Gaussian noise of this many half-ranges of
# the action box, clipped at +-TD3_SMOOTHING_CLIP half-ranges.
TD3_SMOOTHING_STD = 0.2
TD3_SMOOTHING_CLIP = 0.5
# Largest log entropy coefficient whose exp is a finite float64.
LOG_ENTROPY_COEF_MAX = float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class LossParams:
    """Shared hyperparameters consumed by the losses."""

    discount: float = 0.99
    score_match_weight: float = 40.0
    cql_alpha: float = 5.0
    expectile: float = 0.9
    bc_weight: float = 2.0
    awr_temperature: float = 1.0
    entropy_coef: float = 0.2
    target_entropy: float | None = None

    def __post_init__(self):
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if self.score_match_weight < 0.0:
            raise ValueError("score-match weight must be non-negative")
        if not 0.0 < self.expectile < 1.0:
            raise ValueError("expectile must lie in (0, 1)")
        if self.bc_weight < 0.0:
            raise ValueError("bc weight must be non-negative")
        if self.awr_temperature <= 0.0:
            raise ValueError("awr temperature must be positive")
        if not self.entropy_coef > 0.0:
            raise ValueError("entropy coefficient must be positive")


def _q_forward(stack, x) -> np.ndarray:
    """Q of every member of a critic stack at every input row, shape (n, batch)."""
    return mlp_forward_batch(stack, x).out[..., 0]


def _in_member_order(values: np.ndarray) -> float:
    """Sum of per-member scalars, added in member order from 0.0 like a
    running total over the members.  (np.sum adds in pairs, and Python's
    sum compensates from 3.12; either may round differently.)"""
    total = 0.0
    for value in values.tolist():
        total += value
    return total


def _min_over(stack, x):
    """(per-sample min, argmin member index) over a critic stack."""
    qs = _q_forward(stack, x)
    idx = np.argmin(qs, axis=0)
    return qs[idx, np.arange(qs.shape[1])], idx


def _min_member_action_grad(stack, x, state_dim):
    """(per-sample min Q, dQ/da of the member attaining it) over a critic stack.

    The action block of each input row starts at column `state_dim`.
    This is what the SAC, TD3 and TD3+BC actors ascend; the gradient is
    taken w.r.t. the input only, never the critic parameters.  One
    forward yields every member's Q, and one input-gradient pass through
    it every member's input gradient.
    """
    fwd = mlp_forward_batch(stack, x)
    gin = mlp_input_grad(fwd, np.ones((len(stack), x.shape[0], 1)))
    qs = fwd.out[..., 0]
    idx = np.argmin(qs, axis=0)
    rows = np.arange(x.shape[0])
    return qs[idx, rows], gin[idx, rows, state_dim:]


def _td_regression(stack, x, y):
    """Mean over members and batch of (Q(x) - y)^2, and each member's
    flat parameter gradient as an (n, P) array.  The target y is a
    constant."""
    n, b = len(stack), x.shape[0]
    fwd = mlp_forward_batch(stack, x)
    resid = fwd.out[..., 0] - y
    loss = _in_member_order(np.vecdot(resid, resid))
    grads = mlp_grad_batch(fwd, (2.0 / (n * b)) * resid[..., None])
    return loss / (n * b), grads


def sac_critic_loss(
    ensemble: CriticEnsemble,
    policy: GaussianPolicy,
    batch,
    entropy_coef: float,
    discount: float,
    rng: np.random.Generator,
):
    """Soft TD regression of every member onto the shared target.

    Target: r + gamma * (1 - done) * (min over target members at a
    policy sample from the next state - entropy_coef * log pi).  The
    loss is averaged over members and batch; gradients flow into the
    online members only.
    """
    if batch.size == 0:
        raise ValueError("empty batch")
    a2, logp2, _ = policy.sample(batch.s2, rng)
    x2 = critic_input(batch.s2, a2)
    tq, _ = _min_over(ensemble.target_stack, x2)
    y = batch.r + discount * (1.0 - batch.done) * (tq - entropy_coef * logp2)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite TD target")
    return _td_regression(ensemble.member_stack, critic_input(batch.s, batch.a), y)


def sac_policy_loss(
    policy: GaussianPolicy,
    ensemble: CriticEnsemble,
    batch,
    entropy_coef: float,
    rng: np.random.Generator,
):
    """mean(entropy_coef * log pi - min-member Q) on reparameterized samples.

    The gradient flows through the sampled actions into Q (picking the
    argmin member per sample) but never into the critic parameters.
    Returns (loss, flat policy gradient, mean log-density of the
    samples); the last drives entropy-coefficient tuning.
    """
    a, logp, internals = policy.sample(batch.s, rng)
    x = critic_input(batch.s, a)
    qmin, ga_sel = _min_member_action_grad(ensemble.member_stack, x, batch.s.shape[1])
    b = batch.size
    loss = float(np.mean(entropy_coef * logp - qmin))
    d_logp = np.full(b, entropy_coef / b)
    d_action = -ga_sel / b
    grad = policy.sample_grads(internals, d_logp, d_action)
    return loss, grad, float(logp.mean())


def sample_action_mixture(
    policy: GaussianPolicy, s: np.ndarray, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """Half reparameterized policy samples, half uniform over the policy's
    action box.

    Row i of the result goes with state row i; the first half of the
    states receives policy samples, the second half uniform draws.
    """
    if batch_size % 2 != 0:
        raise ValueError("batch_size must be even")
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    if s.shape[0] != batch_size:
        raise ShapeError(f"{s.shape[0]} states for batch_size {batch_size}")
    nh = batch_size // 2
    a_pol = policy.act(s[:nh], rng)
    size = (batch_size - nh, policy.action_dim)
    a_uni = rng.uniform(policy.action_low, policy.action_high, size=size)
    return np.concatenate([a_pol, a_uni], axis=0)


def score_match_loss(
    ensemble: CriticEnsemble,
    scale_net: ScaleNet,
    score_model,
    s: np.ndarray,
    actions: np.ndarray,
    w,
):
    """mean over members and batch of ||dQ/da - scale(s) * eps(s,a,w,1)||^2.

    `actions` should come from `sample_action_mixture`.  The noise
    estimate is a constant here (the diffusion model is pre-trained and
    frozen); gradients are returned for the critic members and the
    scale network only.
    """
    s = np.atleast_2d(np.asarray(s, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    eps = score_model.predict(s, actions, w, 1)
    scale_fwd = scale_net.forward(s)
    alpha = scale_fwd.out[:, 0]
    x = critic_input(s, actions)
    state_dim = s.shape[1]
    stack = ensemble.member_stack
    n, b = len(stack), s.shape[0]
    ones = np.ones((n, b, 1))
    fwd = mlp_forward_batch(stack, x)
    g = mlp_input_grad(fwd, ones)[..., state_dim:]
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite critic action gradient")
    resid = g - alpha[:, None] * eps
    loss = _in_member_order(np.sum((resid * resid).reshape(n, -1), axis=1))
    direction = np.zeros((n, *x.shape))
    direction[..., state_dim:] = (2.0 / (n * b)) * resid
    member_grads = mlp_second_grad(fwd, ones, direction)
    d_alpha = np.zeros(b)
    for term in (-2.0 / (n * b)) * np.sum(resid * eps, axis=2):  # in member order, as above
        d_alpha += term
    scale_grad = scale_net.grads(scale_fwd, d_alpha)
    return loss / (n * b), member_grads, scale_grad


@dataclass
class SmacCriticOut:
    total: float
    td_loss: float
    sm_loss: float
    member_grads: np.ndarray
    scale_grad: np.ndarray


def smac_critic_loss(
    ensemble: CriticEnsemble,
    policy: GaussianPolicy,
    scale_net: ScaleNet,
    score_model,
    batch,
    *,
    score_match_weight: float,
    entropy_coef: float,
    discount: float,
    target_rng: np.random.Generator,
    action_rng: np.random.Generator,
) -> SmacCriticOut:
    """Weighted sum of the score-match regularizer and the soft TD loss.

    Actions for the regularizer are drawn from the policy/uniform
    mixture over the batch states, conditioned on outcome label 1 (the
    regularizer always asks the estimator for best-outcome scores).
    With weight 0 the regularizer path is skipped entirely, so values,
    gradients, and random-stream consumption reduce exactly to the
    plain soft actor-critic loss.
    """
    if score_match_weight < 0.0:
        raise ValueError("score-match weight must be non-negative")
    td_loss, td_grads = sac_critic_loss(
        ensemble, policy, batch, entropy_coef, discount, target_rng
    )
    if score_match_weight == 0.0:
        return SmacCriticOut(
            total=td_loss,
            td_loss=td_loss,
            sm_loss=0.0,
            member_grads=td_grads,
            scale_grad=None if scale_net is None else np.zeros_like(scale_net.params.values),
        )
    sm_actions = sample_action_mixture(policy, batch.s, batch.size, action_rng)
    sm_loss, sm_grads, scale_grad = score_match_loss(
        ensemble, scale_net, score_model, batch.s, sm_actions, 1.0
    )
    k = score_match_weight
    return SmacCriticOut(
        total=td_loss + k * sm_loss,
        td_loss=td_loss,
        sm_loss=sm_loss,
        member_grads=td_grads + k * sm_grads,
        scale_grad=k * scale_grad,
    )


def cql_penalty(ensemble: CriticEnsemble, policy: GaussianPolicy, batch, rng: np.random.Generator):
    """mean Q on mixture-sampled actions minus mean Q on dataset actions."""
    a_ood = sample_action_mixture(policy, batch.s, batch.size, rng)
    return _conservative_penalty(ensemble, batch, a_ood, cap=None)


def calql_penalty(ensemble: CriticEnsemble, policy: GaussianPolicy, batch, rng: np.random.Generator):
    """Conservative penalty with the sampled-action term capped at the
    Monte-Carlo return of the state.  Rejects batches without
    Monte-Carlo returns (callers fall back to `cql_penalty`)."""
    if np.any(np.isnan(batch.mc)):
        raise ValueError("batch lacks Monte-Carlo returns; use cql_penalty instead")
    a_ood = sample_action_mixture(policy, batch.s, batch.size, rng)
    return _conservative_penalty(ensemble, batch, a_ood, cap=batch.mc)


def _conservative_penalty(ensemble, batch, a_ood, cap):
    x_ood = critic_input(batch.s, a_ood)
    x_data = critic_input(batch.s, batch.a)
    stack = ensemble.member_stack
    n, b = len(stack), batch.size
    ood = mlp_forward_batch(stack, x_ood)
    q_ood = ood.out[..., 0]
    data = mlp_forward_batch(stack, x_data)
    g_data = mlp_grad_batch(data, np.full((n, b, 1), -1.0 / (n * b)))
    q_data = data.out[..., 0]
    if cap is None:
        ood_term = q_ood
        up_ood = np.ones((n, b))
    else:
        ood_term = np.minimum(cap, q_ood)
        up_ood = (q_ood <= cap).astype(np.float64)
    penalty = _in_member_order(np.mean(ood_term, axis=1) - np.mean(q_data, axis=1))
    g_ood = mlp_grad_batch(ood, (up_ood / (n * b))[..., None])
    return penalty / n, g_ood + g_data


@dataclass
class IqlOut:
    critic_loss: float
    value_loss: float
    policy_loss: float
    member_grads: np.ndarray
    value_grad: np.ndarray
    policy_grad: np.ndarray


def iql_losses(
    ensemble: CriticEnsemble,
    value_net: ScaleNet,
    policy: GaussianPolicy,
    batch,
    expectile: float,
    awr_temperature: float,
    discount: float,
) -> IqlOut:
    """Expectile value regression, TD critic regression onto the value
    net, and advantage-weighted regression for the policy.

    The value target and the policy advantage both use the minimum over
    target critics at dataset actions; advantage weights exp(adv/beta)
    are clipped at WEIGHT_CLIP and treated as constants.
    """
    if not 0.0 < expectile < 1.0:
        raise ValueError("expectile must lie in (0, 1)")
    b = batch.size
    x_data = critic_input(batch.s, batch.a)
    qt, _ = _min_over(ensemble.target_stack, x_data)
    value_fwd = value_net.forward(batch.s)
    v = value_fwd.out[:, 0]
    u = qt - v
    weight = np.abs(expectile - (u < 0.0).astype(np.float64))
    value_loss = float(np.mean(weight * u * u))
    value_grad = value_net.grads(value_fwd, (-2.0 / b) * weight * u)

    y = batch.r + discount * (1.0 - batch.done) * value_net.values(batch.s2)
    critic_loss, member_grads = _td_regression(ensemble.member_stack, x_data, y)

    adv_w = _clipped_exp_weights(u / awr_temperature)
    logp, internals = policy.logprob_given(batch.s, batch.a)
    policy_loss = float(np.mean(-adv_w * logp))
    policy_grad = policy.given_grads(internals, -adv_w / b)
    return IqlOut(critic_loss, value_loss, policy_loss, member_grads, value_grad, policy_grad)


@dataclass
class Td3Out:
    critic_loss: float
    policy_loss: float
    member_grads: np.ndarray
    policy_grad: np.ndarray


def td3_critic_loss(
    ensemble: CriticEnsemble,
    policy: GaussianPolicy,
    batch,
    discount: float,
    rng: np.random.Generator,
    *,
    smoothing: bool = True,
):
    """TD regression onto the min-target Q at the smoothed mean action of
    the next state.  Returns (loss, per-member gradients)."""
    a2 = policy.mean_action(batch.s2)
    if smoothing:
        half = policy.half
        noise = TD3_SMOOTHING_STD * half * rng.standard_normal(a2.shape)
        noise = np.clip(noise, -TD3_SMOOTHING_CLIP * half, TD3_SMOOTHING_CLIP * half)
        a2 = np.clip(a2 + noise, policy.action_low, policy.action_high)
    x2 = critic_input(batch.s2, a2)
    tq, _ = _min_over(ensemble.target_stack, x2)
    y = batch.r + discount * (1.0 - batch.done) * tq
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite TD target")
    return _td_regression(ensemble.member_stack, critic_input(batch.s, batch.a), y)


def td3_losses(
    ensemble: CriticEnsemble,
    policy: GaussianPolicy,
    batch,
    discount: float,
    rng: np.random.Generator,
    *,
    smoothing: bool = True,
) -> Td3Out:
    """Deterministic-gradient losses: `td3_critic_loss`, and policy ascent
    on the min-member Q at the mean action."""
    critic_loss, member_grads = td3_critic_loss(
        ensemble, policy, batch, discount, rng, smoothing=smoothing
    )
    pi_fwd = policy.forward(batch.s)
    x_pi = critic_input(batch.s, policy.mean_of(pi_fwd))
    qmin, ga_sel = _min_member_action_grad(ensemble.member_stack, x_pi, batch.s.shape[1])
    policy_loss = float(-np.mean(qmin))
    policy_grad = policy.mean_action_grads(pi_fwd, -ga_sel / batch.size)
    return Td3Out(critic_loss, policy_loss, member_grads, policy_grad)


def td3bc_policy_loss(
    ensemble: CriticEnsemble,
    policy: GaussianPolicy,
    batch,
    bc_weight: float,
    normalizer: float | None = None,
):
    """mean(-Q/sg(mean|Q|) + bc_weight * ||mean_action - a||^2).

    The normalizer is the batch-mean absolute min-member Q at the mean
    action.  It is a stop-gradient constant: recomputed from the batch
    when `normalizer` is None, or pinned to the given value (which is
    how the finite-difference oracle probes this objective).  Floored
    to avoid 0/0 at initialization.
    """
    if bc_weight < 0.0:
        raise ValueError("bc weight must be non-negative")
    b = batch.size
    pi_fwd = policy.forward(batch.s)
    a_mean = policy.mean_of(pi_fwd)
    x_pi = critic_input(batch.s, a_mean)
    qmin, ga_sel = _min_member_action_grad(ensemble.member_stack, x_pi, batch.s.shape[1])
    if normalizer is None:
        normalizer = float(np.mean(np.abs(qmin)))
    norm = max(normalizer, NORMALIZER_FLOOR)
    diff = a_mean - batch.a
    loss = float(np.mean(-qmin / norm + bc_weight * np.sum(diff * diff, axis=1)))
    d_action = -ga_sel / (b * norm) + (2.0 * bc_weight / b) * diff
    grad = policy.mean_action_grads(pi_fwd, d_action)
    return loss, grad


def awr_weights(
    ensemble: CriticEnsemble,
    policy: GaussianPolicy,
    batch,
    temperature: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Clipped exponential advantage weights.

    Advantage = ensemble-mean Q at the dataset action minus ensemble-
    mean Q at one policy sample from the same state.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    a_pi = policy.act(batch.s, rng)
    q_base = np.mean(_q_forward(ensemble.member_stack, critic_input(batch.s, a_pi)), axis=0)
    q_data = np.mean(_q_forward(ensemble.member_stack, critic_input(batch.s, batch.a)), axis=0)
    return _clipped_exp_weights((q_data - q_base) / temperature)


def awr_policy_loss(
    ensemble: CriticEnsemble,
    policy: GaussianPolicy,
    batch,
    temperature: float,
    rng: np.random.Generator,
    weights: np.ndarray | None = None,
):
    """Advantage-weighted regression onto dataset actions.

    The weights are stop-gradient constants: recomputed via
    `awr_weights` when None, or pinned to the given values (used by the
    finite-difference oracle).
    """
    b = batch.size
    if weights is None:
        weights = awr_weights(ensemble, policy, batch, temperature, rng)
    logp, internals = policy.logprob_given(batch.s, batch.a)
    loss = float(np.mean(-weights * logp))
    grad = policy.given_grads(internals, -weights / b)
    return loss, grad


def entropy_coef_update(log_coef: float, mean_logp: float, target_entropy: float, lr: float) -> float:
    """One gradient step on the log entropy coefficient toward the target
    entropy: coefficient grows while policy entropy is below target.

    Raises `NumericError` when the stepped log coefficient is not finite
    or the coefficient itself would overflow, before anything takes its exp.
    """
    coef = float(np.exp(log_coef))
    grad = -coef * (mean_logp + target_entropy)
    new = float(log_coef - lr * grad)
    if not -np.inf < new <= LOG_ENTROPY_COEF_MAX:
        raise NumericError(f"entropy coefficient overflows: log coefficient {new}")
    return new


def verify_maxent_identity(q_fn, alpha: float, grid: np.ndarray) -> float:
    """Sup-norm gap of the optimum-policy score identity on a 1-D grid.

    Builds the max-entropy optimal density exp(Q/alpha)/Z by trapezoid
    quadrature, then compares the numerical action-derivative of its log
    against the numerical action-derivative of Q scaled by 1/alpha.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 3:
        raise ShapeError("grid must be 1-D with at least 3 points")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    q = np.asarray(q_fn(grid), dtype=np.float64)
    if q.shape != grid.shape:
        q = np.array([float(q_fn(float(a))) for a in grid])
    if not np.all(np.isfinite(q)):
        raise ValueError("normalizer diverges: Q is not finite on the grid")
    # Q - max Q <= 0, so a quotient that overflows is -inf and its exp 0.
    with np.errstate(over="ignore"):
        e = np.exp((q - q.max()) / alpha)
    if not np.all(e > 0.0):
        raise ValueError(f"alpha {alpha} is too small: exp((Q - max Q)/alpha) underflows to 0")
    z = float(np.trapezoid(e, grid))
    if not np.isfinite(z) or z <= 0.0:
        raise ValueError(f"normalizer diverges: Z = {z}")
    log_dens = np.log(e / z)
    span = grid[2:] - grid[:-2]
    d_log = (log_dens[2:] - log_dens[:-2]) / span
    d_q = (q[2:] - q[:-2]) / span
    return float(np.max(np.abs(d_log - d_q / alpha)))
