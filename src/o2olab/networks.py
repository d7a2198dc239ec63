"""Policy, critic-ensemble, and scalar state networks used by every agent.

The Gaussian policy network maps a state to per-action mean and
pre-std heads; the std is exp of the clamped pre-std.  With squashing
enabled, samples are mapped through tanh and rescaled into the action
box, and log-densities include the change-of-variables correction.

Because losses here are optimized with hand-rolled reverse mode, the
policy exposes its sampling internals together with closed-form partial
derivatives of (log-density, action) w.r.t. the two heads; loss code
supplies per-sample upstreams and receives flat parameter gradients.
Sampling and log-density internals carry the `ForwardCache` of the
heads, so the gradient call that follows reuses that forward pass.
Acting needs none of that: `GaussianPolicy.act` draws the same actions
as `sample` and computes neither log-density nor clamp mask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numkit import (
    ForwardCache,
    MlpSpec,
    ParamStack,
    ParamVector,
    init_params,
    mlp_forward_batch,
    mlp_grad_batch,
)
from .errors import ShapeError

LOG_2PI = float(np.log(2.0 * np.pi))
# Clamp of the policy's pre-std head; keeps standard deviations inside a
# sane dynamic range.
EXP_CLAMP_LO = -10.0
EXP_CLAMP_HI = 5.0
ATANH_CLIP = 1.0 - 1e-10


def _log1m_tanh2(u: np.ndarray) -> np.ndarray:
    """log(1 - tanh(u)^2), stable for large |u|."""
    return 2.0 * (np.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def _std(rho: np.ndarray) -> np.ndarray:
    """Standard deviations from the pre-std head, clamped in log space."""
    return np.exp(np.clip(rho, EXP_CLAMP_LO, EXP_CLAMP_HI))


@dataclass
class GaussianPolicy:
    """Tanh-squashed (optionally) diagonal Gaussian policy.

    `params` may also be a `ParamStack` of m policies of one spec; then
    `heads` and `mean_action` evaluate all of them in one pass, on shared
    `(batch, d)` or per-policy `(m, batch, d)` states.
    """

    params: ParamVector | ParamStack
    action_low: np.ndarray
    action_high: np.ndarray
    squash: bool = True

    def __post_init__(self):
        self.action_low = np.asarray(self.action_low, dtype=np.float64)
        self.action_high = np.asarray(self.action_high, dtype=np.float64)
        if self.params.spec.out_dim != 2 * self.action_dim:
            raise ShapeError(
                f"policy net output {self.params.spec.out_dim} != 2 * action dim "
                f"{self.action_dim}"
            )

    @property
    def action_dim(self) -> int:
        return self.action_low.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.action_low + self.action_high)

    @property
    def half(self) -> np.ndarray:
        return 0.5 * (self.action_high - self.action_low)

    def with_params(self, params: ParamVector | ParamStack) -> "GaussianPolicy":
        return replace(self, params=params)

    def heads(self, s: np.ndarray, cache: ForwardCache | None = None):
        """(mean, pre_std, std, clamp mask) for a batch of states; with a
        `ParamStack` of n policies each carries a leading member axis."""
        out = mlp_forward_batch(self.params, s, cache)
        d = self.action_dim
        mu, rho = out[..., :d], out[..., d:]
        mask = ((rho > EXP_CLAMP_LO) & (rho < EXP_CLAMP_HI)).astype(np.float64)
        return mu, rho, _std(rho), mask

    def sample(self, s: np.ndarray, rng: np.random.Generator):
        """Reparameterized batch sample; returns (actions, logp, internals)."""
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        cache = ForwardCache()
        mu, _, std, mask = self.heads(s, cache)
        xi = rng.standard_normal(mu.shape)
        u = mu + std * xi
        base = -0.5 * xi * xi - np.log(std) - 0.5 * LOG_2PI
        if self.squash:
            t = np.tanh(u)
            a = self.center + self.half * t
            logp = np.sum(base - np.log(self.half) - _log1m_tanh2(u), axis=1)
        else:
            t = None
            a = u
            logp = np.sum(base, axis=1)
        internals = {"xi": xi, "u": u, "std": std, "mask": mask, "tanh_u": t, "cache": cache}
        return a, logp, internals

    def act(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The actions of `sample`, from the same draws of `rng`, without
        their log-density or gradient internals."""
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        out = mlp_forward_batch(self.params, s)
        mu, rho = out[..., : self.action_dim], out[..., self.action_dim :]
        u = mu + _std(rho) * rng.standard_normal(mu.shape)
        return self.center + self.half * np.tanh(u) if self.squash else u

    def sample_grads(self, s, internals, d_logp, d_action) -> np.ndarray:
        """Flat parameter gradient of sum_i d_logp_i * logp_i + <d_action_i, a_i>
        for a reparameterized sample described by `internals`."""
        xi, std, mask = internals["xi"], internals["std"], internals["mask"]
        if self.squash:
            t = internals["tanh_u"]
            dadu = self.half * (1.0 - t * t)
            dlog_dmu = 2.0 * t
            dlog_drho = (-1.0 + 2.0 * t * xi * std) * mask
            du_drho = xi * std * mask
            d_mu = d_logp[:, None] * dlog_dmu + d_action * dadu
            d_rho = d_logp[:, None] * dlog_drho + d_action * dadu * du_drho
        else:
            d_mu = d_action.copy()
            d_rho = (-d_logp[:, None] + d_action * xi * std) * mask
        upstream = np.concatenate([d_mu, d_rho], axis=1)
        return mlp_grad_batch(self.params, s, upstream, internals["cache"])

    def logprob_given(self, s: np.ndarray, a: np.ndarray):
        """Log-density of given actions; returns (logp, internals)."""
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        cache = ForwardCache()
        mu, _, std, mask = self.heads(s, cache)
        if self.squash:
            v = np.clip((a - self.center) / self.half, -ATANH_CLIP, ATANH_CLIP)
            u = np.arctanh(v)
            corr = np.sum(np.log(self.half) + np.log1p(-v * v), axis=1)
        else:
            u = a
            corr = 0.0
        xi = (u - mu) / std
        logp = np.sum(-0.5 * xi * xi - np.log(std) - 0.5 * LOG_2PI, axis=1) - corr
        return logp, {"xi": xi, "std": std, "mask": mask, "cache": cache}

    def given_grads(self, s, internals, d_logp) -> np.ndarray:
        """Flat parameter gradient of sum_i d_logp_i * logp_i at fixed actions."""
        xi, std, mask = internals["xi"], internals["std"], internals["mask"]
        d_mu = d_logp[:, None] * xi / std
        d_rho = d_logp[:, None] * (xi * xi - 1.0) * mask
        upstream = np.concatenate([d_mu, d_rho], axis=1)
        return mlp_grad_batch(self.params, s, upstream, internals["cache"])

    def mean_action(self, s: np.ndarray, cache: ForwardCache | None = None) -> np.ndarray:
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        mu = mlp_forward_batch(self.params, s, cache)[..., : self.action_dim]
        if self.squash:
            return self.center + self.half * np.tanh(mu)
        return mu

    def mean_action_grads(self, s, d_action, cache: ForwardCache | None = None) -> np.ndarray:
        """Flat parameter gradient of sum_i <d_action_i, mean_action_i>;
        pass the `cache` given to `mean_action` at the same states."""
        s = np.atleast_2d(np.asarray(s, dtype=np.float64))
        if cache is None:
            cache = ForwardCache()
        if cache.hs is None:
            mlp_forward_batch(self.params, s, cache)
        mu = cache.out[:, : self.action_dim]
        if self.squash:
            t = np.tanh(mu)
            d_mu = d_action * self.half * (1.0 - t * t)
        else:
            d_mu = d_action
        upstream = np.concatenate([d_mu, np.zeros_like(d_mu)], axis=1)
        return mlp_grad_batch(self.params, s, upstream, cache)


def make_policy(
    state_dim: int,
    action_low,
    action_high,
    hidden,
    rng: np.random.Generator,
    activation: str = "relu",
    squash: bool = True,
) -> GaussianPolicy:
    action_low = np.asarray(action_low, dtype=np.float64)
    spec = MlpSpec((state_dim, *hidden, 2 * action_low.size), activation=activation)
    return GaussianPolicy(
        params=init_params(spec, rng),
        action_low=action_low,
        action_high=np.asarray(action_high, dtype=np.float64),
        squash=squash,
    )


class CriticEnsemble:
    """N critics Q(s, a) with matching Polyak-averaged targets.

    Members and targets are held as two `ParamStack`s, so one numkit pass
    evaluates every member.  `members` and `targets` read them as
    per-member `ParamVector` views.
    """

    def __init__(self, members, targets=None):
        self.member_stack = ParamStack.of(members)
        self.target_stack = ParamStack.of(members if targets is None else targets)
        if len(self.member_stack) < 2:
            raise ShapeError("critic ensemble needs at least 2 members")
        if len(self.target_stack) != len(self.member_stack):
            raise ShapeError("target count != member count")
        if self.target_stack.spec != self.member_stack.spec:
            raise ShapeError("member/target spec mismatch")

    @property
    def n_members(self) -> int:
        return len(self.member_stack)

    @property
    def members(self) -> list[ParamVector]:
        return self.member_stack.vectors()

    @property
    def targets(self) -> list[ParamVector]:
        return self.target_stack.vectors()


def critic_input(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.concatenate([np.atleast_2d(s), np.atleast_2d(a)], axis=1)


def make_critic_ensemble(
    state_dim: int,
    action_dim: int,
    hidden,
    n_members: int,
    rng: np.random.Generator,
    activation: str = "tanh",
) -> CriticEnsemble:
    spec = MlpSpec((state_dim + action_dim, *hidden, 1), activation=activation)
    members = [init_params(spec, rng) for _ in range(n_members)]
    return CriticEnsemble(members=members)


@dataclass
class ScaleNet:
    """Scalar state network, unconstrained in sign: the state-conditioned
    scale applied to the score estimate inside the critic regularizer,
    and the state value of the expectile-regression agent."""

    params: ParamVector

    def values(self, s, cache: ForwardCache | None = None) -> np.ndarray:
        return mlp_forward_batch(self.params, np.atleast_2d(s), cache)[:, 0]

    def grads(self, s, d_out, cache: ForwardCache | None = None) -> np.ndarray:
        """Flat parameter gradient of sum_i d_out_i * value_i; pass the
        `cache` given to `values` at the same states."""
        return mlp_grad_batch(self.params, np.atleast_2d(s), d_out[:, None], cache)

    def with_params(self, params: ParamVector) -> "ScaleNet":
        return ScaleNet(params=params)


def make_scale_net(state_dim: int, hidden, rng, activation: str = "relu") -> ScaleNet:
    spec = MlpSpec((state_dim, *hidden, 1), activation=activation)
    return ScaleNet(params=init_params(spec, rng))
