"""Policy, critic-ensemble, and scalar state networks used by every agent.

The Gaussian policy network maps a state to per-action mean and
pre-std heads; the std is exp of the clamped pre-std.  Samples are
mapped through tanh and rescaled into the action box, and log-densities
include the change-of-variables correction.

Because losses here are optimized with hand-rolled reverse mode, the
policy exposes its sampling internals together with closed-form partial
derivatives of (log-density, action) w.r.t. the two heads; loss code
supplies per-sample upstreams and receives flat parameter gradients.
Each network's `forward` returns the `numkit.Forward` of its states.
Sampling and log-density internals carry that record, and the gradient
methods take the record they differentiate, so a loss runs one forward
per network and set of states.
Acting needs none of that: `GaussianPolicy.act` draws the same actions
as `sample` and computes neither log-density nor clamp mask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numkit import (
    Forward,
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
    """Tanh-squashed diagonal Gaussian policy.

    `params` may also be a `ParamStack` of m policies of one spec; then
    `forward` and `mean_action` evaluate all of them in one pass, on shared
    `(batch, d)` or per-policy `(m, batch, d)` states.
    """

    params: ParamVector | ParamStack
    action_low: np.ndarray
    action_high: np.ndarray

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

    def forward(self, s: np.ndarray) -> Forward:
        """The policy network's forward over a batch of states."""
        return mlp_forward_batch(self.params, np.atleast_2d(np.asarray(s, dtype=np.float64)))

    def heads(self, s: np.ndarray):
        """(forward, mean, std, clamp mask) for a batch of states; with a
        `ParamStack` of n policies all but the forward carry a leading
        member axis."""
        fwd = self.forward(s)
        d = self.action_dim
        mu, rho = fwd.out[..., :d], fwd.out[..., d:]
        mask = ((rho > EXP_CLAMP_LO) & (rho < EXP_CLAMP_HI)).astype(np.float64)
        return fwd, mu, _std(rho), mask

    def sample(self, s: np.ndarray, rng: np.random.Generator):
        """Reparameterized batch sample; returns (actions, logp, internals)."""
        fwd, mu, std, mask = self.heads(s)
        xi = rng.standard_normal(mu.shape)
        u = mu + std * xi
        base = -0.5 * xi * xi - np.log(std) - 0.5 * LOG_2PI
        t = np.tanh(u)
        a = self.center + self.half * t
        logp = np.sum(base - np.log(self.half) - _log1m_tanh2(u), axis=1)
        internals = {"xi": xi, "u": u, "std": std, "mask": mask, "tanh_u": t, "fwd": fwd}
        return a, logp, internals

    def act(self, s: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The actions of `sample`, from the same draws of `rng`, without
        their log-density or gradient internals."""
        out = self.forward(s).out
        mu, rho = out[..., : self.action_dim], out[..., self.action_dim :]
        u = mu + _std(rho) * rng.standard_normal(mu.shape)
        return self.center + self.half * np.tanh(u)

    def sample_grads(self, internals, d_logp, d_action) -> np.ndarray:
        """Flat parameter gradient of sum_i d_logp_i * logp_i + <d_action_i, a_i>
        for a reparameterized sample described by `internals`."""
        xi, std, mask = internals["xi"], internals["std"], internals["mask"]
        t = internals["tanh_u"]
        dadu = self.half * (1.0 - t * t)
        dlog_dmu = 2.0 * t
        dlog_drho = (-1.0 + 2.0 * t * xi * std) * mask
        du_drho = xi * std * mask
        d_mu = d_logp[:, None] * dlog_dmu + d_action * dadu
        d_rho = d_logp[:, None] * dlog_drho + d_action * dadu * du_drho
        upstream = np.concatenate([d_mu, d_rho], axis=1)
        return mlp_grad_batch(internals["fwd"], upstream)

    def logprob_given(self, s: np.ndarray, a: np.ndarray):
        """Log-density of given actions; returns (logp, internals)."""
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        fwd, mu, std, mask = self.heads(s)
        v = np.clip((a - self.center) / self.half, -ATANH_CLIP, ATANH_CLIP)
        u = np.arctanh(v)
        corr = np.sum(np.log(self.half) + np.log1p(-v * v), axis=1)
        xi = (u - mu) / std
        logp = np.sum(-0.5 * xi * xi - np.log(std) - 0.5 * LOG_2PI, axis=1) - corr
        return logp, {"xi": xi, "std": std, "mask": mask, "fwd": fwd}

    def given_grads(self, internals, d_logp) -> np.ndarray:
        """Flat parameter gradient of sum_i d_logp_i * logp_i at fixed actions."""
        xi, std, mask = internals["xi"], internals["std"], internals["mask"]
        d_mu = d_logp[:, None] * xi / std
        d_rho = d_logp[:, None] * (xi * xi - 1.0) * mask
        upstream = np.concatenate([d_mu, d_rho], axis=1)
        return mlp_grad_batch(internals["fwd"], upstream)

    def mean_action(self, s: np.ndarray) -> np.ndarray:
        return self.mean_of(self.forward(s))

    def mean_of(self, fwd: Forward) -> np.ndarray:
        """Mean actions of a forward."""
        mu = fwd.out[..., : self.action_dim]
        return self.center + self.half * np.tanh(mu)

    def mean_action_grads(self, fwd: Forward, d_action) -> np.ndarray:
        """Flat parameter gradient of sum_i <d_action_i, mean action_i> of
        the forward `fwd`."""
        mu = fwd.out[:, : self.action_dim]
        t = np.tanh(mu)
        d_mu = d_action * self.half * (1.0 - t * t)
        upstream = np.concatenate([d_mu, np.zeros_like(d_mu)], axis=1)
        return mlp_grad_batch(fwd, upstream)


def make_policy(
    state_dim: int,
    action_low,
    action_high,
    hidden,
    rng: np.random.Generator,
    activation: str = "relu",
) -> GaussianPolicy:
    action_low = np.asarray(action_low, dtype=np.float64)
    spec = MlpSpec((state_dim, *hidden, 2 * action_low.size), activation=activation)
    return GaussianPolicy(
        params=init_params(spec, rng),
        action_low=action_low,
        action_high=np.asarray(action_high, dtype=np.float64),
    )


class CriticEnsemble:
    """N critics Q(s, a) with matching Polyak-averaged targets, held as two
    `ParamStack`s of one spec, so one numkit pass evaluates every member.
    Without a `target_stack` the targets start as a copy of the members.
    """

    def __init__(self, member_stack: ParamStack, target_stack: ParamStack | None = None):
        if target_stack is None:
            target_stack = ParamStack(member_stack.spec, member_stack.values.copy())
        self.member_stack = member_stack
        self.target_stack = target_stack
        if len(self.member_stack) < 2:
            raise ShapeError("critic ensemble needs at least 2 members")
        if len(self.target_stack) != len(self.member_stack):
            raise ShapeError("target count != member count")
        if self.target_stack.spec != self.member_stack.spec:
            raise ShapeError("member/target spec mismatch")


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
    return CriticEnsemble(ParamStack.of(init_params(spec, rng) for _ in range(n_members)))


@dataclass
class ScaleNet:
    """Scalar state network, unconstrained in sign: the state-conditioned
    scale applied to the score estimate inside the critic regularizer,
    and the state value of the expectile-regression agent."""

    params: ParamVector

    def forward(self, s) -> Forward:
        return mlp_forward_batch(self.params, np.atleast_2d(s))

    def values(self, s) -> np.ndarray:
        return self.forward(s).out[:, 0]

    def grads(self, fwd: Forward, d_out) -> np.ndarray:
        """Flat parameter gradient of sum_i d_out_i * value_i of the forward `fwd`."""
        return mlp_grad_batch(fwd, d_out[:, None])

    def with_params(self, params: ParamVector) -> "ScaleNet":
        return ScaleNet(params=params)


def make_scale_net(state_dim: int, hidden, rng, activation: str = "relu") -> ScaleNet:
    spec = MlpSpec((state_dim, *hidden, 1), activation=activation)
    return ScaleNet(params=init_params(spec, rng))
