"""Parameter-update rules: Adam, Muon, and Polyak target averaging.

Muon performs steepest descent under the spectral norm: the momentum-
averaged gradient of every weight matrix is replaced by its orthogonal
factor (approximated with a Newton-Schulz iteration) before the update.
Bias vectors and other 1-D parameters fall back to momentum SGD.

All steps are pure: they take an `OptState` and return a new one, never
mutating their inputs.  Every step also takes a `ParamStack` with an
`OptState` whose buffers have the stack's `(n, P)` shape; Muon then
orthogonalizes each layer of all n networks in one Newton-Schulz call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericError, ShapeError

# Odd quintic x -> (15x - 10x^3 + 3x^5)/8 used inside Newton-Schulz.
# It maps [0, 1] into itself, fixes 1 with two vanishing derivatives
# (so orthogonal inputs are genuine fixed points of the iteration), and
# still expands small singular values by ~1.875x per sweep.
NS_COEF_A = 15.0 / 8.0
NS_COEF_B = -10.0 / 8.0
NS_COEF_C = 3.0 / 8.0
NS_DEFAULT_ITERATIONS = 5

MUON_DEFAULT_MOMENTUM = 0.95


@dataclass(frozen=True)
class OptState:
    """State of one optimizer bound to one flat parameter vector."""

    kind: str
    learning_rate: float
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = MUON_DEFAULT_MOMENTUM
    ns_iterations: int = NS_DEFAULT_ITERATIONS
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("adam", "muon"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")


def init_opt_state(kind: str, shape, learning_rate: float, **kwargs) -> OptState:
    """Fresh optimizer state with zeroed moment buffers of `shape` (the
    parameter count, or `(n, P)` for a `ParamStack`)."""
    m = np.zeros(shape)
    v = np.zeros(shape) if kind == "adam" else None
    return OptState(kind=kind, learning_rate=learning_rate, m=m, v=v, **kwargs)


def _check_grad(params, grad):
    if grad.values.shape != params.values.shape:
        raise ShapeError("gradient length does not match parameter length")
    if not np.isfinite(grad.values).all():
        raise NumericError("non-finite gradient")


def adam_step(state: OptState, params, grad):
    """One bias-corrected Adam update."""
    if state.kind != "adam":
        raise ValueError(f"adam_step called with kind={state.kind!r}")
    _check_grad(params, grad)
    g = grad.values
    t = state.step_count + 1
    # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and the update
    # lr*m_hat / (sqrt(v_hat) + eps), each operation as written there, in
    # two scratch buffers besides the new m, v and parameters.
    m = state.beta1 * state.m
    step = np.multiply(1.0 - state.beta1, g)
    m += step
    v = state.beta2 * state.v
    denom = np.multiply(1.0 - state.beta2, g)
    denom *= g
    v += denom
    np.divide(v, 1.0 - state.beta2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    np.divide(m, 1.0 - state.beta1**t, out=step)
    step *= state.learning_rate
    step /= denom
    return replace(params, values=params.values - step), replace(state, step_count=t, m=m, v=v)


def newton_schulz_orthogonalize(g: np.ndarray, iterations: int = NS_DEFAULT_ITERATIONS) -> np.ndarray:
    """Approximate the orthogonal polar factor of a matrix, or of each
    matrix in a `(..., m, n)` stack.

    Each matrix is scaled to unit Frobenius norm (so every singular value
    lands in (0, 1]) and then run through `iterations` sweeps of the
    quintic iteration X <- aX + b(XX^T)X + c(XX^T)^2 X.  Tall matrices
    are transposed first and transposed back at the end, so the Gram
    matrix XX^T is formed on the smaller side; each sweep computes
    (XX^T)X once and reuses it for the quintic term.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim < 2:
        raise ShapeError(f"expected a matrix or a stack of matrices, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise NumericError("non-finite matrix entries")
    flat = g.reshape(*g.shape[:-2], -1)
    # vecdot rounds like the dot product inside np.linalg.norm.
    norm = np.sqrt(np.vecdot(flat, flat))[..., None, None]
    if np.any(norm == 0.0):
        raise ValueError("cannot orthogonalize a zero matrix")
    transposed = g.shape[-2] > g.shape[-1]
    x = (g.mT if transposed else g) / norm
    for _ in range(iterations):
        a = x @ x.mT
        ax = a @ x
        x = NS_COEF_A * x + NS_COEF_B * ax + NS_COEF_C * (a @ ax)
    return x.mT if transposed else x


def muon_step(state: OptState, params, grad):
    """One Muon update.

    The momentum buffer is an EMA of gradients; the effective gradient is
    the Nesterov lookahead (1-mu)*g + mu*buffer.  Weight matrices are
    replaced by their orthogonalized effective gradient scaled by the
    learning rate (a matrix whose effective gradient is all zero stays
    as it is); bias vectors take the effective gradient directly
    (momentum SGD).
    """
    if state.kind != "muon":
        raise ValueError(f"muon_step called with kind={state.kind!r}")
    _check_grad(params, grad)
    mu = state.momentum
    buf = mu * state.m + (1.0 - mu) * grad.values
    eff = (1.0 - mu) * grad.values + mu * buf

    lead = params.values.shape[:-1]
    new_values = params.values.copy()
    pos = 0
    for (out_w, in_w), _ in params.spec.layer_shapes():
        w_len = out_w * in_w
        eff_w = eff[..., pos : pos + w_len].reshape(*lead, out_w, in_w)
        live = eff_w.any(axis=(-2, -1))
        if live.all():
            update = newton_schulz_orthogonalize(eff_w, state.ns_iterations)
        else:  # a zero matrix has no polar factor and takes no step
            update = np.zeros_like(eff_w)
            if live.any():
                update[live] = newton_schulz_orthogonalize(eff_w[live], state.ns_iterations)
        new_values[..., pos : pos + w_len] -= state.learning_rate * update.reshape(*lead, w_len)
        pos += w_len
        new_values[..., pos : pos + out_w] -= state.learning_rate * eff[..., pos : pos + out_w]
        pos += out_w
    return replace(params, values=new_values), replace(state, step_count=state.step_count + 1, m=buf)


def optimizer_step(state: OptState, params, grad):
    """Dispatch on `state.kind`; `params` and `grad` are both `ParamVector`s
    or both `ParamStack`s."""
    if state.kind == "adam":
        return adam_step(state, params, grad)
    return muon_step(state, params, grad)


def polyak_update(target, online, rate: float):
    """target <- rate * online + (1 - rate) * target, per coordinate, for
    a `ParamVector` or a `ParamStack`."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"polyak rate must be in (0, 1], got {rate}")
    if target.values.shape != online.values.shape:
        raise ShapeError("target and online parameter lengths differ")
    mixed = rate * online.values + (1.0 - rate) * target.values
    return replace(target, values=mixed)
