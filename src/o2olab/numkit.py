"""Dense numeric core: MLPs with exact reverse-mode gradients.

Everything is float64 numpy.  Networks are described by an `MlpSpec`:
affine layers with one hidden activation (relu or tanh) between them and
an affine output.  Their parameters live in a single flat vector
(`ParamVector`), which is what makes parameter-space arithmetic
(interpolation, plane grids, Polyak averaging) trivial elsewhere in the
package.

Three levels of differentiation are provided:

* `mlp_forward_batch` -- evaluation; it returns a `Forward`, the record
  of one pass (parameters, per-layer views, the input and every layer's
  output), whose `.out` is the network output,
* `mlp_grad_batch` / `mlp_input_grad` -- one reverse-mode pass of
  <upstream, output> through a `Forward`, which returns either the
  gradient w.r.t. the parameters or the one w.r.t. the inputs, never
  both: no caller reads both, and the parameter pass stops before the
  input layer's adjoint,
* `mlp_second_grad` -- the forward-over-reverse pass through a `Forward`
  needed when a loss depends on an input gradient of the network
  (gradients of gradients); it returns the parameter gradient only.

The forward's layer loop is one private function, `_layer_outputs`: per
layer a matrix product with the transposed weight, the bias added in
place, a finite check and the hidden activation.  `mlp_forward_batch`
hands it the per-layer views of the parameters it is given, with each
bias broadcast over the rows.  A greedy rollout
(`pipeline.greedy_returns`) evaluates the same parameters at every time
step, so it builds those operands once, with each bias tiled to the
rollout's rows, and calls the loop directly; the products run on the
same views, so its outputs are those of `mlp_forward_batch` bit for bit.

Each pass takes a batch of input rows; a single input is a batch of one.
A loss runs one forward and hands that record to every gradient pass it
takes of it, so the passes share the forward by construction.

Every pass also works on a `ParamStack`, the parameters of several
networks of one spec, and then evaluates all of them with one
`np.matmul` per layer; inputs are shared `(batch, in)` rows or
per-network `(n, batch, in)` rows.  A forward keeps only each layer's
output: the gradient passes take the activation's derivatives from those
outputs (relu `h > 0`, tanh `1 - h*h`), so a plain evaluation computes
none.

The passes do their elementwise arithmetic in place, in arrays they
allocated themselves: a layer adds its bias and applies its activation in
the output of its matrix product, a backward step multiplies by the
activation's derivative in place, and each layer's parameter gradient is
written into its slice of one flat array.  Every operation and its
operand order are those of the plain expressions, so results are the
same bit for bit; no pass writes into an array its caller passed in or
into the arrays of the `Forward` it is handed.

`spec_header` and `spec_from_header` are the one codec of a spec in the
JSON header of a checkpoint or score-model file.

`finite_diff_check` is the house oracle used throughout the test suite.
It stays in the package, not in the tests, so that any code built on
these passes can check its own gradients against central differences
the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a fully connected network.

    `layer_widths` includes the input and output widths, so a spec always
    has at least two entries.  The hidden `activation` follows every
    layer except the last, whose output is affine.
    """

    layer_widths: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ShapeError(f"need at least 2 layer widths, got {widths}")
        if any(w <= 0 for w in widths):
            raise ShapeError(f"layer widths must be positive, got {widths}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def out_dim(self) -> int:
        return self.layer_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    def layer_shapes(self) -> list[tuple[tuple[int, int], tuple[int]]]:
        """[(weight shape, bias shape)] per layer, in flattening order."""
        widths = self.layer_widths
        return [((widths[i + 1], widths[i]), (widths[i + 1],)) for i in range(self.n_layers)]

    @property
    def param_count(self) -> int:
        widths = self.layer_widths
        return sum(widths[i + 1] * (widths[i] + 1) for i in range(self.n_layers))


def spec_header(spec: MlpSpec) -> dict:
    """The file-header entries of a spec; `spec_from_header` reads them.
    Every spec has an affine output, which files record as
    "output_transform": "identity"."""
    return {
        "layer_widths": list(spec.layer_widths),
        "activation": spec.activation,
        "output_transform": "identity",
    }


def spec_from_header(entries, name: str) -> MlpSpec:
    """The spec that `spec_header` entries describe; `name` says where
    they are in the file.  A non-object, a field of the wrong type or an
    output transform other than "identity" raises `FormatError`."""
    if not isinstance(entries, dict):
        raise FormatError(f"{name} is not a network spec: {entries!r}")
    widths, activation = entries["layer_widths"], entries["activation"]
    if not isinstance(widths, list) or any(type(w) is not int for w in widths):
        raise FormatError(f"{name} has a 'layer_widths' that is not a list of ints: {widths!r}")
    if activation not in ACTIVATIONS:
        raise FormatError(f"{name} has an 'activation' outside {ACTIVATIONS}: {activation!r}")
    transform = entries["output_transform"]
    if transform != "identity":
        raise FormatError(f"{name} has an 'output_transform' other than 'identity': {transform!r}")
    return MlpSpec(tuple(widths), activation)


@dataclass
class ParamVector:
    """Flat float64 view of all weights and biases of one `MlpSpec`."""

    spec: MlpSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.values.size != self.spec.param_count:
            raise ShapeError(
                f"parameter vector has {self.values.size} entries, "
                f"spec requires {self.spec.param_count}"
            )

    def copy(self) -> "ParamVector":
        return ParamVector(self.spec, self.values.copy())


@dataclass
class ParamStack:
    """Flat parameters of n networks of one `MlpSpec`, one row each."""

    spec: MlpSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != self.spec.param_count:
            raise ShapeError(
                f"parameter stack has shape {self.values.shape}, "
                f"spec requires (n, {self.spec.param_count})"
            )

    @classmethod
    def of(cls, vectors) -> "ParamStack":
        """Stack `ParamVector`s that share one spec (copies their values)."""
        vectors = list(vectors)
        if not vectors or any(v.spec != vectors[0].spec for v in vectors):
            raise ShapeError("a parameter stack needs one or more vectors of one spec")
        return cls(vectors[0].spec, np.stack([v.values for v in vectors]))

    def __len__(self) -> int:
        return self.values.shape[0]

    def vectors(self) -> list[ParamVector]:
        """One `ParamVector` per row, each a view into this stack."""
        return [ParamVector(self.spec, row) for row in self.values]


@dataclass(frozen=True, eq=False)
class Forward:
    """One forward pass, the record that the gradient passes differentiate:
    the parameters it ran, their per-layer (weight, bias) views, and the
    input rows followed by every layer's output."""

    params: ParamVector | ParamStack
    layers: list[tuple[np.ndarray, np.ndarray]]
    hs: list[np.ndarray]

    @property
    def spec(self) -> MlpSpec:
        return self.params.spec

    @property
    def out(self) -> np.ndarray:
        """Network output: `(batch, out)`, or `(n, batch, out)` for a `ParamStack`."""
        return self.hs[-1]


def init_params(spec: MlpSpec, rng: np.random.Generator) -> ParamVector:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    chunks = []
    for (out_w, in_w), _ in spec.layer_shapes():
        bound = np.sqrt(6.0 / (in_w + out_w))
        chunks.append(rng.uniform(-bound, bound, size=out_w * in_w))
        chunks.append(np.zeros(out_w))
    return ParamVector(spec, np.concatenate(chunks))


def unflatten(params) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the flat parameters into per-layer (weight, bias) views.

    For a `ParamStack` of n networks each weight is `(n, out, in)` and
    each bias `(n, out)`.
    """
    return _layer_views(params.spec, params.values)


def _layer_views(spec: MlpSpec, values: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) views of a flat `(..., P)` array of `spec`."""
    lead = values.shape[:-1]
    layers = []
    pos = 0
    for (out_w, in_w), _ in spec.layer_shapes():
        w = values[..., pos : pos + out_w * in_w].reshape(*lead, out_w, in_w)
        pos += out_w * in_w
        b = values[..., pos : pos + out_w]
        pos += out_w
        layers.append((w, b))
    return layers


def _act_deriv(kind: str, h: np.ndarray) -> np.ndarray:
    """First derivative of a hidden activation, from its output h: relu's
    as a boolean mask, tanh's `1 - h*h` built in one buffer."""
    if kind == "relu":
        return h > 0
    df = h * h
    np.subtract(1.0, df, out=df)
    return df


def _act_second(kind: str, f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """Second derivative of a hidden activation from its value and first derivative."""
    if kind == "relu":
        return np.zeros_like(f)
    ddf = -2.0 * f
    ddf *= df
    return ddf


def _check_rows(params, x: np.ndarray):
    """Refuse input rows that are neither `(batch, in)` nor, for a
    `ParamStack` of n networks, `(n, batch, in)`."""
    lead = params.values.shape[:-1]
    if x.ndim < 2 or x.shape[-1] != params.spec.in_dim or x.shape[:-2] not in ((), lead):
        raise ShapeError(
            f"input has shape {x.shape}, expected (batch, {params.spec.in_dim})"
            + (f" or {(*lead, 'batch', params.spec.in_dim)}" if lead else "")
        )


def _layer_outputs(h: np.ndarray, operands, relu: bool) -> list[np.ndarray]:
    """Every layer's output for the input rows `h`.  `operands` holds one
    (transposed weight, bias) pair per layer; each bias broadcasts against
    its layer's product.  A layer is `h @ wt`, the bias added in place, a
    finite check, and then, below the output layer, relu or tanh in place."""
    hs = []
    last = len(operands) - 1
    for idx, (wt, b) in enumerate(operands):
        h = h @ wt
        h += b
        if not np.isfinite(h).all():
            raise NumericError(f"non-finite pre-activation at layer {idx}")
        if idx < last:
            if relu:
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
        hs.append(h)
    return hs


def mlp_forward_batch(params, x: np.ndarray) -> Forward:
    """Forward pass over a batch of input rows, `(batch, in)`, or `(n,
    batch, in)` per network of a `ParamStack`.  Its `.out` is `(batch,
    out)`, or `(n, batch, out)` for a `ParamStack`."""
    x = np.asarray(x, dtype=np.float64)
    _check_rows(params, x)
    layers = unflatten(params)
    operands = [(w.mT, b[..., None, :]) for w, b in layers]
    hs = [x, *_layer_outputs(x, operands, params.spec.activation == "relu")]
    return Forward(params, layers, hs)


def _reverse(fwd: Forward, upstream, param_grads: bool):
    """Reverse pass of sum_b <upstream_b, output_b>: the flat parameter
    gradient if `param_grads`, else the per-sample input gradients.  The
    parameter gradient is written layer by layer into its slices of one
    flat array, and that pass ends at the input layer's weight gradient,
    before the adjoint of the inputs."""
    upstream = np.asarray(upstream, dtype=np.float64)
    layers, hs = fwd.layers, fwd.hs
    if upstream.shape != hs[-1].shape:
        raise ShapeError(f"upstream shape {upstream.shape} != output shape {hs[-1].shape}")
    kind = fwd.spec.activation
    if param_grads:
        flat = np.empty(fwd.params.values.shape)
        grads = _layer_views(fwd.spec, flat)
    delta = upstream  # the output layer is affine
    for idx in range(len(layers) - 1, -1, -1):
        if param_grads:
            gw, gb = grads[idx]
            np.matmul(delta.mT, hs[idx], out=gw)
            np.sum(delta, axis=-2, out=gb)
            if idx == 0:
                return flat
        delta = delta @ layers[idx][0]
        if idx > 0:
            delta *= _act_deriv(kind, hs[idx])
    return delta


def mlp_grad_batch(fwd: Forward, upstream: np.ndarray):
    """Flat parameter gradient of sum_b <upstream_b, output_b> at the
    forward `fwd`, summed over the batch.  For a `ParamStack` it carries
    a leading member axis, and each member's gradient is that of its own
    output block."""
    return _reverse(fwd, upstream, param_grads=True)


def mlp_input_grad(fwd: Forward, upstream: np.ndarray):
    """Per-sample input gradients of sum_b <upstream_b, output_b> at the
    forward `fwd`, shaped like its input rows (with the member axis for a
    `ParamStack`)."""
    return _reverse(fwd, upstream, param_grads=False)


def mlp_second_grad(fwd: Forward, out_upstream: np.ndarray, in_direction: np.ndarray):
    """Parameter gradient of a bilinear form of the network Jacobian.

    For phi = sum_b <u_b, J_b v_b>, with J_b the Jacobian of the output
    w.r.t. the input at sample b of the forward `fwd`, u = `out_upstream`
    and v = `in_direction`, returns the flat d phi / d params.  For a
    `ParamStack`, u and v carry the member axis like the output.

    This is forward-over-reverse differentiation.  The forward tangent
    pass carries J v through the layers; the reverse pass then
    differentiates phi through both the primal activations and the
    tangent path, which is where the second derivative of the activation
    enters.  It is the workhorse behind losses that penalize input
    gradients of a network.
    """
    u = np.asarray(out_upstream, dtype=np.float64)
    v = np.asarray(in_direction, dtype=np.float64)
    layers, hs = fwd.layers, fwd.hs
    if u.shape != hs[-1].shape:
        raise ShapeError(f"out_upstream shape {u.shape} != output shape {hs[-1].shape}")
    if v.shape != hs[-1].shape[:-1] + hs[0].shape[-1:]:
        raise ShapeError(f"in_direction shape {v.shape} != input shape {hs[0].shape}")
    # Activation derivatives of every layer, from the layer outputs; the
    # affine output layer's are 1 and 0.
    kind, n = fwd.spec.activation, len(layers)
    dfs = [_act_deriv(kind, h) for h in hs[1:n]]
    ddfs = [_act_second(kind, h, df) for h, df in zip(hs[1:n], dfs)] + [0.0]
    dfs.append(1.0)

    # Forward tangent pass, keeping each layer's input hdot and its zdot
    # for the reverse sweep; the tangent of the output itself is unread.
    hds = [v]
    zds = []
    for idx, (w, _) in enumerate(layers):
        zds.append(hds[idx] @ w.mT)
        if idx < n - 1:
            hds.append(dfs[idx] * zds[idx])

    # Reverse pass: adjoint of the tangent output w.r.t. every node.  Only
    # the parameter gradient is returned, so the adjoints of the input
    # itself are never formed.
    flat = np.empty(fwd.params.values.shape)
    grads = _layer_views(fwd.spec, flat)
    a = u  # d phi / d hdot_L
    hbar = np.zeros_like(u)  # d phi / d h_L
    for idx in range(n - 1, -1, -1):
        gw, gb = grads[idx]
        p = a * dfs[idx]
        qz = a * ddfs[idx]
        qz *= zds[idx]
        hbar *= dfs[idx]
        qz += hbar
        np.matmul(qz.mT, hs[idx], out=gw)
        gw += p.mT @ hds[idx]
        np.sum(qz, axis=-2, out=gb)
        if idx > 0:
            w = layers[idx][0]
            a = p @ w
            hbar = qz @ w
    return flat


def finite_diff_check(f, at: ParamVector, step: float, rng=None, max_coords: int = 128) -> float:
    """Compare a function's reported gradient against central differences.

    `f` maps a ParamVector to (scalar value, flat gradient array).  All
    coordinates are probed when there are at most `max_coords`; otherwise
    a random subset of at least 64 coordinates is sampled.  The returned
    error is max_i |g_i - fd_i| scaled by the largest gradient magnitude
    seen (floor 1), which keeps tiny-gradient coordinates from blowing up
    the ratio with finite-difference noise.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    _, grad = f(at)
    grad = np.asarray(grad, dtype=np.float64).reshape(-1)
    n = at.values.size
    if n <= max_coords:
        coords = np.arange(n)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=max(64, max_coords), replace=False)
    fds = np.empty(coords.size)
    for j, i in enumerate(coords):
        bumped = at.values.copy()
        bumped[i] += step
        hi, _ = f(ParamVector(at.spec, bumped))
        bumped[i] -= 2.0 * step
        lo, _ = f(ParamVector(at.spec, bumped))
        fds[j] = (hi - lo) / (2.0 * step)
    diff = np.abs(grad[coords] - fds)
    scale = max(1.0, np.abs(grad[coords]).max(initial=0.0), np.abs(fds).max(initial=0.0))
    return float(diff.max(initial=0.0) / scale)
