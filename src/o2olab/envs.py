"""Synthetic control environments, offline datasets, and replay buffers.

Two built-in tasks stand in for large robotics benchmarks at desk scale:

* ``reach2d`` -- a 2-D point mass with dense negative-distance reward.
  Actions are velocity commands, scaled by `STEP_SIZE` per step.
* ``gate1d`` -- a 1-D sparse task: -1 reward per step until the agent
  crosses the goal gate, at which point the episode terminates.

Offline datasets come from `generate_dataset`, which rolls the scripted
behaviour out in lock step: a window of trajectories steps together as
rows of one row-wise `env_step`.  It reproduces one-at-a-time rollouts
on the seed's "dataset" stream byte for byte, because each window draws
in trajectory order, keeps only the trajectories whose draws match, and
leaves the stream where those rollouts would (see `generate_dataset`).
`env_step` takes `(n, d)` rows only, with no single-state mode; an agent
explores one `(1, d)` row at a time (`pipeline._explore`), because a
1-row matrix product is not byte-identical to the same row of a larger
one.  `rollout_episode`, one episode on such rows, is now a test
reference (`tests/test_envs.py`) that `generate_dataset` and warm start
are pinned to.

Datasets carry per-trajectory Monte-Carlo returns and a per-transition
outcome label in [0, 1]: the min-max normalized trajectory outcome
(discounted return for dense tasks, success flag for sparse ones), so
that label 1 always marks the best outcome present in the data.

Datasets live on disk as JSON lines (`save_dataset`, `load_dataset`).
Both stream the file through flat columns, so neither holds a Python
object per record, and loading refuses any record field that is not of
its JSON type instead of coercing it.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FormatError, NumericError, ShapeError
from .seeding import stream

STEP_SIZE = 0.1
REACH2D_GOAL = np.zeros(2)
GATE1D_GOAL = 0.8

# Count of transitions whose action env_step had to clip into bounds: one
# per clipped row, so a call on n rows adds up to n.
_clip_warnings = 0


def clip_warning_count() -> int:
    return _clip_warnings


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one environment, with its dynamics.

    `reset(rng)` draws an initial state; `dynamics(states, actions)` maps
    `(n, d)` rows of states and in-bounds actions to (next states,
    rewards, dones), each with n rows;
    `setpoint` is the state `ScriptedPolicy` steers towards.  Both
    functions are module-level so that a spec pickles into worker
    processes.
    """

    name: str
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int
    reward_kind: str  # "dense" | "sparse-binary"
    discount: float
    reward_bound: float
    reset: Callable[[np.random.Generator], np.ndarray]
    dynamics: Callable[[np.ndarray, np.ndarray], tuple]
    setpoint: np.ndarray

    def __post_init__(self):
        for name in ("action_low", "action_high", "setpoint"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not (np.all(np.isfinite(self.action_low)) and np.all(np.isfinite(self.action_high))):
            raise ValueError("action bounds must be finite")
        if not np.all(self.action_low < self.action_high):
            raise ValueError("action bounds must satisfy low < high")


@dataclass
class Batch:
    """Stacked transition arrays, the unit consumed by every loss.

    `mc` (Monte-Carlo return) is NaN for rows that do not come from a
    `Dataset`.
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    done: np.ndarray
    mc: np.ndarray

    @property
    def size(self) -> int:
        return self.s.shape[0]


def stack_batch(parts: list[Batch]) -> Batch:
    """Concatenate batches row-wise, in order."""
    return Batch(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Batch)))


def _reach2d_reset(rng):
    return rng.uniform(-1.0, 1.0, size=2)


def _reach2d_dynamics(state, action):
    nxt = (state + STEP_SIZE * action).clip(-1.0, 1.0)
    d = nxt - REACH2D_GOAL
    # Row-wise vecdot rounds exactly like the 1-D np.linalg.norm; neither
    # (d * d).sum(1) nor norm(axis=1) does.
    return nxt, -np.sqrt(np.vecdot(d, d)), np.zeros(nxt.shape[0], dtype=bool)


def _gate1d_reset(rng):
    return rng.uniform(-0.7, -0.3, size=1)


def _gate1d_dynamics(state, action):
    nxt = (state + STEP_SIZE * action).clip(-1.0, 1.0)
    done = nxt[:, 0] >= GATE1D_GOAL
    return nxt, np.where(done, 0.0, -1.0), done


def _reach2d_spec() -> EnvSpec:
    return EnvSpec(
        name="reach2d",
        state_dim=2,
        action_dim=2,
        action_low=np.array([-1.0, -1.0]),
        action_high=np.array([1.0, 1.0]),
        horizon=50,
        reward_kind="dense",
        discount=0.99,
        reward_bound=float(2.0 * np.sqrt(2.0)),
        reset=_reach2d_reset,
        dynamics=_reach2d_dynamics,
        setpoint=REACH2D_GOAL,
    )


def _gate1d_spec() -> EnvSpec:
    return EnvSpec(
        name="gate1d",
        state_dim=1,
        action_dim=1,
        action_low=np.array([-1.0]),
        action_high=np.array([1.0]),
        horizon=60,
        reward_kind="sparse-binary",
        discount=0.99,
        reward_bound=1.0,
        reset=_gate1d_reset,
        dynamics=_gate1d_dynamics,
        # One step past the gate, so the controller still pushes at it.
        setpoint=np.array([GATE1D_GOAL + STEP_SIZE]),
    )


_ENV_SPECS = {"reach2d": _reach2d_spec, "gate1d": _gate1d_spec}


def make_env_spec(name: str) -> EnvSpec:
    if name not in _ENV_SPECS:
        raise ValueError(f"unknown environment {name!r}; known: {sorted(_ENV_SPECS)}")
    return _ENV_SPECS[name]()


def env_reset(spec: EnvSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw an initial state from `rng`."""
    return spec.reset(rng)


def env_step(spec: EnvSpec, state: np.ndarray, action: np.ndarray):
    """Deterministic dynamics for `(n, d)` rows of states and actions;
    returns (next states, rewards, dones) as arrays of n rows.
    Out-of-bounds actions are clipped, and each clipped row is counted.
    """
    global _clip_warnings
    state = np.asarray(state, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64)
    if state.ndim != 2 or state.shape[1] != spec.state_dim:
        raise ShapeError(f"state shape {state.shape}, expected (n, {spec.state_dim})")
    expected = (state.shape[0], spec.action_dim)
    if action.shape != expected:
        raise ShapeError(f"action shape {action.shape}, expected {expected}")
    # The ndarray method is np.clip's ufunc without np.clip's wrapper calls,
    # which cost more than the clip itself on the few rows of a step.
    clipped = action.clip(spec.action_low, spec.action_high)
    out_of_bounds = clipped != action
    if out_of_bounds.any():
        # A NaN or an infinity differs from its clip, so an action that
        # equals its clip is finite.
        finite = np.isfinite(action)
        if not finite.all():
            raise NumericError(f"non-finite action in row {np.argmin(finite.all(axis=1))}")
        _clip_warnings += int(np.count_nonzero(out_of_bounds.any(axis=1)))
    return spec.dynamics(state, clipped)


class ScriptedPolicy:
    """Saturating proportional controller plus Gaussian action noise.

    With moderate `noise_std` this is the "noisy expert" used to generate
    offline data; with zero gain it degrades to a pure noise policy.
    `control` is the control law on `(n, d)` rows with their noise given.
    """

    def __init__(self, spec: EnvSpec, noise_std: float = 0.0, gain: float = 5.0):
        self.spec = spec
        self.noise_std = noise_std
        self.gain = gain

    @property
    def noisy(self) -> bool:
        """Whether each action draws `action_dim` standard normals."""
        return self.noise_std > 0.0

    def control(self, states: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
        """The action for each row of `states`, given its standard-normal
        `noise` (None when the policy is not noisy)."""
        ctrl = self.gain * (self.spec.setpoint - states)
        if self.noisy:
            ctrl = ctrl + self.noise_std * noise
        return ctrl.clip(self.spec.action_low, self.spec.action_high)


def _trajectory_bounds(traj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row and one past the last row of each run of equal ids."""
    starts = np.flatnonzero(np.r_[True, traj[1:] != traj[:-1]])
    return starts, np.r_[starts[1:], traj.shape[0]]


@dataclass
class Dataset:
    """Immutable offline experience with outcome labels.

    One row per transition.  `traj` holds each row's trajectory id; the
    rows of a trajectory are contiguous and in step order.  `mc` (the
    Monte-Carlo return from each row) and `w_labels` (each row's
    trajectory outcome, min-max normalized) are computed from these.
    """

    env: EnvSpec
    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    done: np.ndarray
    traj: np.ndarray
    mc: np.ndarray = field(init=False)
    w_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.r.shape[0] == 0:
            raise ValueError("dataset needs at least one trajectory")
        starts, ends = _trajectory_bounds(self.traj)
        if len(set(self.traj[starts].tolist())) != starts.size:
            raise ValueError("the rows of each trajectory must be contiguous")
        # Backwards by step, all trajectories at once: the k-th last rows
        # of the trajectories longer than k take one numpy step.
        self.mc = np.empty(self.r.shape[0])
        lengths = ends - starts
        acc = np.zeros(lengths.size)
        for k in range(lengths.max()):
            live = lengths > k
            rows = ends[live] - 1 - k
            acc[live] = self.r[rows] + self.env.discount * acc[live]
            self.mc[rows] = acc[live]
        if self.env.reward_kind == "sparse-binary":
            outcomes = self.done[ends - 1]  # success = terminated at the goal
        else:
            outcomes = self.mc[starts]
        lo, hi = outcomes.min(), outcomes.max()
        if hi > lo:
            per_traj_w = (outcomes - lo) / (hi - lo)
        else:
            # A constant dataset gives no ranking signal; trust it fully.
            per_traj_w = np.ones_like(outcomes)
        self.w_labels = np.repeat(per_traj_w, ends - starts)

    @property
    def size(self) -> int:
        return self.r.shape[0]

    def sample_batch(self, size: int, rng: np.random.Generator) -> Batch:
        idx = rng.integers(0, self.size, size=size)
        return Batch(*(x[idx] for x in (self.s, self.a, self.r, self.s2, self.done, self.mc)))


def generate_dataset(
    spec: EnvSpec, behavior: ScriptedPolicy, n_trajectories: int, seed: int
) -> Dataset:
    """Roll out the scripted `behavior` n times from the seed's "dataset"
    stream, in lock step.

    The result equals, field for field and signed zeros included, n
    one-at-a-time rollouts on that stream one after another.  A window
    of trajectories steps together as the rows of one row-wise
    `env_step`; each draws its reset and, when the policy is noisy, a
    full horizon of noise in trajectory order, betting that none ends
    before its horizon.  The round keeps every trajectory up to and
    including the first that ends early; when one did, it rewinds the
    stream to the round's start and redraws only what the kept
    trajectories used, so the next round starts where one-at-a-time
    rollouts would.  The window shrinks to the kept count after an early
    end and doubles after a round that keeps all its rows.
    """
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    n, horizon = n_trajectories, spec.horizon
    rng = stream(seed, "dataset")
    # Trajectory j's state after t steps sits at states[j, t], and its step
    # t's action, reward and done flag at [j, t]; `a` holds the step's noise
    # until the step writes the action over it.
    states = np.empty((n, horizon + 1, spec.state_dim))
    a = np.empty((n, horizon, spec.action_dim))
    r, done = np.empty((n, horizon)), np.empty((n, horizon))
    lengths = np.empty(n, dtype=np.int64)
    first, width = 0, n
    while first < n:
        width = min(width, n - first)
        window = slice(first, first + width)
        start = rng.bit_generator.state
        for j in range(first, first + width):
            states[j, 0] = spec.reset(rng)
            if behavior.noisy:
                rng.standard_normal(out=a[j])
        kept = _step_window(spec, behavior, *(x[window] for x in (states, a, r, done, lengths)))
        last = first + kept - 1
        if lengths[last] < horizon:
            rng.bit_generator.state = start
            for j in range(first, last + 1):
                spec.reset(rng)
                if behavior.noisy:
                    rng.standard_normal((lengths[j], spec.action_dim))
            width = kept
        else:
            width *= 2
        first += kept
    # Row j * horizon + t of the flattened step arrays is step t of
    # trajectory j, and its state is row j * (horizon + 1) + t of `states`.
    steps = np.flatnonzero(np.arange(horizon) < lengths[:, None])
    at = steps + steps // horizon
    states = states.reshape(-1, spec.state_dim)
    a = a.reshape(-1, spec.action_dim)
    traj = np.repeat(np.arange(n), lengths)
    s, s2 = states[at], states[at + 1]
    return Dataset(spec, s, a[steps], r.ravel()[steps], s2, done.ravel()[steps], traj)


def _step_window(spec, behavior, states, a, r, done, lengths) -> int:
    """Step a window of trajectories in lock step from `states[:, 0]`
    (with their noise in `a`) for up to a horizon, writing each step and
    each trajectory's length.  A trajectory that ends before its horizon
    drops every later one; returns how many trajectories are kept."""
    horizon, noisy = spec.horizon, behavior.noisy
    lengths[:] = horizon
    kept = rows = states.shape[0]
    x = states[:, 0]
    for t in range(horizon):
        action = behavior.control(x, a[:rows, t] if noisy else None)
        a[:rows, t] = action
        x, r[:rows, t], ended = env_step(spec, x, action)
        states[:rows, t + 1] = x
        done[:rows, t] = ended
        if t + 1 < horizon and ended.any():
            rows = int(np.argmax(ended))
            lengths[rows] = t + 1
            kept = rows + 1
            if rows == 0:
                break
            x = x[:rows]
    return kept


class ReplayBuffer:
    """FIFO ring of transition arrays; unbounded when capacity is None.

    Push number k writes row k % capacity, so once full each push
    replaces the oldest row.  Storage starts small and doubles as rows
    are added, up to `capacity`.
    """

    def __init__(self, state_dim: int, action_dim: int, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        rows = 64 if capacity is None else min(capacity, 64)
        # s, a, r, s2, done
        shapes = ((state_dim,), (action_dim,), (), (state_dim,), ())
        self._cols = [np.empty((rows, *shape)) for shape in shapes]
        self._pushes = 0

    @property
    def size(self) -> int:
        return self._pushes if self.capacity is None else min(self._pushes, self.capacity)

    def push(self, s, a, r, s2, done):
        row = self._pushes if self.capacity is None else self._pushes % self.capacity
        if row == self._cols[2].shape[0]:
            grown = 2 * row if self.capacity is None else min(2 * row, self.capacity)
            self._cols = [np.resize(c, (grown, *c.shape[1:])) for c in self._cols]
        for col, value in zip(self._cols, (s, a, r, s2, done)):
            col[row] = value
        self._pushes += 1

    def rows(self, idx=None) -> Batch:
        """The held rows in slot order (or the rows at `idx`), with NaN `mc`."""
        idx = slice(0, self.size) if idx is None else idx
        cols = [c[idx] for c in self._cols]
        return Batch(*cols, mc=np.full(len(cols[2]), np.nan))

    def sample(self, size: int, rng: np.random.Generator) -> Batch:
        if self.size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        return self.rows(rng.integers(0, self.size, size=size))


def mixed_batch(
    dataset: Dataset, buffer: ReplayBuffer | None, batch_size: int, mix: float,
    rng: np.random.Generator,
) -> Batch:
    """floor(mix * batch_size) dataset rows, then the remainder from the
    buffer; the dataset indices are drawn first."""
    if batch_size < 2:
        raise ValueError("batch_size must be at least 2")
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    n_data = int(np.floor(mix * batch_size))
    n_buf = batch_size - n_data
    if n_buf > 0 and (buffer is None or buffer.size == 0):
        raise ValueError("buffer share requested but replay buffer is empty")
    parts = []
    if n_data > 0:
        parts.append(dataset.sample_batch(n_data, rng))
    if n_buf > 0:
        parts.append(buffer.sample(n_buf, rng))
    return stack_batch(parts)


# ----------------------------------------------------------------------
# On-disk format: one JSON header line, then one JSON object per
# transition with keys s, a, r, s2, done, traj, t.  Floats use 17
# significant digits so that save -> load is value-identical.  Both
# directions stream, holding no Python object per record: save formats
# `_CHUNK_RECORDS` records at a time, and load appends each record to
# flat typed columns.
# ----------------------------------------------------------------------

_CHUNK_RECORDS = 256
_NUMBER_TYPES = frozenset((int, float))
_HEADER_TYPES = {
    "env": ({str}, "string"),
    "state_dim": ({int}, "integer"),
    "action_dim": ({int}, "integer"),
    "gamma": (_NUMBER_TYPES, "number"),
    "count": ({int}, "integer"),
}
_RECORD_KEYS = frozenset(("s", "a", "r", "s2", "done", "traj", "t"))
# Save writes -0.0 as `-0`; reading that as the integer 0 would drop the sign.
_JSON = json.JSONDecoder(parse_int=lambda text: -0.0 if text == "-0" else int(text))


def _step_index(traj: np.ndarray) -> np.ndarray:
    """Each row's step within its trajectory, for rows grouped by `traj`."""
    starts, ends = _trajectory_bounds(traj)
    return np.arange(traj.shape[0]) - np.repeat(starts, ends - starts)


def save_dataset(dataset: Dataset, path):
    env = dataset.env
    sv, av = ("[" + ", ".join(["%.17g"] * d) + "]" for d in (env.state_dim, env.action_dim))
    record = f'{{"s": {sv}, "a": {av}, "r": %.17g, "s2": {sv}, "done": %s, "traj": %d, "t": %d}}\n'
    columns = (dataset.done, dataset.traj, _step_index(dataset.traj))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '{"env": %s, "state_dim": %d, "action_dim": %d, "gamma": %.17g, "count": %d}\n'
            % (json.dumps(env.name), env.state_dim, env.action_dim, env.discount, dataset.size)
        )
        for lo in range(0, dataset.size, _CHUNK_RECORDS):
            at = slice(lo, lo + _CHUNK_RECORDS)
            numbers = np.column_stack((dataset.s[at], dataset.a[at], dataset.r[at], dataset.s2[at]))
            rows = zip(numbers.tolist(), *(c[at].tolist() for c in columns))
            text = [record % (*x, "true" if d else "false", i, k) for x, d, i, k in rows]
            fh.write("".join(text))


def _header_spec(header, lineno: int, offset: int) -> tuple[EnvSpec, int]:
    """The environment and the record count that a dataset header declares."""
    if type(header) is not dict:
        raise FormatError("the header is not a JSON object", line=lineno, offset=offset)
    for key, (kinds, kind) in _HEADER_TYPES.items():
        if key not in header:
            raise FormatError(f"header missing key {key!r}", line=lineno, offset=offset)
        if type(header[key]) not in kinds:
            message = f"header {key} {header[key]!r} is not a JSON {kind}"
            raise FormatError(message, line=lineno, offset=offset)
    spec = make_env_spec(header["env"])
    if header["gamma"] != spec.discount:
        message = f"header gamma {header['gamma']!r} != environment {spec.name!r} discount"
        raise FormatError(f"{message} {spec.discount!r}", line=lineno, offset=offset)
    if spec.state_dim != header["state_dim"] or spec.action_dim != header["action_dim"]:
        raise ShapeError(
            f"header dims ({header['state_dim']}, {header['action_dim']}) do not match "
            f"environment {spec.name!r} ({spec.state_dim}, {spec.action_dim})"
        )
    return spec, header["count"]


def _record_numbers(rec, spec: EnvSpec) -> list:
    """One record's s, a, r and s2 as one list of finite numbers, once
    each field has its JSON type: lists of numbers of the header's widths
    for s, a and s2, a number for r, a bool for done and integers for
    traj and t."""
    if type(rec) is not dict or not rec.keys() >= _RECORD_KEYS:
        raise ValueError(f"not an object with keys {sorted(_RECORD_KEYS)}")
    for key, width in (("s", spec.state_dim), ("a", spec.action_dim), ("s2", spec.state_dim)):
        if type(rec[key]) is not list:
            raise ValueError(f"{key} {rec[key]!r} is not a JSON list")
        if len(rec[key]) != width:
            raise ShapeError(f"{key} has {len(rec[key])} entries, the header gives {width}")
    if type(rec["done"]) is not bool:
        raise ValueError(f"done {rec['done']!r} is not a JSON bool")
    for key in ("traj", "t"):
        if type(rec[key]) is not int:
            raise ValueError(f"{key} {rec[key]!r} is not a JSON integer")
    numbers = [*rec["s"], *rec["a"], rec["r"], *rec["s2"]]
    if not _NUMBER_TYPES.issuperset(map(type, numbers)):
        raise ValueError("s, a, r and s2 must hold JSON numbers")
    if not all(map(math.isfinite, numbers)):
        raise ValueError("non-finite number")
    return numbers


def load_dataset(path) -> Dataset:
    """Parse a dataset file; Monte-Carlo returns and outcome labels are
    recomputed from rewards, so the file never stores them.

    The file is read a line at a time, and each record's fields go
    straight into flat typed columns.  Header entries must have their
    JSON types, and `gamma` must equal the environment's discount.  A
    record with a missing key, a value of the wrong JSON type, a
    non-finite number or a vector of the wrong length ends the read at
    its line, so the first faulty line is the one reported.  After the
    last record, the record count must match the header's, no step may
    reach the environment's horizon, and each trajectory's steps must run
    0..n-1; a step fault names the earliest line that breaks it.
    Records may come in any order: they are grouped by trajectory (in
    order of first appearance) and sorted by step.
    """
    header, offset = None, 0
    # Per record: its s, a, r and s2 numbers, done, traj, t, line and byte offset.
    values, done, traj, t, lines, offsets = (array(code) for code in "ddqqqq")
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            here, offset = offset, offset + len(raw)
            text = raw.strip()
            if not text:
                continue
            try:
                text = text.decode("utf-8")
                rec, end = _JSON.raw_decode(text)
                if end != len(text):
                    raise ValueError(f"extra data after the record at column {end + 1}")
            except ValueError as exc:
                raise FormatError(f"malformed record: {exc}", line=lineno, offset=here) from None
            if header is None:
                header = lineno, here
                spec, count = _header_spec(rec, lineno, here)
                continue
            try:
                values.extend(_record_numbers(rec, spec))
                traj.append(rec["traj"])
                t.append(rec["t"])
            except ShapeError as exc:
                raise ShapeError(f"{exc} (line {lineno})") from None
            except (ValueError, OverflowError) as exc:
                raise FormatError(f"malformed record: {exc}", line=lineno, offset=here) from None
            done.append(rec["done"])
            lines.append(lineno)
            offsets.append(here)
    if header is None:
        raise FormatError("empty dataset file", line=1, offset=0)
    if len(done) != count:
        message = f"expected {count} transitions, found {len(done)}; file truncated?"
        raise FormatError(message, offset=offset)
    if not done:
        raise FormatError("dataset has no transitions", line=header[0], offset=header[1])

    traj, t = np.frombuffer(traj, np.int64), np.frombuffer(t, np.int64)
    late = np.flatnonzero(t >= spec.horizon)
    if late.size:
        i = late[0]  # records are in file order
        message = f"step {t[i]} reaches the {spec.name} horizon of {spec.horizon} steps"
        raise FormatError(message, line=lines[i], offset=offsets[i])
    _, first, inverse = np.unique(traj, return_index=True, return_inverse=True)
    order = np.lexsort((t, first[inverse]))  # stable: trajectories by first appearance
    bad = order[t[order] != _step_index(traj[order])]
    if bad.size:
        i = bad[np.argmin(np.frombuffer(lines, np.int64)[bad])]
        message = f"trajectory {traj[i]} has step {t[i]}; steps must run 0..n-1"
        raise FormatError(message, line=lines[i], offset=offsets[i])
    sd, ad = spec.state_dim, spec.action_dim
    rows = np.frombuffer(values).reshape(len(done), -1)
    cuts = (slice(sd), slice(sd, sd + ad), sd + ad, slice(sd + ad + 1, None))
    s, a, r, s2 = (rows[order, cut] for cut in cuts)
    return Dataset(spec, s, a, r, s2, np.frombuffer(done)[order], traj[order])
