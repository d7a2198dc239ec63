"""Synthetic control environments, offline datasets, and replay buffers.

Two built-in tasks stand in for large robotics benchmarks at desk scale:

* ``reach2d`` -- a 2-D point mass with dense negative-distance reward.
  Actions are velocity commands, scaled by `STEP_SIZE` per step.
* ``gate1d`` -- a 1-D sparse task: -1 reward per step until the agent
  crosses the goal gate, at which point the episode terminates.

Datasets carry per-trajectory Monte-Carlo returns and a per-transition
outcome label in [0, 1]: the min-max normalized trajectory outcome
(discounted return for dense tasks, success flag for sparse ones), so
that label 1 always marks the best outcome present in the data.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FormatError, NumericError, ShapeError
from .seeding import as_generator, stream

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

    `w` (outcome label) and `mc` (Monte-Carlo return) are NaN for rows
    that do not come from a `Dataset`.
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    done: np.ndarray
    w: np.ndarray
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
    nxt = np.clip(state + STEP_SIZE * action, -1.0, 1.0)
    d = nxt - REACH2D_GOAL
    # Row-wise vecdot rounds exactly like the 1-D np.linalg.norm; neither
    # (d * d).sum(1) nor norm(axis=1) does.
    return nxt, -np.sqrt(np.vecdot(d, d)), np.zeros(nxt.shape[0], dtype=bool)


def _gate1d_reset(rng):
    return rng.uniform(-0.7, -0.3, size=1)


def _gate1d_dynamics(state, action):
    nxt = np.clip(state + STEP_SIZE * action, -1.0, 1.0)
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


def env_reset(spec: EnvSpec, seed: int) -> np.ndarray:
    """Draw an initial state; deterministic per seed."""
    return spec.reset(as_generator(seed))


def env_step(spec: EnvSpec, state: np.ndarray, action: np.ndarray):
    """Deterministic dynamics for one `(d,)` state or for `(n, d)` rows.

    One state gives (next state, float reward, bool done); rows give
    (next states, rewards, dones) as arrays of n rows.  Out-of-bounds
    actions are clipped, and each clipped row is counted.
    """
    global _clip_warnings
    state = np.asarray(state, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64)
    single = state.ndim == 1
    if not (single or state.ndim == 2) or state.shape[-1] != spec.state_dim:
        raise ShapeError(
            f"state shape {state.shape}, expected ({spec.state_dim},) or (n, {spec.state_dim})"
        )
    expected = (spec.action_dim,) if single else (state.shape[0], spec.action_dim)
    if action.shape != expected:
        raise ShapeError(f"action shape {action.shape}, expected {expected}")
    finite = np.isfinite(action)
    if not finite.all():
        where = "" if single else f" in row {np.argmin(finite.all(axis=1))}"
        raise NumericError(f"non-finite action{where}")
    clipped = np.clip(action, spec.action_low, spec.action_high)
    out_of_bounds = clipped != action
    if out_of_bounds.any():
        _clip_warnings += int(np.count_nonzero(out_of_bounds.any(axis=-1)))
    if not single:
        return spec.dynamics(state, clipped)
    nxt, reward, done = spec.dynamics(state[None, :], clipped[None, :])
    return nxt[0], float(reward[0]), bool(done[0])


class ScriptedPolicy:
    """Saturating proportional controller plus Gaussian action noise.

    With moderate `noise_std` this is the "noisy expert" used to generate
    offline data; with zero gain it degrades to a pure noise policy.
    """

    def __init__(self, spec: EnvSpec, noise_std: float = 0.0, gain: float = 5.0):
        self.spec = spec
        self.noise_std = noise_std
        self.gain = gain

    def act(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        ctrl = self.gain * (self.spec.setpoint - state)
        if self.noise_std > 0.0:
            ctrl = ctrl + self.noise_std * rng.standard_normal(self.spec.action_dim)
        return np.clip(ctrl, self.spec.action_low, self.spec.action_high)


class UniformPolicy:
    """Uniform-random actions over the action box."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec

    def act(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.spec.action_low, self.spec.action_high)


def rollout_episode(spec: EnvSpec, act_fn, rng: np.random.Generator) -> Batch:
    """Run one episode; ends at a terminal step or at the horizon.  The
    batch holds its transitions in step order, with `w` and `mc` NaN."""
    buffer = ReplayBuffer(spec.state_dim, spec.action_dim)
    state = env_reset(spec, rng)
    for _ in range(spec.horizon):
        action = np.asarray(act_fn(state, rng), dtype=np.float64)
        nxt, reward, done = env_step(spec, state, action)
        buffer.push(state, action, reward, nxt, done)
        state = nxt
        if done:
            break
    return buffer.rows()


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
        self.mc = np.empty(self.r.shape[0])
        for lo, hi in zip(starts, ends):
            acc = 0.0
            for i in range(hi - 1, lo - 1, -1):
                acc = self.r[i] + self.env.discount * acc
                self.mc[i] = acc
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
        return Batch(
            s=self.s[idx],
            a=self.a[idx],
            r=self.r[idx],
            s2=self.s2[idx],
            done=self.done[idx],
            w=self.w_labels[idx],
            mc=self.mc[idx],
        )


def generate_dataset(spec: EnvSpec, behavior, n_trajectories: int, seed: int) -> Dataset:
    """Roll out `behavior` (an object with .act(state, rng)) n times."""
    if n_trajectories < 1:
        raise ValueError("need at least one trajectory")
    rng = stream(seed, "dataset")
    episodes = [rollout_episode(spec, behavior.act, rng) for _ in range(n_trajectories)]
    rows = stack_batch(episodes)
    traj = np.repeat(np.arange(n_trajectories), [ep.size for ep in episodes])
    return Dataset(spec, rows.s, rows.a, rows.r, rows.s2, rows.done, traj)


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
        """The held rows in slot order (or the rows at `idx`), with NaN
        `w` and `mc`."""
        if idx is None:
            idx = slice(0, self.size)
        s, a, r, s2, done = (c[idx] for c in self._cols)
        n = r.shape[0]
        return Batch(s, a, r, s2, done, w=np.full(n, np.nan), mc=np.full(n, np.nan))

    def sample(self, size: int, rng: np.random.Generator) -> Batch:
        if self.size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        return self.rows(rng.integers(0, self.size, size=size))


def mixed_batch(
    dataset: Dataset, buffer: ReplayBuffer | None, batch_size: int, mix: float, seed
) -> Batch:
    """floor(mix * batch_size) dataset rows, then the remainder from the
    buffer; the dataset indices are drawn first."""
    if batch_size < 2:
        raise ValueError("batch_size must be at least 2")
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    rng = as_generator(seed)
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
# significant digits so that save -> load is value-identical.
# ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


def _step_index(traj: np.ndarray) -> np.ndarray:
    """Each row's step within its trajectory, for rows grouped by `traj`."""
    starts, ends = _trajectory_bounds(traj)
    return np.arange(traj.shape[0]) - np.repeat(starts, ends - starts)


def save_dataset(dataset: Dataset, path):
    header = (
        '{"env": %s, "state_dim": %d, "action_dim": %d, "gamma": %s, "count": %d}'
        % (
            json.dumps(dataset.env.name),
            dataset.env.state_dim,
            dataset.env.action_dim,
            _fmt(dataset.env.discount),
            dataset.size,
        )
    )
    lines = [header]
    steps = _step_index(dataset.traj)
    cols = (dataset.s, dataset.a, dataset.r, dataset.s2, dataset.done, dataset.traj, steps)
    for s, a, r, s2, done, traj, t in zip(*(c.tolist() for c in cols)):
        flag = "true" if done else "false"
        lines.append(
            '{"s": %s, "a": %s, "r": %s, "s2": %s, "done": %s, "traj": %d, "t": %d}'
            % (_fmt_vec(s), _fmt_vec(a), _fmt(r), _fmt_vec(s2), flag, traj, t)
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_RECORD_KEYS = ("s", "a", "r", "s2", "done", "traj", "t")
_JSON = json.JSONDecoder()


def _check_record(spec: EnvSpec, lineno: int, offset: int, rec):
    """Raise the error of one dataset record, naming its line, if it has
    a missing key, a value of the wrong type or a vector of the wrong
    length."""
    try:
        s, a, s2 = (np.asarray(rec[key], dtype=np.float64) for key in ("s", "a", "s2"))
        float(rec["r"]), int(rec["traj"]), int(rec["t"]), rec["done"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed record: {exc}", line=lineno, offset=offset) from None
    if (s.shape, a.shape, s2.shape) != ((spec.state_dim,), (spec.action_dim,), (spec.state_dim,)):
        raise ShapeError(f"transition dims do not match header (line {lineno})")


def _record_columns(spec: EnvSpec, body):
    """(s, a, r, s2, done, traj, t) columns of the parsed records, built
    with one array per column.  When a record is malformed, the records
    are checked one by one so that the error names the first bad line."""
    n = len(body)
    problem = "vector of the wrong length"
    try:
        recs = [rec for _, _, rec in body]
        s, a, r, s2, done, traj, t = ([rec[key] for rec in recs] for key in _RECORD_KEYS)
        widths = (spec.state_dim, spec.action_dim, spec.state_dim)
        if all(len(v) == d for col, d in zip((s, a, s2), widths) for v in col):
            s, a, s2 = (np.array(col, dtype=np.float64) for col in (s, a, s2))
            if (s.shape, a.shape, s2.shape) == tuple((n, d) for d in widths):
                return (
                    s,
                    a,
                    np.fromiter(map(float, r), np.float64, n),
                    s2,
                    np.fromiter(map(bool, done), np.float64, n),
                    np.fromiter(map(int, traj), np.int64, n),
                    np.fromiter(map(int, t), np.int64, n),
                )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        problem = str(exc)
    for lineno, offset, rec in body:
        _check_record(spec, lineno, offset, rec)
    # Every record converts on its own, but not into a column (an integer
    # beyond int64, say).
    raise FormatError(f"malformed records: {problem}")


def load_dataset(path) -> Dataset:
    """Parse a dataset file; Monte-Carlo returns and outcome labels are
    recomputed from rewards, so the file never stores them.

    The header's `gamma` must equal the environment's discount.  Records
    may come in any order; they are grouped by trajectory (in order of
    first appearance) and sorted by step.  A record with a
    missing key, a non-finite number or a vector of the wrong length is
    rejected, and so is a trajectory whose steps are not 0..n-1; each
    error names the line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    offset = 0
    records = []
    for lineno, line in enumerate(raw.split(b"\n"), start=1):
        stripped = line.strip()
        if stripped:
            try:
                text = stripped.decode("utf-8")
                value, end = _JSON.raw_decode(text)
                if end != len(text):
                    raise ValueError(f"extra data after the record at column {end + 1}")
            except (ValueError, UnicodeDecodeError) as exc:
                raise FormatError(f"malformed record: {exc}", line=lineno, offset=offset) from None
            records.append((lineno, offset, value))
        offset += len(line) + 1
    if not records:
        raise FormatError("empty dataset file", line=1, offset=0)

    _, _, header = records[0]
    for key in ("env", "state_dim", "action_dim", "gamma", "count"):
        if key not in header:
            raise FormatError(f"header missing key {key!r}", line=1, offset=0)
    spec = make_env_spec(header["env"])
    gamma = header["gamma"]
    if type(gamma) not in (int, float) or gamma != spec.discount:
        raise FormatError(
            f"header gamma {gamma!r} != environment {spec.name!r} discount {spec.discount!r}",
            line=1,
            offset=0,
        )
    if spec.state_dim != header["state_dim"] or spec.action_dim != header["action_dim"]:
        raise ShapeError(
            f"header dims ({header['state_dim']}, {header['action_dim']}) do not match "
            f"environment {spec.name!r} ({spec.state_dim}, {spec.action_dim})"
        )
    body = records[1:]
    if len(body) != int(header["count"]):
        raise FormatError(
            f"expected {header['count']} transitions, found {len(body)}; file truncated?",
            offset=len(raw),
        )

    if not body:
        raise FormatError("dataset has no transitions", line=1, offset=0)

    s, a, r, s2, done, traj, t = _record_columns(spec, body)
    finite = np.isfinite(s).all(1) & np.isfinite(a).all(1) & np.isfinite(r) & np.isfinite(s2).all(1)
    if not finite.all():
        lineno, off, _ = body[np.argmin(finite)]
        raise FormatError("non-finite number in record", line=lineno, offset=off)
    first_seen = {}
    rank = [first_seen.setdefault(tid, len(first_seen)) for tid in traj.tolist()]
    order = np.lexsort((t, rank))  # stable: trajectories by first appearance
    bad = np.flatnonzero(t[order] != _step_index(traj[order]))
    if bad.size:
        lineno, off, rec = body[order[bad[0]]]
        raise FormatError(
            f"trajectory {rec['traj']} has step {rec['t']}; steps must run 0..n-1",
            line=lineno,
            offset=off,
        )
    return Dataset(spec, s[order], a[order], r[order], s2[order], done[order], traj[order])
