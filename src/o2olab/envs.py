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
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, NumericError, ShapeError
from .seeding import as_generator, stream

STEP_SIZE = 0.1
REACH2D_GOAL = np.zeros(2)
REACH2D_SUCCESS_RADIUS = 0.1
GATE1D_GOAL = 0.8

# Count of env_step calls whose action had to be clipped into bounds.
_clip_warnings = 0


def clip_warning_count() -> int:
    return _clip_warnings


@dataclass(frozen=True)
class EnvSpec:
    """Static description of one environment."""

    name: str
    state_dim: int
    action_dim: int
    action_low: np.ndarray
    action_high: np.ndarray
    horizon: int
    reward_kind: str  # "dense" | "sparse-binary"
    discount: float
    reward_bound: float

    def __post_init__(self):
        object.__setattr__(self, "action_low", np.asarray(self.action_low, dtype=np.float64))
        object.__setattr__(self, "action_high", np.asarray(self.action_high, dtype=np.float64))
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")
        if not (np.all(np.isfinite(self.action_low)) and np.all(np.isfinite(self.action_high))):
            raise ValueError("action bounds must be finite")
        if not np.all(self.action_low < self.action_high):
            raise ValueError("action bounds must satisfy low < high")


@dataclass
class Transition:
    s: np.ndarray
    a: np.ndarray
    r: float
    s2: np.ndarray
    done: bool
    traj_id: int
    t: int
    mc_return: float = np.nan
    w: float = np.nan


@dataclass
class Trajectory:
    """One episode with its Monte-Carlo value at every step."""

    transitions: list[Transition]
    mc_returns: np.ndarray
    ret: float
    success: bool


@dataclass
class Batch:
    """Stacked transition arrays, the unit consumed by every loss."""

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


def stack_batch(transitions: list[Transition]) -> Batch:
    return Batch(
        s=np.stack([tr.s for tr in transitions]),
        a=np.stack([tr.a for tr in transitions]),
        r=np.array([tr.r for tr in transitions]),
        s2=np.stack([tr.s2 for tr in transitions]),
        done=np.array([float(tr.done) for tr in transitions]),
        w=np.array([tr.w for tr in transitions]),
        mc=np.array([tr.mc_return for tr in transitions]),
    )


_ENV_BUILDERS = {}


def _register(name):
    def deco(fn):
        _ENV_BUILDERS[name] = fn
        return fn

    return deco


@_register("reach2d")
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
    )


@_register("gate1d")
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
    )


def make_env_spec(name: str) -> EnvSpec:
    if name not in _ENV_BUILDERS:
        raise ValueError(f"unknown environment {name!r}; known: {sorted(_ENV_BUILDERS)}")
    return _ENV_BUILDERS[name]()


def env_reset(spec: EnvSpec, seed: int) -> np.ndarray:
    """Draw an initial state; deterministic per seed."""
    rng = as_generator(seed)
    if spec.name == "reach2d":
        return rng.uniform(-1.0, 1.0, size=2)
    if spec.name == "gate1d":
        return rng.uniform(-0.7, -0.3, size=1)
    raise ValueError(f"unknown environment {spec.name!r}")


def env_step(spec: EnvSpec, state: np.ndarray, action: np.ndarray):
    """Deterministic dynamics.  Out-of-bounds actions are clipped (counted)."""
    global _clip_warnings
    action = np.asarray(action, dtype=np.float64)
    if not np.all(np.isfinite(action)):
        raise NumericError("non-finite action")
    if action.shape != (spec.action_dim,):
        raise ShapeError(f"action shape {action.shape}, expected ({spec.action_dim},)")
    clipped = np.clip(action, spec.action_low, spec.action_high)
    if np.any(clipped != action):
        _clip_warnings += 1
    state = np.asarray(state, dtype=np.float64)

    if spec.name == "reach2d":
        nxt = np.clip(state + STEP_SIZE * clipped, -1.0, 1.0)
        reward = -float(np.linalg.norm(nxt - REACH2D_GOAL))
        return nxt, reward, False
    if spec.name == "gate1d":
        nxt = np.clip(state + STEP_SIZE * clipped, -1.0, 1.0)
        done = bool(nxt[0] >= GATE1D_GOAL)
        reward = 0.0 if done else -1.0
        return nxt, reward, done
    raise ValueError(f"unknown environment {spec.name!r}")


def trajectory_success(spec: EnvSpec, transitions: list[Transition]) -> bool:
    if spec.reward_kind == "sparse-binary":
        return bool(transitions[-1].done)
    final = transitions[-1].s2
    return bool(np.linalg.norm(final - REACH2D_GOAL) <= REACH2D_SUCCESS_RADIUS)


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
        if self.spec.name == "reach2d":
            ctrl = self.gain * (REACH2D_GOAL - state)
        elif self.spec.name == "gate1d":
            ctrl = self.gain * (np.array([GATE1D_GOAL + STEP_SIZE]) - state)
        else:
            raise ValueError(f"no scripted controller for {self.spec.name!r}")
        if self.noise_std > 0.0:
            ctrl = ctrl + self.noise_std * rng.standard_normal(self.spec.action_dim)
        return np.clip(ctrl, self.spec.action_low, self.spec.action_high)


class UniformPolicy:
    """Uniform-random actions over the action box."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec

    def act(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.spec.action_low, self.spec.action_high)


def rollout_episode(spec: EnvSpec, act_fn, rng: np.random.Generator, traj_id: int = 0):
    """Run one episode; ends at a terminal step or at the horizon."""
    state = env_reset(spec, rng)
    transitions = []
    for t in range(spec.horizon):
        action = act_fn(state, rng)
        nxt, reward, done = env_step(spec, state, action)
        transitions.append(
            Transition(s=state, a=np.asarray(action, dtype=np.float64), r=reward, s2=nxt, done=done, traj_id=traj_id, t=t)
        )
        state = nxt
        if done:
            break
    return transitions


def _finish_trajectory(spec: EnvSpec, transitions: list[Transition]) -> Trajectory:
    rewards = np.array([tr.r for tr in transitions])
    mc = np.empty_like(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + spec.discount * acc
        mc[i] = acc
    for tr, v in zip(transitions, mc):
        tr.mc_return = float(v)
    return Trajectory(
        transitions=transitions,
        mc_returns=mc,
        ret=float(mc[0]),
        success=trajectory_success(spec, transitions),
    )


@dataclass
class Dataset:
    """Immutable offline experience with outcome labels."""

    env: EnvSpec
    trajectories: list[Trajectory]
    # Stacked views over all transitions, in trajectory order.
    s: np.ndarray = field(init=False)
    a: np.ndarray = field(init=False)
    r: np.ndarray = field(init=False)
    s2: np.ndarray = field(init=False)
    done: np.ndarray = field(init=False)
    mc: np.ndarray = field(init=False)
    w_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.trajectories:
            raise ValueError("dataset needs at least one trajectory")
        if self.env.reward_kind == "sparse-binary":
            outcomes = np.array([float(tr.success) for tr in self.trajectories])
        else:
            outcomes = np.array([tr.ret for tr in self.trajectories])
        lo, hi = outcomes.min(), outcomes.max()
        if hi > lo:
            per_traj_w = (outcomes - lo) / (hi - lo)
        else:
            # A constant dataset gives no ranking signal; trust it fully.
            per_traj_w = np.ones_like(outcomes)
        all_tr = []
        ws = []
        for traj, wv in zip(self.trajectories, per_traj_w):
            for tr in traj.transitions:
                tr.w = float(wv)
                all_tr.append(tr)
                ws.append(wv)
        self._transitions = all_tr
        self.s = np.stack([tr.s for tr in all_tr])
        self.a = np.stack([tr.a for tr in all_tr])
        self.r = np.array([tr.r for tr in all_tr])
        self.s2 = np.stack([tr.s2 for tr in all_tr])
        self.done = np.array([float(tr.done) for tr in all_tr])
        self.mc = np.array([tr.mc_return for tr in all_tr])
        self.w_labels = np.array(ws, dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self._transitions)

    def transitions(self) -> list[Transition]:
        return self._transitions

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
    trajectories = []
    for k in range(n_trajectories):
        transitions = rollout_episode(spec, behavior.act, rng, traj_id=k)
        trajectories.append(_finish_trajectory(spec, transitions))
    return Dataset(env=spec, trajectories=trajectories)


class ReplayBuffer:
    """FIFO transition store; unbounded when capacity is None."""

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self._items: list[Transition] = []
        self._next = 0

    @property
    def size(self) -> int:
        return len(self._items)

    def push(self, transition: Transition):
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(transition)
        else:
            self._items[self._next] = transition
            self._next = (self._next + 1) % self.capacity

    def sample(self, size: int, rng: np.random.Generator) -> list[Transition]:
        if not self._items:
            raise ValueError("cannot sample from an empty replay buffer")
        idx = rng.integers(0, len(self._items), size=size)
        return [self._items[i] for i in idx]


def mixed_batch(
    dataset: Dataset,
    buffer: ReplayBuffer | None,
    batch_size: int,
    mix: float,
    seed,
) -> list[Transition]:
    """floor(mix * batch_size) dataset samples, remainder from the buffer."""
    if batch_size < 2:
        raise ValueError("batch_size must be at least 2")
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    rng = as_generator(seed)
    n_data = int(np.floor(mix * batch_size))
    n_buf = batch_size - n_data
    if n_data > 0 and dataset.size == 0:
        raise ValueError("dataset share requested but dataset is empty")
    if n_buf > 0 and (buffer is None or buffer.size == 0):
        raise ValueError("buffer share requested but replay buffer is empty")
    out = []
    if n_data > 0:
        idx = rng.integers(0, dataset.size, size=n_data)
        items = dataset.transitions()
        out.extend(items[i] for i in idx)
    if n_buf > 0:
        out.extend(buffer.sample(n_buf, rng))
    return out


# ----------------------------------------------------------------------
# On-disk format: one JSON header line, then one JSON object per
# transition with keys s, a, r, s2, done, traj, t.  Floats use 17
# significant digits so that save -> load is value-identical.
# ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt(x) for x in v) + "]"


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
    for tr in dataset.transitions():
        lines.append(
            '{"s": %s, "a": %s, "r": %s, "s2": %s, "done": %s, "traj": %d, "t": %d}'
            % (
                _fmt_vec(tr.s),
                _fmt_vec(tr.a),
                _fmt(tr.r),
                _fmt_vec(tr.s2),
                "true" if tr.done else "false",
                tr.traj_id,
                tr.t,
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset(path) -> Dataset:
    """Parse a dataset file; Monte-Carlo returns and outcome labels are
    recomputed from rewards, so the file never stores them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    offset = 0
    records = []
    for lineno, line in enumerate(raw.split(b"\n"), start=1):
        stripped = line.strip()
        if stripped:
            try:
                records.append((lineno, offset, json.loads(stripped.decode("utf-8"))))
            except (ValueError, UnicodeDecodeError) as exc:
                raise FormatError(f"malformed record: {exc}", line=lineno, offset=offset) from None
        offset += len(line) + 1
    if not records:
        raise FormatError("empty dataset file", line=1, offset=0)

    _, _, header = records[0]
    for key in ("env", "state_dim", "action_dim", "gamma", "count"):
        if key not in header:
            raise FormatError(f"header missing key {key!r}", line=1, offset=0)
    spec = make_env_spec(header["env"])
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

    by_traj: dict[int, list[Transition]] = {}
    order: list[int] = []
    for lineno, off, rec in body:
        try:
            tr = Transition(
                s=np.asarray(rec["s"], dtype=np.float64),
                a=np.asarray(rec["a"], dtype=np.float64),
                r=float(rec["r"]),
                s2=np.asarray(rec["s2"], dtype=np.float64),
                done=bool(rec["done"]),
                traj_id=int(rec["traj"]),
                t=int(rec["t"]),
            )
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed record: {exc}", line=lineno, offset=off) from None
        if tr.s.shape != (spec.state_dim,) or tr.a.shape != (spec.action_dim,):
            raise ShapeError(f"transition dims do not match header (line {lineno})")
        if tr.traj_id not in by_traj:
            by_traj[tr.traj_id] = []
            order.append(tr.traj_id)
        by_traj[tr.traj_id].append(tr)

    trajectories = []
    for tid in order:
        transitions = sorted(by_traj[tid], key=lambda tr: tr.t)
        trajectories.append(_finish_trajectory(spec, transitions))
    return Dataset(env=spec, trajectories=trajectories)
