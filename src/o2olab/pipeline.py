"""Offline pre-training, warm start, online fine-tuning, evaluation.

A run is fully determined by (config, seed): every random draw comes
from a named stream (see `seeding`), evaluation uses per-step derived
streams so it never perturbs training, and checkpoints carry the
optimizer buffers and stream states needed to resume an offline run
bit-exactly.

Both training phases run through one phase runner, the only step loop:
per step it draws one batch, calls the algorithm's update once and moves
the critic targets one Polyak step; it owns the evaluations, metric rows
and the "<phase> step N" prefix of a numeric abort.  Warm start and the
online phase act through one exploring loop, `_explore`, on `(1, d)`
state rows: warm start takes its first steps, and each online batch
follows one of its steps.

The plain soft actor-critic trainer and the score-matched one share a
single code path: the regularized critic loss with weight zero skips
the regularizer entirely, so the two produce bit-identical parameter
trajectories given the same seed.

A config is checked as it loads, so a bad value fails before any file
is written: value types (list entries too), finite floats, section
ranges, hidden widths and activation names.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import blobio, seeding
from .agents import (
    LOG_ENTROPY_COEF_MAX,
    LossParams,
    awr_policy_loss,
    calql_penalty,
    cql_penalty,
    entropy_coef_update,
    iql_losses,
    sac_critic_loss,
    sac_policy_loss,
    smac_critic_loss,
    td3_critic_loss,
    td3_losses,
    td3bc_policy_loss,
)
from .envs import (
    Dataset,
    EnvSpec,
    ReplayBuffer,
    env_reset,
    env_step,
    make_env_spec,
    mixed_batch,
)
from .errors import ConfigError, FormatError, NumericError
from .networks import (
    CriticEnsemble,
    GaussianPolicy,
    ScaleNet,
    make_critic_ensemble,
    make_policy,
    make_scale_net,
)
from .numkit import ACTIVATIONS, ParamStack, ParamVector, spec_from_header, spec_header
from .optim import OptState, init_opt_state, optimizer_step, polyak_update
from .tables import write_table

AGENT_MAGIC = b"SMACAC02"

OFFLINE_ALGS = ("smac", "sac", "cql", "calql", "iql", "td3bc")
ONLINE_ALGS = ("sac", "td3", "td3bc", "awr")
TD3_EXPLORE_STD = 0.1
# Name of the stacked critic optimizer state in `AgentCheckpoint.opt_states`.
CRITIC_OPT = "critics"


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkConfig:
    critic_hidden: tuple = (64, 64)
    critic_activation: str = "tanh"
    n_critics: int = 2
    policy_hidden: tuple = (64, 64)
    policy_activation: str = "relu"
    scale_hidden: tuple = (32, 32)
    scale_activation: str = "relu"
    value_hidden: tuple = (64, 64)
    value_activation: str = "relu"

    def __post_init__(self):
        if self.n_critics < 2:
            raise ConfigError("networks.n_critics must be at least 2")
        for net in ("critic", "policy", "scale", "value"):
            _check_mlp("networks", self, f"{net}_")


@dataclass(frozen=True)
class OptimConfig:
    critic_lr: float = 3e-4
    policy_lr: float = 1e-4
    scale_lr: float = 1e-4
    value_lr: float = 3e-4
    entropy_lr: float = 3e-4
    target_update_rate: float = 0.005

    def __post_init__(self):
        for name in ("critic_lr", "policy_lr", "scale_lr", "value_lr", "entropy_lr"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"optim.{name} must be positive")
        if not 0.0 < self.target_update_rate <= 1.0:
            raise ConfigError("optim.target_update_rate must lie in (0, 1]")


@dataclass(frozen=True)
class DiffusionConfig:
    steps: int = 4000
    batch: int = 128
    lr: float = 1e-3
    n_steps: int = 32
    hidden: tuple = (64, 64)
    k_embed_dim: int = 8
    activation: str = "relu"

    def __post_init__(self):
        for name in ("steps", "batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"diffusion.{name} must be positive")
        if not self.lr > 0.0:
            raise ConfigError("diffusion.lr must be positive")
        if self.n_steps < 2:
            raise ConfigError("diffusion.n_steps must be at least 2")
        if self.k_embed_dim < 0:
            raise ConfigError("diffusion.k_embed_dim must be non-negative")
        _check_mlp("diffusion", self, "")


@dataclass(frozen=True)
class DataConfig:
    n_trajectories: int = 100
    behavior_noise: float = 0.5
    behavior_gain: float = 5.0

    def __post_init__(self):
        if self.n_trajectories < 1:
            raise ConfigError("data.n_trajectories must be positive")
        if not self.behavior_noise >= 0.0:
            raise ConfigError("data.behavior_noise must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    env: str = "reach2d"
    seed: int = 0
    seeds: tuple = (0,)
    offline_alg: str = "smac"
    online_alg: str = "sac"
    optimizer: str = "muon"
    offline_steps: int = 20000
    online_steps: int = 10000
    offline_batch: int = 64
    online_batch: int = 256
    warm_start_count: int = 5000
    mix: float = 0.5
    eval_every: int = 250
    eval_episodes: int = 10
    replay_capacity: int | None = None
    rvs_enabled: bool = True
    loss: LossParams = field(default_factory=LossParams)
    networks: NetworkConfig = field(default_factory=NetworkConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        if self.offline_alg not in OFFLINE_ALGS:
            raise ConfigError(f"offline_alg must be one of {OFFLINE_ALGS}")
        if self.online_alg not in ONLINE_ALGS:
            raise ConfigError(f"online_alg must be one of {ONLINE_ALGS}")
        if self.optimizer not in ("adam", "muon"):
            raise ConfigError("optimizer must be 'adam' or 'muon'")
        if not 0.0 <= self.mix <= 1.0:
            raise ConfigError("mix must lie in [0, 1]")
        for name in ("offline_steps", "online_steps"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        for name in ("offline_batch", "online_batch", "warm_start_count", "eval_every", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        # warm_start fills the buffer before the first update, so a smaller
        # ring could never hold warm_start_count transitions.
        cap = self.replay_capacity
        if cap is not None and not (_type_matches(0, cap) and cap >= self.warm_start_count):
            raise ConfigError("replay_capacity must be null or an int >= warm_start_count")
        if self.offline_batch % 2 or self.online_batch % 2:
            raise ConfigError("batch sizes must be even (the action sampler splits them)")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds must be a non-empty list of non-negative ints")


_NESTED = {
    "loss": LossParams,
    "networks": NetworkConfig,
    "optim": OptimConfig,
    "diffusion": DiffusionConfig,
    "data": DataConfig,
}


def _type_matches(default, val) -> bool:
    """Whether a JSON value fits a field with this bool, int, float, str,
    tuple or None default.  bool is an int subclass in Python, so it is
    tested first and refused elsewhere; float fields take ints; a tuple
    field takes a list of values of its default's first entry's type; a
    field whose default is None (an optional number) takes null or a
    number."""
    if default is None:
        return val is None or _type_matches(0.0, val)
    if isinstance(default, bool):
        return isinstance(val, bool)
    if isinstance(default, int):
        return isinstance(val, int) and not isinstance(val, bool)
    if isinstance(default, float):
        return isinstance(val, (int, float)) and not isinstance(val, bool)
    if isinstance(default, str):
        return isinstance(val, str)
    if isinstance(default, tuple):
        return isinstance(val, list) and all(_type_matches(default[0], x) for x in val)
    return True


def _check_mlp(path: str, section, prefix: str):
    """Refuse a width below 1 in `section`'s `prefix`hidden field, or an
    activation numkit does not know in its `prefix`activation field."""
    hidden, act = getattr(section, prefix + "hidden"), getattr(section, prefix + "activation")
    if min(hidden, default=1) < 1:
        raise ConfigError(f"{path}.{prefix}hidden widths must be positive, got {list(hidden)}")
    if act not in ACTIVATIONS:
        raise ConfigError(f"{path}.{prefix}activation {act!r} is not one of {ACTIVATIONS}")


def _build_section(cls, data: dict, path: str):
    fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {path}")
    kwargs = {}
    for key, val in data.items():
        if not _type_matches(fields[key].default, val):
            kind = type(fields[key].default).__name__
            if kind == "NoneType":
                kind = "number or null"
            elif kind == "tuple":
                kind = f"list of {type(fields[key].default[0]).__name__}"
            raise ConfigError(f"{path}.{key} must be of type {kind}, got {val!r}")
        if isinstance(val, float) and not np.isfinite(val):
            raise ConfigError(f"{path}.{key} must be finite, got {val!r}")
        if isinstance(val, list):
            val = tuple(val)
        kwargs[key] = val
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {path} section: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    kwargs = {}
    for name, cls in _NESTED.items():
        if name in data:
            section = data.pop(name)
            if not isinstance(section, dict):
                raise ConfigError(f"{name} must be an object")
            kwargs[name] = _build_section(cls, section, name)
    top = _build_section(ExperimentConfig, data, "config")
    return replace(top, **kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as JSON values (tuples become lists)."""
    return json.loads(json.dumps(asdict(config)))


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply repeatable `--override dotted.path=value` flags; last wins."""
    out = json.loads(json.dumps(data))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        node = out
        parts = path.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object value")
        node[parts[-1]] = value
    return out


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if overrides:
        data = apply_overrides(data, overrides)
    return config_from_dict(data)


# ----------------------------------------------------------------------
# Agent state
# ----------------------------------------------------------------------


@dataclass
class AgentCheckpoint:
    """Everything needed to evaluate or resume an offline run."""

    step: int
    offline_alg: str
    env_name: str
    policy: GaussianPolicy
    critics: CriticEnsemble
    scale_net: ScaleNet | None
    value_net: ScaleNet | None
    log_entropy_coef: float
    target_entropy: float
    opt_states: dict
    rng_states: dict


# The settings of an optimizer state that a checkpoint header holds, next
# to "has_v": each one's type and the range a loaded value must lie in.
# Its moment buffers are arrays.
_POSITIVE = ("finite and positive", lambda x: 0.0 < x < np.inf)
_UNIT = ("in [0, 1)", lambda x: 0.0 <= x < 1.0)
_OPT_SETTINGS = {
    "kind": (str, "'adam' or 'muon'", lambda x: x in ("adam", "muon")),
    "learning_rate": (float, *_POSITIVE),
    "step_count": (int, "non-negative", lambda x: x >= 0),
    "beta1": (float, *_UNIT),
    "beta2": (float, *_UNIT),
    "eps": (float, *_POSITIVE),
    "momentum": (float, *_UNIT),
    "ns_iterations": (int, "at least 1", lambda x: x >= 1),
}


def _opt_header(state: OptState) -> dict:
    return {**{key: getattr(state, key) for key in _OPT_SETTINGS}, "has_v": state.v is not None}


def save_checkpoint(checkpoint: AgentCheckpoint, path):
    opt_states = sorted(checkpoint.opt_states.items())
    header = {
        "step": checkpoint.step,
        "offline_alg": checkpoint.offline_alg,
        "env_name": checkpoint.env_name,
        "log_entropy_coef": checkpoint.log_entropy_coef,
        "target_entropy": checkpoint.target_entropy,
        "policy_spec": spec_header(checkpoint.policy.params.spec),
        # The policy is always tanh-squashed; the entry keeps the format.
        "policy_squash": True,
        "critic_spec": spec_header(checkpoint.critics.member_stack.spec),
        "scale_spec": None
        if checkpoint.scale_net is None
        else spec_header(checkpoint.scale_net.params.spec),
        "value_spec": None
        if checkpoint.value_net is None
        else spec_header(checkpoint.value_net.params.spec),
        "opt_states": {name: _opt_header(st) for name, st in opt_states},
        "rng_states": checkpoint.rng_states,
    }
    arrays = {
        "action_low": checkpoint.policy.action_low,
        "action_high": checkpoint.policy.action_high,
        "policy": checkpoint.policy.params.values,
        "critics": checkpoint.critics.member_stack.values,
        "targets": checkpoint.critics.target_stack.values,
    }
    if checkpoint.scale_net is not None:
        arrays["scale"] = checkpoint.scale_net.params.values
    if checkpoint.value_net is not None:
        arrays["value"] = checkpoint.value_net.params.values
    for name, st in opt_states:
        arrays[f"opt_{name}_m"] = st.m
        if st.v is not None:
            arrays[f"opt_{name}_v"] = st.v
    blobio.write_blob(path, AGENT_MAGIC, header, arrays)


def _checked_rng_states(states) -> dict:
    """A checkpoint's `rng_states`, which must hold a `seeding.capture_state`
    snapshot of each offline stream and nothing else."""
    if not isinstance(states, dict) or sorted(states) != sorted(_OFFLINE_STREAMS):
        keys = sorted(states) if isinstance(states, dict) else states
        raise FormatError(
            f"checkpoint entry 'rng_states' is not an object keyed by {_OFFLINE_STREAMS}: {keys!r}"
        )
    for name, snapshot in states.items():
        try:
            restored = seeding.capture_state(seeding.restore_state(snapshot))
        except (AttributeError, FormatError, KeyError, OverflowError, TypeError, ValueError):
            restored = None
        if restored != snapshot:
            raise FormatError(
                f"checkpoint entry 'rng_states' holds no generator snapshot for {name!r}"
            )
    return states


def load_checkpoint(path) -> AgentCheckpoint:
    """Read a checkpoint written by `save_checkpoint`.  A non-finite array
    raises `FormatError` naming it (`blobio.read_blob` checks).  So does
    an action box unlike that of environment `env_name`, a `critics` or
    `targets` array that does not stack 2 or more critics, one per row,
    an optimizer moment `opt_<name>_m` or `_v` not shaped like array
    `<name>`, an "adam" state without `_v` or a "muon" state with one,
    and a header entry out of range: a negative `step`, a non-finite
    `target_entropy`, a `log_entropy_coef` that is not finite or whose
    exp overflows, `rng_states` that are not snapshots of the offline
    streams, a false `policy_squash`, or an optimizer setting
    `opt_states.<name>.<key>` outside `_OPT_SETTINGS`."""
    header, arrays = blobio.read_blob(path, AGENT_MAGIC)
    step = header.typed("step", int)
    if step < 0:
        raise FormatError(f"checkpoint entry 'step' is negative: {step}")
    rng_states = _checked_rng_states(header["rng_states"])
    env_name = header.typed("env_name", str)
    env = make_env_spec(env_name)
    for key in ("action_low", "action_high"):
        if not np.array_equal(arrays[key], getattr(env, key)):
            box = f"{arrays[key].tolist()} is not environment {env_name!r}'s"
            raise FormatError(f"checkpoint array {key!r} {box} {getattr(env, key).tolist()}")

    def at_most(key, top):
        value = header.typed(key, float)
        if not -np.inf < value <= top:
            raise FormatError(f"checkpoint entry {key!r} is not finite or exceeds {top}: {value}")
        return value

    def spec_of(key):
        return spec_from_header(header[key], f"checkpoint entry {key!r}")

    def net_of(key, array):
        return None if header[key] is None else ScaleNet(ParamVector(spec_of(key), arrays[array]))

    def critic_stack(array):
        values = arrays[array]
        if values.ndim != 2 or len(values) < 2:
            message = f"checkpoint array {array!r} of shape {values.shape} is not 2 or more critics"
            raise FormatError(message)
        return ParamStack(spec_of("critic_spec"), values)

    if not header.typed("policy_squash", bool):
        raise FormatError("checkpoint entry 'policy_squash' must be true, got false")
    policy = GaussianPolicy(
        params=ParamVector(spec_of("policy_spec"), arrays["policy"]),
        action_low=arrays["action_low"],
        action_high=arrays["action_high"],
    )
    opt_headers = header.typed("opt_states", dict)
    opt_states = {}
    # Every agent has a policy and a critic optimizer state.
    for name in sorted({"policy", CRITIC_OPT} | set(opt_headers)):
        oh = opt_headers.typed(name, dict)
        settings = {}
        for key, (kind, what, ok) in _OPT_SETTINGS.items():
            settings[key] = value = oh.typed(key, kind)
            if not ok(value):
                entry = f"opt_states.{name}.{key}"
                raise FormatError(f"checkpoint entry {entry!r} must be {what}, got {value!r}")
        has_v = oh.typed("has_v", bool)
        if has_v != (settings["kind"] == "adam"):
            have = f"{'has' if has_v else 'lacks'} array 'opt_{name}_v'"
            raise FormatError(f"checkpoint {settings['kind']!r} state {name!r} {have}")
        moments = {key: arrays[f"opt_{name}_{key}"] for key in (("m", "v") if has_v else ("m",))}
        for key, moment in moments.items():
            if moment.shape != arrays[name].shape:
                raise FormatError(
                    f"checkpoint array 'opt_{name}_{key}' of shape {moment.shape} does not match "
                    f"array {name!r} of shape {arrays[name].shape}"
                )
        opt_states[name] = OptState(**settings, m=moments["m"], v=moments.get("v"))
    return AgentCheckpoint(
        step=step,
        offline_alg=header.typed("offline_alg", str),
        env_name=env_name,
        policy=policy,
        critics=CriticEnsemble(critic_stack("critics"), critic_stack("targets")),
        scale_net=net_of("scale_spec", "scale"),
        value_net=net_of("value_spec", "value"),
        log_entropy_coef=at_most("log_entropy_coef", LOG_ENTROPY_COEF_MAX),
        target_entropy=at_most("target_entropy", np.finfo(np.float64).max),
        opt_states=opt_states,
        rng_states=rng_states,
    )


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def greedy_returns(policy: GaussianPolicy, env: EnvSpec, episodes: int, seed: int) -> np.ndarray:
    """Returns of greedy (mean-action) rollouts of a stack of m policies.

    `policy.params` is a `ParamStack`; the result is `(m, episodes)`.
    Returns are undiscounted episodic sums, the usual benchmark
    convention.  Every policy starts from the same `episodes` initial
    states, drawn from `seed`.  All m * episodes rollouts run in lock
    step: each time step makes one stacked `mean_action` forward over
    `(m, episodes, d)` rows and one `env_step` on the rows still running.
    A finished row keeps the state it took its last step from, and its
    action is computed but ignored: it is neither stepped nor credited
    again.  Until a row finishes, no row is masked.  Each policy's rows
    stay in their own matmul slice, so its returns do not depend on the
    rest of the stack.
    """
    if episodes < 1:
        raise ValueError("episodes must be positive")
    rng = np.random.default_rng(seed)
    starts = np.array([env_reset(env, rng) for _ in range(episodes)])
    m = len(policy.params)
    # Row i * episodes + j is policy i's episode j.
    states = np.tile(starts, (m, 1))
    returns = np.zeros(m * episodes)
    running = slice(None)  # every row, until one finishes; then their indices
    for _ in range(env.horizon):
        actions = policy.mean_action(states.reshape(m, episodes, -1)).reshape(m * episodes, -1)
        actions = np.clip(actions, env.action_low, env.action_high)
        nxt, rewards, done = env_step(env, states[running], actions[running])
        returns[running] += rewards
        if not done.any():
            states[running] = nxt
            continue
        keep = ~done
        running = np.arange(m * episodes)[running][keep]
        states[running] = nxt[keep]
        if running.size == 0:
            break
    return returns.reshape(m, episodes)


def mean_stderr(returns: np.ndarray) -> tuple[float, float]:
    """(mean, standard error) of one policy's episode returns."""
    mean = float(returns.mean())
    stderr = 0.0 if returns.size == 1 else float(returns.std(ddof=1) / np.sqrt(returns.size))
    return mean, stderr


def evaluate_policy(policy: GaussianPolicy, env: EnvSpec, episodes: int, seed: int):
    """Greedy rollouts of one policy; returns (mean return, standard
    error).  Deterministic per seed: `greedy_returns` with a stack of one."""
    one = policy.with_params(ParamStack(policy.params.spec, policy.params.values[None]))
    return mean_stderr(greedy_returns(one, env, episodes, seed)[0])


# ----------------------------------------------------------------------
# Offline pre-training
# ----------------------------------------------------------------------


_OFFLINE_STREAMS = ("batch", "policy", "bsample", "cql", "smooth")


def _init_opt_states(config: ExperimentConfig, params: dict) -> dict:
    """Fresh optimizer states under the configured rule and learning rates,
    one per entry of `params` ({state name: ParamVector or ParamStack})."""
    lr = {"policy": "policy_lr", CRITIC_OPT: "critic_lr", "scale": "scale_lr", "value": "value_lr"}
    return {
        name: init_opt_state(config.optimizer, p.values.shape, getattr(config.optim, lr[name]))
        for name, p in params.items()
    }


def _init_agent(config: ExperimentConfig, env: EnvSpec, seed: int) -> AgentCheckpoint:
    net = config.networks
    policy = make_policy(
        env.state_dim,
        env.action_low,
        env.action_high,
        net.policy_hidden,
        seeding.stream(seed, "init-policy"),
        activation=net.policy_activation,
    )
    critics = make_critic_ensemble(
        env.state_dim,
        env.action_dim,
        net.critic_hidden,
        net.n_critics,
        seeding.stream(seed, "init-critic"),
        activation=net.critic_activation,
    )
    params = {"policy": policy.params, CRITIC_OPT: critics.member_stack}
    scale_net = None
    if config.offline_alg == "smac":
        scale_net = make_scale_net(
            env.state_dim, net.scale_hidden, seeding.stream(seed, "init-scale"), net.scale_activation
        )
        params["scale"] = scale_net.params
    value_net = None
    if config.offline_alg == "iql":
        value_net = make_scale_net(
            env.state_dim, net.value_hidden, seeding.stream(seed, "init-value"), net.value_activation
        )
        params["value"] = value_net.params
    target_entropy = config.loss.target_entropy
    if target_entropy is None:
        target_entropy = -10.0 * env.action_dim
    rng_states = {
        name: seeding.capture_state(seeding.stream(seed, name)) for name in _OFFLINE_STREAMS
    }
    return AgentCheckpoint(
        step=0,
        offline_alg=config.offline_alg,
        env_name=env.name,
        policy=policy,
        critics=critics,
        scale_net=scale_net,
        value_net=value_net,
        log_entropy_coef=float(np.log(config.loss.entropy_coef)),
        target_entropy=float(target_entropy),
        opt_states=_init_opt_states(config, params),
        rng_states=rng_states,
    )


def _step_critics(agent: AgentCheckpoint, grads: np.ndarray):
    """One optimizer step of every critic member; `grads` is (n, P)."""
    stack = agent.critics.member_stack
    agent.critics.member_stack, agent.opt_states[CRITIC_OPT] = optimizer_step(
        agent.opt_states[CRITIC_OPT], stack, ParamStack(stack.spec, grads)
    )


def _step_net(agent: AgentCheckpoint, name: str, net, flat):
    """One optimizer step of `net` (a policy or scalar state net) under
    the optimizer state `name`; returns the stepped net."""
    new_params, new_state = optimizer_step(
        agent.opt_states[name], net.params, ParamVector(net.params.spec, flat)
    )
    agent.opt_states[name] = new_state
    return net.with_params(new_params)


def _sac_actor_step(config, agent, batch, coef: float, rng) -> dict:
    """Max-entropy actor update shared by smac, sac, cql and calql offline
    and sac online: policy loss, policy step, then one entropy-coefficient
    step driven by the same policy samples.  Returns its metrics."""
    ploss, pgrad, mean_logp = sac_policy_loss(agent.policy, agent.critics, batch, coef, rng)
    agent.policy = _step_net(agent, "policy", agent.policy, pgrad)
    agent.log_entropy_coef = entropy_coef_update(
        agent.log_entropy_coef, mean_logp, agent.target_entropy, config.optim.entropy_lr
    )
    return {"policy_loss": ploss, "entropy_coef": float(np.exp(agent.log_entropy_coef))}


def _td3bc_update(config, agent, batch, streams) -> dict:
    """TD3 critic step, then the behaviour-cloning-regularized actor step."""
    closs, cgrads = td3_critic_loss(
        agent.critics, agent.policy, batch, config.loss.discount, streams["smooth"]
    )
    _step_critics(agent, cgrads)
    ploss, pgrad = td3bc_policy_loss(agent.critics, agent.policy, batch, config.loss.bc_weight)
    agent.policy = _step_net(agent, "policy", agent.policy, pgrad)
    return {"critic_loss": closs, "policy_loss": ploss}


def _run_phase(config, agent, env, seed, run_id, phase, steps: range, batches, update) -> list:
    """Run the steps in `steps` of one phase (see the module docstring)
    and return its metric rows.  `batches` yields one batch per step, and
    `update(batch)` takes the algorithm's optimizer steps and returns a
    metrics dict.  The policy is evaluated before a phase that starts at
    step 0 and after every `eval_every`-th step and the last, where that
    step's metrics are logged too.  A numeric abort in step N, its batch
    draw and evaluation included, is prefixed "<phase> step N:"."""
    rows = []
    log_every = min(config.eval_every, max(steps.stop, 1))
    rate = config.optim.target_update_rate

    def evaluate(step):
        eval_seed = int(seeding.stream(seed, f"eval-{phase}-{step}").integers(0, 2**31 - 1))
        mean, err = evaluate_policy(agent.policy, env, config.eval_episodes, eval_seed)
        rows.append((run_id, phase, step, "eval_return", mean))
        rows.append((run_id, phase, step, "eval_stderr", err))

    step = steps.start
    try:
        if step == 0:
            evaluate(0)
        for step in steps:
            metrics = update(next(batches))
            critics = agent.critics
            critics.target_stack = polyak_update(critics.target_stack, critics.member_stack, rate)
            if (step + 1) % log_every == 0 or step + 1 == steps.stop:
                rows.extend((run_id, phase, step + 1, k, float(v)) for k, v in metrics.items())
                evaluate(step + 1)
    except NumericError as exc:
        raise NumericError(f"{phase} step {step}: {exc}") from None
    return rows


def _offline_update(config, agent, batch, streams, score_model):
    """One gradient step of the configured offline algorithm; returns a
    metrics dict.  The critic targets are left to the phase runner."""
    loss_cfg = config.loss
    alg = config.offline_alg
    coef = float(np.exp(agent.log_entropy_coef))
    metrics = {}

    if alg in ("smac", "sac"):
        weight = loss_cfg.score_match_weight if alg == "smac" else 0.0
        out = smac_critic_loss(
            agent.critics,
            agent.policy,
            agent.scale_net,
            score_model,
            batch,
            score_match_weight=weight,
            entropy_coef=coef,
            discount=loss_cfg.discount,
            target_rng=streams["policy"],
            action_rng=streams["bsample"],
        )
        _step_critics(agent, out.member_grads)
        if agent.scale_net is not None:
            agent.scale_net = _step_net(agent, "scale", agent.scale_net, out.scale_grad)
        metrics.update(critic_loss=out.total, td_loss=out.td_loss, sm_loss=out.sm_loss)
        metrics.update(_sac_actor_step(config, agent, batch, coef, streams["policy"]))
    elif alg in ("cql", "calql"):
        td_loss, td_grads = sac_critic_loss(
            agent.critics, agent.policy, batch, coef, loss_cfg.discount, streams["policy"]
        )
        penalty_fn = calql_penalty if alg == "calql" else cql_penalty
        penalty, pen_grads = penalty_fn(agent.critics, agent.policy, batch, streams["cql"])
        _step_critics(agent, td_grads + loss_cfg.cql_alpha * pen_grads)
        metrics.update(
            critic_loss=td_loss + loss_cfg.cql_alpha * penalty, td_loss=td_loss, penalty=penalty
        )
        metrics.update(_sac_actor_step(config, agent, batch, coef, streams["policy"]))
    elif alg == "iql":
        out = iql_losses(
            agent.critics,
            agent.value_net,
            agent.policy,
            batch,
            loss_cfg.expectile,
            loss_cfg.awr_temperature,
            loss_cfg.discount,
        )
        _step_critics(agent, out.member_grads)
        agent.value_net = _step_net(agent, "value", agent.value_net, out.value_grad)
        agent.policy = _step_net(agent, "policy", agent.policy, out.policy_grad)
        metrics.update(
            critic_loss=out.critic_loss, value_loss=out.value_loss, policy_loss=out.policy_loss
        )
    elif alg == "td3bc":
        metrics.update(_td3bc_update(config, agent, batch, streams))
    else:  # pragma: no cover - guarded by config validation
        raise ConfigError(f"unknown offline algorithm {alg!r}")
    return metrics


def offline_pretrain(
    config: ExperimentConfig,
    dataset: Dataset,
    score_model=None,
    seed: int | None = None,
    start: AgentCheckpoint | None = None,
    run_id: str = "offline",
):
    """Run the offline phase; returns (checkpoint, metrics rows).

    With `start` given, training resumes from that checkpoint's step and
    stream states and reproduces the unbroken run exactly.
    """
    env = dataset.env
    seed = config.seed if seed is None else seed
    if config.offline_alg == "smac" and score_model is None:
        raise ConfigError("the score-matched trainer needs a trained score model")
    if config.offline_alg == "calql" and np.any(np.isnan(dataset.mc)):
        raise ConfigError("calql needs Monte-Carlo returns in the dataset")

    if start is not None and start.offline_alg != config.offline_alg:
        raise ConfigError(
            f"checkpoint algorithm {start.offline_alg!r} != config {config.offline_alg!r}"
        )
    agent = _init_agent(config, env, seed) if start is None else start
    streams = {name: seeding.restore_state(agent.rng_states[name]) for name in _OFFLINE_STREAMS}
    rows = _run_phase(
        config, agent, env, seed, run_id, "offline", range(agent.step, config.offline_steps),
        iter(lambda: dataset.sample_batch(config.offline_batch, streams["batch"]), None),
        lambda batch: _offline_update(config, agent, batch, streams, score_model),
    )
    agent.step = max(agent.step, config.offline_steps)
    agent.rng_states = {name: seeding.capture_state(rng) for name, rng in streams.items()}
    return agent, rows


# ----------------------------------------------------------------------
# Warm start and online fine-tuning
# ----------------------------------------------------------------------


def _explore(agent, env: EnvSpec, alg: str, buffer: ReplayBuffer, reset_rng, act_rng):
    """Act with the agent's current policy on one `(1, d)` state row, step,
    push the transition into `buffer` and yield; an episode resets (one
    `reset_rng` draw) when done or at the horizon.  An action is a policy
    sample or, for td3 and td3bc, Gaussian noise about the mean action,
    drawn from `act_rng` and clipped into the box."""
    td3 = alg in ("td3", "td3bc")
    half = 0.5 * (env.action_high - env.action_low)
    while True:
        state = env_reset(env, reset_rng)[None, :]
        for _ in range(env.horizon):
            if td3:
                mean = agent.policy.mean_action(state)
                action = mean + TD3_EXPLORE_STD * half * act_rng.standard_normal(mean.shape)
            else:
                action = agent.policy.act(state, act_rng)
            action = np.clip(action, env.action_low, env.action_high)
            nxt, reward, done = env_step(env, state, action)
            buffer.push(state[0], action[0], reward[0], nxt[0], done[0])
            yield
            if done[0]:
                break
            state = nxt


def warm_start(
    agent: AgentCheckpoint, env: EnvSpec, count: int, seed: int, capacity=None
) -> ReplayBuffer:
    """Fill a fresh replay buffer with the first `count` exploring steps of
    the frozen pre-trained policy, acting as SAC does whatever the online
    algorithm, with this function's own stream for resets and actions.  A
    numeric abort in step N is prefixed "warm start step N:"."""
    if count < 1:
        raise ValueError("count must be positive")
    if capacity is not None and capacity < count:
        raise ValueError(f"replay capacity {capacity} cannot hold {count} warm-start transitions")
    rng = seeding.stream(seed, "warmstart")
    buffer = ReplayBuffer(env.state_dim, env.action_dim, capacity)
    steps = _explore(agent, env, "sac", buffer, rng, rng)
    for step in range(count):
        try:
            next(steps)
        except NumericError as exc:
            raise NumericError(f"warm start step {step}: {exc}") from None
    return buffer


def _online_batches(agent, config, dataset, env, buffer, streams):
    """Endless online batches: a mixed draw after each exploring step."""
    for _ in _explore(agent, env, config.online_alg, buffer, streams["env"], streams["explore"]):
        yield mixed_batch(dataset, buffer, config.online_batch, config.mix, streams["batch"])


def _online_update(config, agent, batch, streams):
    """One gradient step of the configured online algorithm; returns a
    metrics dict.  The critic targets are left to the phase runner."""
    loss_cfg = config.loss
    alg = config.online_alg
    coef = float(np.exp(agent.log_entropy_coef))
    metrics = {}
    if alg == "sac":
        closs, cgrads = sac_critic_loss(
            agent.critics, agent.policy, batch, coef, loss_cfg.discount, streams["policy"]
        )
        _step_critics(agent, cgrads)
        metrics.update(critic_loss=closs)
        metrics.update(_sac_actor_step(config, agent, batch, coef, streams["policy"]))
    elif alg == "td3":
        out = td3_losses(agent.critics, agent.policy, batch, loss_cfg.discount, streams["smooth"])
        _step_critics(agent, out.member_grads)
        agent.policy = _step_net(agent, "policy", agent.policy, out.policy_grad)
        metrics.update(critic_loss=out.critic_loss, policy_loss=out.policy_loss)
    elif alg == "td3bc":
        metrics.update(_td3bc_update(config, agent, batch, streams))
    elif alg == "awr":
        # Policy-evaluation critic (no entropy bonus) plus advantage-
        # weighted regression for the actor.
        closs, cgrads = sac_critic_loss(
            agent.critics, agent.policy, batch, 0.0, loss_cfg.discount, streams["policy"]
        )
        _step_critics(agent, cgrads)
        ploss, pgrad = awr_policy_loss(
            agent.critics, agent.policy, batch, loss_cfg.awr_temperature, streams["awr"]
        )
        agent.policy = _step_net(agent, "policy", agent.policy, pgrad)
        metrics.update(critic_loss=closs, policy_loss=ploss)
    else:  # pragma: no cover
        raise ConfigError(f"unknown online algorithm {alg!r}")
    return metrics


def online_finetune(
    agent: AgentCheckpoint,
    config: ExperimentConfig,
    dataset: Dataset,
    env: EnvSpec,
    seed: int | None = None,
    run_id: str = "online",
    buffer: ReplayBuffer | None = None,
):
    """Fine-tune a pre-trained agent with the configured online algorithm.

    Each step acts in the environment with the current policy, pushes the
    transition, draws a mixed dataset/replay batch and takes one gradient
    step; evaluation runs every `eval_every` steps.  Also reports the
    stable-transfer statistic: the first online evaluation minus the
    pre-fine-tuning evaluation.
    """
    seed = config.seed if seed is None else seed
    if buffer is None:
        buffer = warm_start(agent, env, config.warm_start_count, seed, config.replay_capacity)
    # The online algorithm is a different optimization problem, so it
    # starts from fresh optimizer moments under the configured rule.
    agent.opt_states = _init_opt_states(
        config, {"policy": agent.policy.params, CRITIC_OPT: agent.critics.member_stack}
    )
    streams = {
        name: seeding.stream(seed, f"online-{name}")
        for name in ("env", "explore", "batch", "policy", "smooth", "awr")
    }
    rows = _run_phase(
        config, agent, env, seed, run_id, "online", range(config.online_steps),
        _online_batches(agent, config, dataset, env, buffer, streams),
        lambda batch: _online_update(config, agent, batch, streams),
    )
    evals = [(step, value) for _, _, step, metric, value in rows if metric == "eval_return"]
    if len(evals) > 1:
        rows.append((run_id, "online", evals[-1][0], "stable_transfer_gap", evals[1][1] - evals[0][1]))
    return agent, rows


# ----------------------------------------------------------------------
# Metrics CSV
# ----------------------------------------------------------------------

METRICS_TABLE = (("run_id", "phase", "step", "metric", "value"), (str, str, int, str, float))


def write_metrics_csv(rows, path):
    write_table(path, *METRICS_TABLE, rows)
