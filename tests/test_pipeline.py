"""Training loops: configuration, determinism, checkpoints, warm start."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from golden_runs import checkpoint_fields, field_digest

from o2olab import blobio, envs, numkit, pipeline

from o2olab.diffusion import cosine_schedule, init_score_model, train_score_model
from o2olab.envs import ReplayBuffer, ScriptedPolicy, generate_dataset, make_env_spec, stack_batch
from o2olab.errors import ConfigError, FormatError, NumericError
from o2olab.pipeline import (
    AGENT_MAGIC,
    METRICS_TABLE,
    _init_agent,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    evaluate_policy,
    greedy_returns,
    load_checkpoint,
    mean_stderr,
    offline_pretrain,
    online_finetune,
    save_checkpoint,
    warm_start,
    write_metrics_csv,
)
from o2olab.seeding import stream
from o2olab.tables import read_table


def small_config(**over):
    base = {
        "env": "reach2d",
        "offline_alg": "smac",
        "online_alg": "sac",
        "optimizer": "adam",
        "offline_steps": 60,
        "online_steps": 30,
        "offline_batch": 16,
        "online_batch": 16,
        "warm_start_count": 40,
        "eval_every": 30,
        "eval_episodes": 2,
        "loss": {"score_match_weight": 5.0},
        "networks": {
            "critic_hidden": [16, 16],
            "policy_hidden": [16, 16],
            "scale_hidden": [8, 8],
            "value_hidden": [16, 16],
        },
    }
    base.update(over)
    return config_from_dict(base)


def tiny_dataset(seed=0, n=15):
    env = make_env_spec("reach2d")
    return generate_dataset(env, ScriptedPolicy(env, 0.5), n, seed=seed)


def field_digests(agent) -> dict:
    """The sha256 of every field `load_checkpoint` returns, by name."""
    return {name: field_digest(value) for name, value in checkpoint_fields(agent).items()}


def tiny_score_model(dataset, seed=1):
    sched = cosine_schedule(8)
    model = init_score_model(
        dataset.env.state_dim,
        dataset.env.action_dim,
        sched,
        stream(seed, "init-diff"),
        hidden=(16, 16),
    )
    model, _ = train_score_model(model, dataset, 150, 64, 1e-3, seed=seed)
    return model


class TestConfig:
    def test_round_trip(self):
        cfg = small_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_readme_config_block_is_the_defaults(self):
        # Every section and field, by name, so a removed or renamed field
        # cannot linger in the docs.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
        data = json.loads(re.sub(r"//.*", "", block))
        assert config_from_dict(data) == pipeline.ExperimentConfig()
        assert data == config_to_dict(pipeline.ExperimentConfig())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"env": "reach2d", "lr": 0.1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"loss": {"kappa": 1.0}})

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"offline_alg": "ppo"})

    def test_odd_batch_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            config_from_dict({"offline_batch": 33})

    def test_mix_range_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict({"mix": 1.5})

    @pytest.mark.parametrize(
        "data",
        [
            {"optim": {"critic_lr": 0.0}},
            {"optim": {"entropy_lr": -1e-3}},
            {"optim": {"target_update_rate": 0.0}},
            {"optim": {"target_update_rate": 1.5}},
            {"networks": {"n_critics": 1}},
            {"warm_start_count": 10, "replay_capacity": 9},
            {"replay_capacity": 0},
            # Non-finite floats, which a check such as `x < 0` lets through,
            # and an entropy coefficient that is not positive; these loaded.
            {"loss": {"score_match_weight": float("nan")}},
            {"loss": {"bc_weight": float("inf")}},
            {"loss": {"cql_alpha": float("nan")}},
            {"loss": {"awr_temperature": float("inf")}},
            {"loss": {"entropy_coef": float("nan")}},
            {"loss": {"target_entropy": float("-inf")}},
            {"data": {"behavior_gain": float("nan")}},
            {"loss": {"entropy_coef": 0.0}},
            {"loss": {"entropy_coef": -1.0}},
        ],
    )
    def test_out_of_range_value_rejected(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_replay_capacity_may_equal_warm_start_count(self):
        cfg = config_from_dict({"warm_start_count": 10, "replay_capacity": 10})
        assert cfg.replay_capacity == 10

    @pytest.mark.parametrize(
        "data",
        [
            {"offline_steps": 1.5},
            {"offline_steps": True},
            {"rvs_enabled": 1},
            {"env": 3},
            {"mix": False},
            {"networks": {"n_critics": "2"}},
        ],
    )
    def test_value_of_wrong_type_rejected(self, data):
        with pytest.raises(ConfigError, match="must be of type"):
            config_from_dict(data)

    def test_int_accepted_for_float_field(self):
        assert config_from_dict({"loss": {"bc_weight": 2}}).loss.bc_weight == 2

    def test_overrides_dotted_paths(self):
        data = {"env": "reach2d", "loss": {"discount": 0.99}}
        out = apply_overrides(data, ["loss.discount=0.9", "offline_alg=iql", "seeds=[1,2]"])
        cfg = config_from_dict(out)
        assert cfg.loss.discount == 0.9
        assert cfg.offline_alg == "iql"
        assert cfg.seeds == (1, 2)

    def test_last_override_wins(self):
        out = apply_overrides({}, ["seed=1", "seed=2"])
        assert out["seed"] == 2

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["no-equals-sign"])


class TestOfflinePretrain:
    def test_zero_steps_returns_initialization(self):
        cfg = small_config(offline_steps=0)
        ds = tiny_dataset()
        model = tiny_score_model(ds)
        agent, rows = offline_pretrain(cfg, ds, model, seed=3)
        fresh = _init_agent(cfg, ds.env, 3)
        assert np.array_equal(agent.policy.params.values, fresh.policy.params.values)
        assert np.array_equal(agent.critics.member_stack.values, fresh.critics.member_stack.values)
        assert [r for r in rows if r[3] == "eval_return"]

    def test_deterministic_given_seed(self):
        cfg = small_config()
        ds = tiny_dataset()
        model = tiny_score_model(ds)
        a1, rows1 = offline_pretrain(cfg, ds, model, seed=4)
        a2, rows2 = offline_pretrain(cfg, ds, model, seed=4)
        assert np.array_equal(a1.policy.params.values, a2.policy.params.values)
        assert rows1 == rows2

    def test_smac_requires_score_model(self):
        cfg = small_config()
        with pytest.raises(ConfigError, match="score model"):
            offline_pretrain(cfg, tiny_dataset(), None, seed=0)

    @pytest.mark.parametrize("alg", ["sac", "cql", "calql", "iql", "td3bc"])
    def test_every_offline_algorithm_trains(self, alg):
        cfg = small_config(offline_alg=alg, offline_steps=20)
        ds = tiny_dataset()
        agent, rows = offline_pretrain(cfg, ds, None, seed=5)
        assert agent.step == 20
        assert np.all(np.isfinite(agent.policy.params.values))

    def test_muon_optimizer_trains(self):
        cfg = small_config(offline_alg="sac", optimizer="muon", offline_steps=20)
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=6)
        assert np.all(np.isfinite(agent.policy.params.values))

    def test_reduction_identity_smac_zero_weight_vs_sac(self):
        ds = tiny_dataset()
        model = tiny_score_model(ds)
        cfg_smac = small_config(loss={"score_match_weight": 0.0})
        cfg_sac = small_config(offline_alg="sac")
        a, _ = offline_pretrain(cfg_smac, ds, model, seed=7)
        b, _ = offline_pretrain(cfg_sac, ds, None, seed=7)
        assert np.array_equal(a.policy.params.values, b.policy.params.values)
        assert np.array_equal(a.critics.member_stack.values, b.critics.member_stack.values)
        assert np.array_equal(a.critics.target_stack.values, b.critics.target_stack.values)
        assert a.log_entropy_coef == b.log_entropy_coef

    def test_numeric_abort_names_step(self):
        cfg = small_config(
            offline_alg="sac",
            offline_steps=200,
            optim={"critic_lr": 1e12, "policy_lr": 1e12},
        )
        with pytest.raises(NumericError, match=r"offline step \d+"):
            offline_pretrain(cfg, tiny_dataset(), None, seed=8)

    def test_numeric_abort_in_batch_draw_names_step(self):
        # The batch draw of step 1 fails; it used to escape unprefixed.
        cfg = small_config(offline_alg="sac", offline_steps=5)
        ds = tiny_dataset()

        def batches():
            yield None
            raise NumericError("non-finite draw")

        with pytest.raises(NumericError, match=r"^offline step 1: non-finite draw$"):
            pipeline._run_phase(
                cfg, _init_agent(cfg, ds.env, 0), ds.env, 0, "r", "offline", range(5),
                batches(), lambda batch: {},
            )

    def test_full_rate_polyak_tracks_members(self):
        cfg = small_config(offline_alg="sac", offline_steps=10, optim={"target_update_rate": 1.0})
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=9)
        assert np.array_equal(agent.critics.member_stack.values, agent.critics.target_stack.values)


# (optimizer state, setting, value out of its range), each of which used
# to load, or to fail without naming the entry.
OPT_SETTINGS_OUT_OF_RANGE = [
    ("policy", "kind", "sgd"),
    ("policy", "learning_rate", 0.0),
    ("policy", "learning_rate", float("inf")),
    ("critics", "learning_rate", float("nan")),
    ("policy", "step_count", -5),
    ("critics", "beta1", 1.5),
    ("critics", "beta1", -0.1),
    ("policy", "beta2", 1.0),
    ("policy", "momentum", -0.5),
    ("critics", "eps", -1.0),
    ("critics", "eps", 0.0),
    ("policy", "eps", float("inf")),
    ("critics", "ns_iterations", 0),
]


def set_opt(name, key, value):
    """A checkpoint header edit that sets optimizer state `name`'s `key`."""
    return lambda header: header["opt_states"][name].update({key: value})


class TestCheckpoint:
    # Every field `load_checkpoint` returns: parameters, both critic stacks,
    # each optimizer state's moments and settings, rng states and scalars.
    @pytest.mark.parametrize("offline_alg", ["smac", "iql"])
    @pytest.mark.parametrize("n_critics", [2, 3])
    @pytest.mark.parametrize("optimizer", ["adam", "muon"])
    def test_round_trip_bit_exact(self, tmp_path, offline_alg, n_critics, optimizer):
        nets = {"critic_hidden": [16, 16], "policy_hidden": [16, 16], "scale_hidden": [8, 8],
                "value_hidden": [16, 16], "n_critics": n_critics}
        cfg = small_config(offline_alg=offline_alg, optimizer=optimizer, networks=nets)
        ds = tiny_dataset()
        model = tiny_score_model(ds) if offline_alg == "smac" else None
        agent, _ = offline_pretrain(cfg, ds, model, seed=10)
        path = tmp_path / "agent.bin"
        save_checkpoint(agent, path)
        back = load_checkpoint(path)
        assert field_digests(back) == field_digests(agent)
        assert back.critics.member_stack.values.shape[0] == n_critics
        assert (back.opt_states["critics"].v is None) == (optimizer == "muon")

    def test_file_holds_the_ensemble_as_one_stack(self, tmp_path):
        cfg = small_config(offline_alg="sac", offline_steps=3, networks={"n_critics": 3})
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=11)
        path = tmp_path / "agent.bin"
        save_checkpoint(agent, path)
        header, arrays = blobio.read_blob(path, AGENT_MAGIC)
        assert "n_critics" not in header
        assert sorted(header["opt_states"]) == ["critics", "policy"]
        assert np.array_equal(arrays["critics"], agent.critics.member_stack.values)
        assert np.array_equal(arrays["targets"], agent.critics.target_stack.values)
        assert arrays["critics"].shape == arrays["targets"].shape == arrays["opt_critics_m"].shape
        assert np.array_equal(arrays["opt_critics_m"], agent.opt_states["critics"].m)
        assert np.array_equal(arrays["opt_critics_v"], agent.opt_states["critics"].v)
        save_checkpoint(load_checkpoint(path), tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    # A stack of fewer than 2 critics, or an array that is no stack.
    @pytest.mark.parametrize("array", ["critics", "targets"])
    @pytest.mark.parametrize(
        "edit", [lambda a: a[:1], lambda a: a[:0], lambda a: a[0]], ids=["1-row", "0-rows", "1-d"]
    )
    def test_short_critic_stack_rejected(self, tmp_path, array, edit):
        cfg = small_config(offline_alg="sac", offline_steps=2)
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=11)
        path = tmp_path / "agent.bin"
        save_checkpoint(agent, path)
        header, arrays = blobio.read_blob(path, AGENT_MAGIC)
        arrays[array] = edit(arrays[array])
        blobio.write_blob(path, AGENT_MAGIC, header, arrays)
        with pytest.raises(FormatError, match=f"array '{array}' of shape"):
            load_checkpoint(path)

    # Each case edits an optimizer state's moments so that they no longer
    # fit its parameters: (array named in the error, edit of header and
    # arrays).  Each used to load, and resuming from it failed at the first
    # step with numpy's broadcast error, which names no array.
    @pytest.mark.parametrize(
        "named, edit",
        [
            ("opt_critics_m", lambda h, a: a.update(opt_critics_m=a["opt_critics_m"][:, :5])),
            ("opt_policy_m", lambda h, a: a.update(opt_policy_m=a["opt_policy_m"][:-1])),
            (
                "opt_critics_v",
                lambda h, a: (h["opt_states"]["critics"].update(has_v=False), a.pop("opt_critics_v")),
            ),
        ],
        ids=["critics-m-2x5", "policy-m-short", "adam-without-v"],
    )
    def test_moments_unlike_their_parameters_rejected(self, tmp_path, named, edit):
        cfg = small_config(offline_alg="sac", offline_steps=2)
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=11)
        path = tmp_path / "agent.bin"
        save_checkpoint(agent, path)
        header, arrays = blobio.read_blob(path, AGENT_MAGIC)
        edit(header, arrays)
        blobio.write_blob(path, AGENT_MAGIC, header, arrays)
        with pytest.raises(FormatError, match=f"'{named}'"):
            load_checkpoint(path)

    # Each case edits one header entry to a value out of range; it used to
    # load.
    @pytest.mark.parametrize(
        "key, edit",
        [
            ("step", lambda h: h.update(step=-5)),
            ("rng_states", lambda h: h.update(rng_states=5)),
            ("rng_states", lambda h: h["rng_states"].pop("cql")),
            ("rng_states", lambda h: h["rng_states"].update(extra=h["rng_states"]["cql"])),
            ("rng_states", lambda h: h["rng_states"]["batch"].update(state=7)),
            ("rng_states", lambda h: h["rng_states"]["batch"].update(bit_generator="MT19937")),
            ("rng_states", lambda h: h["rng_states"]["smooth"]["state"].update(inc=-1)),
            ("log_entropy_coef", lambda h: h.update(log_entropy_coef=float("-inf"))),
            ("log_entropy_coef", lambda h: h.update(log_entropy_coef=float("nan"))),
            ("target_entropy", lambda h: h.update(target_entropy=float("inf"))),
            ("log_entropy_coef", lambda h: h.update(log_entropy_coef=800.0)),
            *(
                (f"opt_states.{name}.{key}", set_opt(name, key, value))
                for name, key, value in OPT_SETTINGS_OUT_OF_RANGE
            ),
        ],
        ids=[
            "negative-step", "states-not-object",
            "stream-missing", "stream-extra", "snapshot-state", "snapshot-generator",
            "snapshot-out-of-range", "coef-minus-inf", "coef-nan", "target-entropy-inf",
            "coef-exp-overflows",
            *(f"{name}-{key}-{value}" for name, key, value in OPT_SETTINGS_OUT_OF_RANGE),
        ],
    )
    def test_out_of_range_header_entry_rejected(self, tmp_path, key, edit):
        cfg = small_config(offline_alg="sac", offline_steps=2)
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=11)
        path = tmp_path / "agent.bin"
        save_checkpoint(agent, path)
        header, arrays = blobio.read_blob(path, AGENT_MAGIC)
        edit(header)
        blobio.write_blob(path, AGENT_MAGIC, header, arrays)
        with pytest.raises(FormatError, match=f"entry '{key}'"):
            load_checkpoint(path)

    # Another file's magic, and the first agent format's, which held one
    # array and optimizer state per critic.
    @pytest.mark.parametrize("magic", [b"XXXXXXXX", b"SMACAC01"])
    def test_corrupted_magic_rejected(self, tmp_path, magic):
        cfg = small_config(offline_alg="sac", offline_steps=5)
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=11)
        path = tmp_path / "agent.bin"
        save_checkpoint(agent, path)
        path.write_bytes(magic + path.read_bytes()[8:])
        with pytest.raises(FormatError, match=f"{magic.decode()}.*SMACAC02"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = small_config(offline_alg="sac", offline_steps=5)
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=11)
        path = tmp_path / "agent.bin"
        save_checkpoint(agent, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(FormatError, match=f"7 trailing bytes.*byte offset {size}"):
            load_checkpoint(path)

    def test_resume_reproduces_straight_run(self, tmp_path):
        ds = tiny_dataset()
        model = tiny_score_model(ds)
        full_cfg = small_config(offline_steps=60)
        half_cfg = small_config(offline_steps=30)
        straight, _ = offline_pretrain(full_cfg, ds, model, seed=12)
        half, _ = offline_pretrain(half_cfg, ds, model, seed=12)
        save_checkpoint(half, tmp_path / "half.bin")
        resumed, _ = offline_pretrain(
            full_cfg, ds, model, seed=12, start=load_checkpoint(tmp_path / "half.bin")
        )
        assert field_digests(resumed) == field_digests(straight)

    def test_algorithm_mismatch_on_resume_rejected(self, tmp_path):
        cfg = small_config(offline_alg="sac", offline_steps=5)
        agent, _ = offline_pretrain(cfg, tiny_dataset(), None, seed=13)
        with pytest.raises(ConfigError):
            offline_pretrain(small_config(offline_alg="iql"), tiny_dataset(), None, start=agent)


def exploring_agent(name):
    """A fresh agent on `name`; on gate1d its policy pushes towards the
    gate, so warm-start episodes end there before the horizon."""
    env = make_env_spec(name)
    agent = _init_agent(small_config(env=name, offline_alg="sac"), env, seed=41)
    if name == "gate1d":
        weight, bias = numkit.unflatten(agent.policy.params)[-1]
        weight *= 0.1
        bias[0] = np.arctanh(0.5)
    return env, agent


class TestWarmStartAndOnline:
    def _pretrained(self, seed=14):
        cfg = small_config(offline_alg="sac", offline_steps=20)
        ds = tiny_dataset()
        agent, _ = offline_pretrain(cfg, ds, None, seed=seed)
        return cfg, ds, agent

    def test_warm_start_exact_count(self):
        cfg, ds, agent = self._pretrained()
        buffer = warm_start(agent, ds.env, 37, seed=15)
        assert buffer.size == 37

    def test_warm_start_single_transition(self):
        cfg, ds, agent = self._pretrained()
        assert warm_start(agent, ds.env, 1, seed=16).size == 1

    @pytest.mark.parametrize("name", ["reach2d", "gate1d"])
    def test_warm_start_steps_and_pushes_count_times(self, name, monkeypatch):
        # Warm start used to push every transition twice and step its last
        # episode on to its end: 50 steps and 87 pushes for 37 on reach2d.
        env, agent = exploring_agent(name)
        calls = {"step": 0, "push": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)

            return wrapper

        step = counted("step", envs.env_step)
        monkeypatch.setattr(envs, "env_step", step)
        monkeypatch.setattr(pipeline, "env_step", step)
        monkeypatch.setattr(ReplayBuffer, "push", counted("push", ReplayBuffer.push))
        assert warm_start(agent, env, 37, seed=15).size == 37
        assert calls == {"step": 37, "push": 37}

    @pytest.mark.parametrize("name", ["reach2d", "gate1d"])
    @pytest.mark.parametrize("horizons, extra", [(0, 1), (0, 37), (1, 0), (2, 0)])
    def test_warm_start_matches_rollout_reference(self, name, horizons, extra):
        # The first `count` transitions of episodes from the test-side
        # `rollout_episode`, each a reset and then clipped policy samples
        # drawn from one "warmstart" stream, byte for byte; in a ring of
        # exactly `count`.
        from test_envs import rollout_episode

        env, agent = exploring_agent(name)
        count = horizons * env.horizon + extra
        rng = stream(40, "warmstart")

        def act(state, g):
            return np.clip(agent.policy.act(state, g), env.action_low, env.action_high)

        episodes = []
        while sum(ep.size for ep in episodes) < count:
            episodes.append(rollout_episode(env, act, rng))
        if name == "gate1d" and count >= env.horizon:
            # Episodes end at the gate, so the count spans resets on done.
            assert min(ep.size for ep in episodes) < env.horizon
        want = stack_batch(episodes)
        got = warm_start(agent, env, count, seed=40, capacity=count).rows()
        for field in ("s", "a", "r", "s2", "done"):
            x, y = getattr(got, field), getattr(want, field)[:count]
            assert x.dtype == y.dtype and x.shape == y.shape, field
            assert x.tobytes() == y.tobytes(), field

    def test_warm_start_actions_within_bounds(self):
        cfg, ds, agent = self._pretrained()
        buffer = warm_start(agent, ds.env, 50, seed=17)
        batch = buffer.sample(50, np.random.default_rng(0))
        assert np.all(batch.a >= ds.env.action_low - 1e-12)
        assert np.all(batch.a <= ds.env.action_high + 1e-12)

    def test_warm_start_rejects_capacity_below_count(self):
        # A ring smaller than the count could never fill; this used to spin.
        cfg, ds, agent = self._pretrained()
        with pytest.raises(ValueError, match="cannot hold"):
            warm_start(agent, ds.env, 10, seed=17, capacity=7)

    def test_warm_start_fills_a_ring_of_exactly_count(self):
        cfg, ds, agent = self._pretrained()
        assert warm_start(agent, ds.env, 10, seed=17, capacity=10).size == 10

    def test_buffer_grows_one_per_env_step(self):
        cfg, ds, agent = self._pretrained()
        buffer = warm_start(agent, ds.env, 40, seed=18)
        online_finetune(agent, cfg, ds, ds.env, seed=18, buffer=buffer)
        assert buffer.size == 40 + cfg.online_steps

    def test_zero_online_steps_only_initial_eval(self):
        cfg, ds, agent = self._pretrained()
        cfg0 = small_config(offline_alg="sac", online_steps=0, warm_start_count=10)
        _, rows = online_finetune(agent, cfg0, ds, ds.env, seed=19)
        evals = [r for r in rows if r[3] == "eval_return"]
        assert len(evals) == 1 and evals[0][2] == 0
        assert all(r[3] in ("eval_return", "eval_stderr") for r in rows)

    def test_numeric_abort_names_online_step(self):
        cfg, ds, agent = self._pretrained()
        cfg_on = small_config(online_steps=200, optim={"critic_lr": 1e12, "policy_lr": 1e12})
        with pytest.raises(NumericError, match=r"^online step \d+: "):
            online_finetune(agent, cfg_on, ds, ds.env, seed=8)

    # A policy with NaN output-layer parameters fails in the warm start's
    # first action, or, with a buffer handed in, in the step-0 evaluation;
    # either used to end with numkit's bare message.
    @pytest.mark.parametrize("handed, prefix", [(False, "warm start"), (True, "online")])
    def test_numeric_abort_while_exploring_names_step(self, handed, prefix):
        cfg, ds = small_config(offline_alg="sac"), tiny_dataset()
        agent = _init_agent(cfg, ds.env, 0)
        agent.policy.params.values[-4:] = np.nan
        buffer = ReplayBuffer(ds.env.state_dim, ds.env.action_dim) if handed else None
        with pytest.raises(NumericError, match=f"^{prefix} step 0: non-finite pre-activation"):
            online_finetune(agent, cfg, ds, ds.env, seed=0, buffer=buffer)

    @pytest.mark.parametrize("alg", ["sac", "td3", "td3bc", "awr"])
    def test_every_online_algorithm_runs(self, alg):
        cfg, ds, agent = self._pretrained()
        cfg_on = small_config(
            offline_alg="sac", online_alg=alg, online_steps=15, warm_start_count=20
        )
        final, rows = online_finetune(agent, cfg_on, ds, ds.env, seed=20)
        assert np.all(np.isfinite(final.policy.params.values))
        assert [r for r in rows if r[3] == "eval_return"]

    def test_finetune_deterministic(self):
        cfg, ds, agent0 = self._pretrained()
        import copy

        a1, rows1 = online_finetune(copy.deepcopy(agent0), cfg, ds, ds.env, seed=21)
        a2, rows2 = online_finetune(copy.deepcopy(agent0), cfg, ds, ds.env, seed=21)
        assert np.array_equal(a1.policy.params.values, a2.policy.params.values)
        assert rows1 == rows2

    def test_stable_transfer_gap_reported(self):
        cfg, ds, agent = self._pretrained()
        _, rows = online_finetune(agent, cfg, ds, ds.env, seed=22)
        gaps = [r for r in rows if r[3] == "stable_transfer_gap"]
        evals = [r for r in rows if r[3] == "eval_return"]
        assert len(gaps) == 1
        assert gaps[0][4] == evals[1][4] - evals[0][4]


def per_step_greedy_returns(policy, env, episodes, seed):
    """The returns of `greedy_returns`, from one stacked `mean_action`
    forward per time step: the reference that the rollout, which builds
    its layer operands once, must match bit for bit."""
    from o2olab.envs import env_reset, env_step

    rng = np.random.default_rng(seed)
    starts = np.array([env_reset(env, rng) for _ in range(episodes)])
    m = len(policy.params)
    states = np.tile(starts, (m, 1))
    returns = np.zeros(m * episodes)
    running = slice(None)
    for _ in range(env.horizon):
        actions = policy.mean_action(states.reshape(m, episodes, -1)).reshape(m * episodes, -1)
        actions = np.clip(actions, env.action_low, env.action_high)
        nxt, rewards, done = env_step(env, states[running], actions[running])
        returns[running] += rewards
        keep = ~done
        running = np.arange(m * episodes)[running][keep]
        states[running] = nxt[keep]
        if running.size == 0:
            break
    return returns.reshape(m, episodes)


class TestEvaluate:
    def test_single_episode_matches_manual_rollout(self):
        env = make_env_spec("reach2d")
        rng = stream(23, "x")
        from o2olab.networks import make_policy

        policy = make_policy(2, env.action_low, env.action_high, (8,), rng)
        mean, err = evaluate_policy(policy, env, 1, seed=24)
        assert err == 0.0
        from o2olab.envs import env_reset, env_step

        r = np.random.default_rng(24)
        state = env_reset(env, r)[None, :]
        total = 0.0
        for _ in range(env.horizon):
            action = policy.mean_action(state)
            state, reward, done = env_step(env, state, np.clip(action, env.action_low, env.action_high))
            total += reward[0]
            if done[0]:
                break
        assert mean == total

    @pytest.mark.parametrize("name, rtol", [("gate1d", 0.0), ("reach2d", 1e-12)])
    def test_many_episodes_match_manual_rollouts(self, name, rtol):
        from o2olab.envs import env_reset, env_step
        from o2olab.networks import make_policy
        from o2olab.numkit import unflatten

        env = make_env_spec(name)
        policy = make_policy(env.state_dim, env.action_low, env.action_high, (8, 8), stream(27, "x"))
        if name == "gate1d":
            # A state-dependent push of about 0.22 towards the gate: some
            # episodes end early, at different steps, and some time out.
            weight, bias = unflatten(policy.params)[-1]
            weight *= 0.1
            bias[0] = np.arctanh(0.22)
        r = np.random.default_rng(28)
        returns, lengths = [], []
        for _ in range(20):
            state = env_reset(env, r)[None, :]
            total = 0.0
            for step in range(env.horizon):
                action = policy.mean_action(state)
                state, reward, done = env_step(env, state, np.clip(action, env.action_low, env.action_high))
                total += reward[0]
                if done[0]:
                    break
            returns.append(total)
            lengths.append(step + 1)
        if name == "gate1d":
            assert len(set(lengths)) > 2 and env.horizon in lengths
        returns = np.array(returns)
        mean, err = evaluate_policy(policy, env, 20, seed=28)
        assert mean == pytest.approx(returns.mean(), rel=rtol, abs=0.0)
        assert err == pytest.approx(returns.std(ddof=1) / np.sqrt(20), rel=rtol, abs=0.0)

    def test_returns_python_floats(self):
        env = make_env_spec("reach2d")
        from o2olab.networks import make_policy

        policy = make_policy(2, env.action_low, env.action_high, (8,), stream(29, "x"))
        for episodes in (1, 3):
            result = evaluate_policy(policy, env, episodes, seed=30)
            assert type(result) is tuple and len(result) == 2
            assert all(type(x) is float for x in result)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("name", ["gate1d", "reach2d"])
    def test_stacked_rollout_matches_one_policy_at_a_time(self, name):
        from o2olab.networks import make_policy
        from o2olab.numkit import ParamStack, unflatten

        env = make_env_spec(name)
        policies = []
        pushes = (0.2, 0.25, 0.3, 0.35, *np.linspace(0.15, 0.45, 21))
        for i, push in enumerate(pushes):
            policy = make_policy(
                env.state_dim, env.action_low, env.action_high, (64, 64), stream(31 + i, "x")
            )
            if name == "gate1d":
                # State-dependent pushes towards the gate at several speeds.
                weight, bias = unflatten(policy.params)[-1]
                weight *= 0.1
                bias[0] = np.arctanh(push)
            policies.append(policy)
        # The rollout builds each layer's operands once; it returns the same
        # bytes as a `mean_action` forward per step.
        for m in (1, 4, 25):
            stack = policies[0].with_params(ParamStack.of(p.params for p in policies[:m]))
            for episodes in (1, 9):
                want = per_step_greedy_returns(stack, env, episodes, seed=32)
                assert greedy_returns(stack, env, episodes, seed=32).tobytes() == want.tobytes()
        # A member whose layer 1 overflows stops the rollout as it stops the
        # per-step forward.
        params = ParamStack.of(p.params for p in policies[:4])
        unflatten(params)[1][0][2] = 1e308
        overflowing = policies[0].with_params(params)
        with pytest.raises(NumericError) as want:
            per_step_greedy_returns(overflowing, env, 9, seed=32)
        with pytest.raises(NumericError) as got:
            greedy_returns(overflowing, env, 9, seed=32)
        assert str(got.value) == str(want.value) == "non-finite pre-activation at layer 1"

        policies = policies[:4]
        stack = policies[0].with_params(ParamStack.of(p.params for p in policies))
        returns = greedy_returns(stack, env, 9, seed=32)
        assert returns.shape == (4, 9)
        if name == "gate1d":
            # Episodes end at different steps within a policy and across
            # policies, and some run to the horizon.
            assert all(len(set(row)) > 2 for row in returns)
            assert -float(env.horizon) in returns and len(set(returns.ravel())) > 12
            # Integer returns: one episode at a time gives the same numbers.
            from o2olab.envs import env_reset, env_step

            r = np.random.default_rng(32)
            starts = [env_reset(env, r) for _ in range(9)]
            for policy, row in zip(policies, returns):
                for start, want in zip(starts, row):
                    state, total = start[None, :], 0.0
                    for _ in range(env.horizon):
                        action = np.clip(policy.mean_action(state), -1.0, 1.0)
                        state, reward, done = env_step(env, state, action)
                        total += reward[0]
                        if done[0]:
                            break
                    assert total == want
        for policy, row in zip(policies, returns):
            assert evaluate_policy(policy, env, 9, seed=32) == mean_stderr(row)
            one = policy.with_params(ParamStack.of([policy.params]))
            assert np.array_equal(greedy_returns(one, env, 9, seed=32)[0], row)

    def test_repeat_evaluations_identical(self):
        env = make_env_spec("gate1d")
        rng = stream(25, "x")
        from o2olab.networks import make_policy

        policy = make_policy(1, env.action_low, env.action_high, (8,), rng)
        assert evaluate_policy(policy, env, 5, seed=26) == evaluate_policy(policy, env, 5, seed=26)


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        rows = [("run", "offline", 10, "loss", 0.123456789012345678), ("run", "online", 20, "eval_return", -3.5)]
        path = tmp_path / "m.csv"
        write_metrics_csv(rows, path)
        assert read_table(path, *METRICS_TABLE) == [
            ("run", "offline", 10, "loss", 0.123456789012345678),
            ("run", "online", 20, "eval_return", -3.5),
        ]

    def test_write_byte_deterministic(self, tmp_path):
        rows = [("r", "offline", 1, "x", 1.0 / 3.0)]
        write_metrics_csv(rows, tmp_path / "a.csv")
        write_metrics_csv(rows, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text("nope\n")
        with pytest.raises(FormatError):
            read_table(tmp_path / "m.csv", *METRICS_TABLE)


@pytest.fixture()
def numkit_passes(monkeypatch):
    """Names of numkit's passes in call order, counted at every name that
    binds them in the package (modules import them with `from`)."""
    calls = []
    modules = [m for name, m in sys.modules.items() if name.startswith("o2olab")]
    for name in ("mlp_forward_batch", "mlp_grad_batch", "mlp_input_grad", "mlp_second_grad"):
        original = getattr(numkit, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for module in modules:
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


# Short names of numkit's passes in the expected sequences below.
FWD, GRAD = "mlp_forward_batch", "mlp_grad_batch"
IN_GRAD, SECOND = "mlp_input_grad", "mlp_second_grad"


class TestPassCount:
    """numkit passes per training step at the default network sizes, in
    order.  Every gradient pass differentiates a forward counted before
    it, so each `FWD` is one forward computed.  A pass whose parameter
    gradient nobody reads must be an input-gradient pass
    (`mlp_input_grad`), never a full `mlp_grad_batch`.
    """

    def _setup(self, **over):
        cfg = config_from_dict(
            {"env": "reach2d", "offline_batch": 64, "online_batch": 256, **over}
        )
        ds = tiny_dataset()
        agent = _init_agent(cfg, ds.env, seed=3)
        return cfg, ds, agent

    def test_smac_muon_offline_step(self, numkit_passes):
        cfg, ds, agent = self._setup(offline_alg="smac", optimizer="muon")
        model = init_score_model(
            ds.env.state_dim, ds.env.action_dim, cosine_schedule(8), stream(1, "d"), hidden=(16, 16)
        )
        streams = {name: stream(4, name) for name in pipeline._OFFLINE_STREAMS}
        batch = ds.sample_batch(cfg.offline_batch, streams["batch"])
        pipeline._offline_update(cfg, agent, batch, streams, model)
        # 15 in all, 8 of them forwards.
        assert numkit_passes == [
            # critic loss, TD part: policy sample at s2, stacked target
            # forward, stacked member forward and its gradient
            FWD, FWD, FWD, GRAD,
            # score-match part: mixture policy sample, score model, scale
            # net, stacked member forward, its action gradients and its
            # second-order pass, scale gradient
            FWD, FWD, FWD, FWD, IN_GRAD, SECOND, GRAD,
            # actor: policy sample, stacked member forward and its action
            # gradient, policy gradient
            FWD, FWD, IN_GRAD, GRAD,
        ]

    def test_sac_online_step(self, numkit_passes):
        cfg, ds, agent = self._setup(online_alg="sac", optimizer="adam")
        agent.opt_states = {
            "policy": agent.opt_states["policy"],
            pipeline.CRITIC_OPT: agent.opt_states[pipeline.CRITIC_OPT],
        }
        streams = {name: stream(5, name) for name in ("explore", "batch", "policy")}
        buffer = ReplayBuffer(ds.env.state_dim, ds.env.action_dim)
        next(pipeline._explore(agent, ds.env, "sac", buffer, streams["explore"], streams["explore"]))
        batch = ds.sample_batch(cfg.online_batch, streams["batch"])
        pipeline._online_update(cfg, agent, batch, streams)
        # 9 in all, 6 of them forwards.
        assert numkit_passes == [
            # exploring action
            FWD,
            # critic loss: policy sample at s2, stacked target forward,
            # stacked member forward and its gradient
            FWD, FWD, FWD, GRAD,
            # actor: policy sample, stacked member forward and its action
            # gradient, policy gradient
            FWD, FWD, IN_GRAD, GRAD,
        ]
