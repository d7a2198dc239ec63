"""Environments, datasets, outcome labels, replay buffers, file format."""

import json
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from o2olab.envs import (
    _CHUNK_RECORDS,
    Dataset,
    ReplayBuffer,
    ScriptedPolicy,
    clip_warning_count,
    env_reset,
    env_step,
    generate_dataset,
    load_dataset,
    make_env_spec,
    mixed_batch,
    save_dataset,
    stack_batch,
)
from o2olab.errors import FormatError, NumericError, ShapeError
from o2olab.seeding import stream


class UniformPolicy:
    """Uniform-random actions over the action box, one per state row."""

    def __init__(self, spec):
        self.spec = spec

    def act(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        size = (states.shape[0], self.spec.action_dim)
        return rng.uniform(self.spec.action_low, self.spec.action_high, size=size)


def scripted_act(behavior):
    """`behavior` acting on state rows; a noisy one draws each row's noise
    from the generator it is handed."""

    def act(states, rng):
        shape = (states.shape[0], behavior.spec.action_dim)
        return behavior.control(states, rng.standard_normal(shape) if behavior.noisy else None)

    return act


def rollout_episode(spec, act_fn, rng: np.random.Generator):
    """Run one episode on `(1, d)` state rows: a reset draw, then per step
    `act_fn(state, rng)` and one `env_step`, until a terminal step or the
    horizon.  The batch holds its transitions in step order, with `mc`
    NaN.  `generate_dataset` and warm start are pinned to this reference."""
    buffer = ReplayBuffer(spec.state_dim, spec.action_dim)
    state = env_reset(spec, rng)[None, :]
    for _ in range(spec.horizon):
        action = act_fn(state, rng)
        nxt, reward, done = env_step(spec, state, action)
        buffer.push(state[0], action[0], reward[0], nxt[0], done[0])
        if done[0]:
            break
        state = nxt
    return buffer.rows()


def trajectory_bounds(ds):
    """First row and one past the last row of each trajectory."""
    starts = np.flatnonzero(np.r_[True, ds.traj[1:] != ds.traj[:-1]])
    return starts, np.r_[starts[1:], ds.size]


class TestEnvBasics:
    def test_unknown_env_rejected(self):
        with pytest.raises(ValueError, match="unknown environment"):
            make_env_spec("cartpole")

    def test_reset_deterministic_per_seed(self):
        spec = make_env_spec("reach2d")
        def reset(seed):
            return env_reset(spec, np.random.default_rng(seed))

        assert np.array_equal(reset(42), reset(42))
        assert not np.array_equal(reset(42), reset(43))

    def test_reset_within_state_box(self):
        for name, lo, hi in (("reach2d", -1.0, 1.0), ("gate1d", -0.7, -0.3)):
            spec = make_env_spec(name)
            for seed in range(50):
                s = env_reset(spec, np.random.default_rng(seed))
                assert np.all(s >= lo) and np.all(s <= hi)

    def test_reset_mean_matches_initial_distribution(self):
        # reach2d starts uniform on [-1, 1]^2: mean 0, per-dim var 1/3.
        spec = make_env_spec("reach2d")
        rng = np.random.default_rng(0)
        states = np.array([env_reset(spec, rng) for _ in range(10_000)])
        three_sigma = 3.0 * np.sqrt((1.0 / 3.0) / 10_000)
        assert np.all(np.abs(states.mean(axis=0)) <= three_sigma)

    def test_reach2d_goal_is_fixed_point_with_max_reward(self):
        spec = make_env_spec("reach2d")
        nxt, reward, done = env_step(spec, np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.array_equal(nxt, np.zeros((1, 2)))
        assert reward[0] == 0.0 and not done[0]
        # any other action gives a strictly lower (negative) reward
        _, worse, _ = env_step(spec, np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        assert worse[0] < reward[0]

    def test_gate1d_step_penalty_before_goal(self):
        spec = make_env_spec("gate1d")
        _, reward, done = env_step(spec, np.array([[-0.5]]), np.array([[0.3]]))
        assert reward[0] == -1.0 and not done[0]

    def test_gate1d_terminates_at_goal(self):
        spec = make_env_spec("gate1d")
        nxt, reward, done = env_step(spec, np.array([[0.75]]), np.array([[1.0]]))
        assert done[0] and reward[0] == 0.0 and nxt[0, 0] >= 0.8

    def test_non_finite_action_rejected(self):
        spec = make_env_spec("reach2d")
        with pytest.raises(NumericError):
            env_step(spec, np.zeros((1, 2)), np.array([[np.nan, 0.0]]))

    def test_out_of_bounds_action_clipped_and_counted(self):
        spec = make_env_spec("reach2d")
        before = clip_warning_count()
        nxt, _, _ = env_step(spec, np.zeros((1, 2)), np.array([[5.0, 0.0]]))
        assert clip_warning_count() == before + 1
        assert nxt[0, 0] == 0.1  # clipped to action 1.0, scaled by step size

    def test_rewards_bounded_and_states_in_box(self):
        for name in ("reach2d", "gate1d"):
            spec = make_env_spec(name)
            rng = np.random.default_rng(1)
            policy = UniformPolicy(spec)
            for _ in range(5):
                ep = rollout_episode(spec, policy.act, rng)
                assert np.all(np.abs(ep.r) <= spec.reward_bound)
                assert np.all(np.abs(ep.s) <= 1.0) and np.all(np.abs(ep.s2) <= 1.0)
                # consecutive rows chain: each step starts where the last ended
                assert np.array_equal(ep.s[1:], ep.s2[:-1])

    def test_expert_beats_random(self):
        for name in ("reach2d", "gate1d"):
            spec = make_env_spec(name)
            expert = scripted_act(ScriptedPolicy(spec, noise_std=0.0))
            random_pi = UniformPolicy(spec)
            rng_e = np.random.default_rng(2)
            rng_r = np.random.default_rng(2)
            expert_ret = np.mean(
                [rollout_episode(spec, expert, rng_e).r.sum() for _ in range(100)]
            )
            random_ret = np.mean(
                [rollout_episode(spec, random_pi.act, rng_r).r.sum() for _ in range(100)]
            )
            assert expert_ret >= random_ret

    def test_spec_pickles_with_its_dynamics(self):
        # Worker processes receive the spec inside a pickled Dataset.
        for name in ("reach2d", "gate1d"):
            spec = make_env_spec(name)
            back = pickle.loads(pickle.dumps(spec))
            state = env_reset(spec, np.random.default_rng(3))[None, :]
            action = np.full((1, spec.action_dim), 0.5)
            assert np.array_equal(env_reset(back, np.random.default_rng(3)), state[0])
            for got, want in zip(env_step(back, state, action), env_step(spec, state, action)):
                assert np.array_equal(got, want)


def step_rows(name, n=40, seed=31):
    """n states of `name` with actions in [-2, 2]: many out of bounds and,
    on gate1d, many that cross the gate."""
    spec = make_env_spec(name)
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.0, 1.0, size=(n, spec.state_dim))
    actions = rng.uniform(-2.0, 2.0, size=(n, spec.action_dim))
    return spec, states, actions


@pytest.mark.parametrize("name", ["reach2d", "gate1d"])
class TestRowStep:
    def test_rows_match_single_steps(self, name):
        spec, states, actions = step_rows(name)
        nxt, reward, done = env_step(spec, states, actions)
        assert nxt.shape == states.shape and reward.shape == done.shape == (len(states),)
        if name == "gate1d":
            assert 0 < done.sum() < len(states)
        assert np.any(np.abs(actions) > 1.0)
        for i in range(len(states)):
            one_nxt, one_reward, one_done = env_step(spec, states[i : i + 1], actions[i : i + 1])
            assert np.array_equal(nxt[i : i + 1], one_nxt), i
            assert reward[i] == one_reward[0] and done[i] == one_done[0], i
            assert one_reward.shape == one_done.shape == (1,)

    def test_single_state_rejected(self, name):
        spec, states, actions = step_rows(name, n=1)
        with pytest.raises(ShapeError, match=r"state shape \(\d,\), expected \(n, \d\)"):
            env_step(spec, states[0], actions[0])

    def test_wrong_action_shape_rejected(self, name):
        spec, states, actions = step_rows(name, n=3)
        for bad in (actions[:2], np.zeros((3, spec.action_dim + 1)), actions[0], actions[:1]):
            with pytest.raises(ShapeError):
                env_step(spec, states, bad)
        with pytest.raises(ShapeError):
            env_step(spec, states[0], actions)

    def test_wrong_state_width_rejected(self, name):
        spec, states, actions = step_rows(name, n=3)
        narrow = np.zeros(spec.state_dim - 1) if spec.state_dim > 1 else np.zeros(2)
        for bad_state, action in (
            (narrow, actions[0]),
            (np.zeros((3, narrow.size)), actions),
            (np.zeros((3, 1, spec.state_dim)), actions),
            (np.float64(0.0), actions[0]),
        ):
            with pytest.raises(ShapeError, match="state shape"):
                env_step(spec, bad_state, action)

    def test_non_finite_row_rejected(self, name):
        spec, states, actions = step_rows(name, n=3)
        before = clip_warning_count()
        for value in (np.inf, -np.inf, np.nan):
            actions[1, 0] = value
            with pytest.raises(NumericError, match="row 1"):
                env_step(spec, states, actions)
            with pytest.raises(NumericError, match="non-finite action in row 0$"):
                env_step(spec, states[1:2], actions[1:2])
        assert clip_warning_count() == before

    def test_clip_count_counts_clipped_rows(self, name):
        spec, states, actions = step_rows(name)
        clipped_rows = int(np.any(np.abs(actions) > 1.0, axis=1).sum())
        assert 0 < clipped_rows < len(states)
        before = clip_warning_count()
        env_step(spec, states, actions)
        assert clip_warning_count() == before + clipped_rows
        for i in range(len(states)):
            env_step(spec, states[i : i + 1], actions[i : i + 1])
        assert clip_warning_count() == before + 2 * clipped_rows


class TestDataset:
    def test_single_trajectory_gets_label_one(self):
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.3), 1, seed=0)
        assert np.all(ds.w_labels == 1.0)

    def test_two_outcomes_label_endpoints(self):
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.8), 2, seed=1)
        starts, _ = trajectory_bounds(ds)
        assert set(ds.w_labels[starts].tolist()) == {0.0, 1.0}

    def test_labels_in_unit_interval_with_max_attained(self):
        spec = make_env_spec("gate1d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 1.5), 30, seed=2)
        assert ds.w_labels.min() >= 0.0
        assert ds.w_labels.max() == 1.0

    def test_labels_recomputable_from_outcomes(self):
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.6), 12, seed=3)
        starts, ends = trajectory_bounds(ds)
        outcomes = ds.mc[starts]  # each trajectory's discounted return
        lo, hi = outcomes.min(), outcomes.max()
        want = (outcomes - lo) / (hi - lo)
        assert np.array_equal(ds.w_labels, np.repeat(want, ends - starts))

    def test_mc_returns_satisfy_bellman_recursion(self):
        for name in ("reach2d", "gate1d"):
            spec = make_env_spec(name)
            ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), 8, seed=4)
            starts, ends = trajectory_bounds(ds)
            assert np.array_equal(ds.traj[starts], np.arange(8))
            for lo, hi in zip(starts, ends):
                assert ds.mc[hi - 1] == ds.r[hi - 1]
                for t in range(lo, hi - 1):
                    assert ds.mc[t] == ds.r[t] + spec.discount * ds.mc[t + 1]

    def test_sparse_outcome_is_success_flag(self):
        spec = make_env_spec("gate1d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 1.0, gain=0.5), 40, seed=5)
        starts, ends = trajectory_bounds(ds)
        succ = ds.done[ends - 1]  # a trajectory succeeds when it ends at the gate
        assert np.array_equal(succ, (ds.s2[ends - 1, 0] >= 0.8).astype(float))
        assert 0.0 < succ.mean() < 1.0  # noise level gives a mixed dataset
        assert np.array_equal(ds.w_labels, np.repeat(succ, ends - starts))

    def test_deterministic_per_seed(self):
        spec = make_env_spec("reach2d")
        a = generate_dataset(spec, ScriptedPolicy(spec, 0.4), 5, seed=6)
        b = generate_dataset(spec, ScriptedPolicy(spec, 0.4), 5, seed=6)
        assert np.array_equal(a.s, b.s) and np.array_equal(a.a, b.a)


def former_act(behavior):
    """The scripted behaviour's action as it was computed before the
    row-wise control law, on one `(1, d)` state row."""
    spec = behavior.spec

    def act(state, rng):
        ctrl = behavior.gain * (spec.setpoint - state)
        if behavior.noise_std > 0.0:
            ctrl = ctrl + behavior.noise_std * rng.standard_normal(spec.action_dim)
        return np.clip(ctrl, spec.action_low, spec.action_high)

    return act


def sequential_dataset(spec, behavior, n_traj, seed):
    """The former generator: one `rollout_episode` after another on the
    seed's "dataset" stream, each stepping one state row at a time."""
    rng = stream(seed, "dataset")
    episodes = [rollout_episode(spec, former_act(behavior), rng) for _ in range(n_traj)]
    rows = stack_batch(episodes)
    traj = np.repeat(np.arange(n_traj), [ep.size for ep in episodes])
    return Dataset(spec, rows.s, rows.a, rows.r, rows.s2, rows.done, traj)


def returns_by_row(ds):
    """Monte-Carlo returns by the former loop over every row."""
    starts, ends = trajectory_bounds(ds)
    mc = np.empty(ds.size)
    for lo, hi in zip(starts, ends):
        acc = 0.0
        for i in range(hi - 1, lo - 1, -1):
            acc = ds.r[i] + ds.env.discount * acc
            mc[i] = acc
    return mc


def assert_same_dataset(got, want, tmp_path):
    """Every field equal bit for bit (signed zeros included), and the same
    saved bytes."""
    for name in ("s", "a", "r", "s2", "done", "traj", "mc", "w_labels"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    save_dataset(got, tmp_path / "got.jsonl")
    save_dataset(want, tmp_path / "want.jsonl")
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


class TestLockStepGenerator:
    @pytest.mark.parametrize("n_traj", [1, 20, 150])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("noise", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("name", ["reach2d", "gate1d"])
    def test_matches_sequential_rollouts(self, tmp_path, name, noise, seed, n_traj):
        spec = make_env_spec(name)
        behavior = ScriptedPolicy(spec, noise)
        got = generate_dataset(spec, behavior, n_traj, seed)
        assert_same_dataset(got, sequential_dataset(spec, behavior, n_traj, seed), tmp_path)

    def test_end_on_the_last_step_is_not_early(self, tmp_path):
        # At gain 0.3 trajectory 2 reaches the gate on its 60th and last
        # step, having used a full horizon of noise; trajectory 5 ends a
        # step before the horizon and trajectory 6 well before it.
        spec = make_env_spec("gate1d")
        behavior = ScriptedPolicy(spec, 0.5, gain=0.3)
        got = generate_dataset(spec, behavior, 8, seed=25)
        starts, ends = trajectory_bounds(got)
        assert (ends - starts).tolist() == [60, 60, 60, 60, 60, 59, 29, 60]
        assert got.done[ends - 1].tolist() == [0, 0, 1, 0, 0, 1, 1, 0]
        assert_same_dataset(got, sequential_dataset(spec, behavior, 8, seed=25), tmp_path)

    def test_returns_match_the_per_row_loop(self):
        spec = make_env_spec("gate1d")
        mixed = generate_dataset(spec, ScriptedPolicy(spec, 0.5, gain=0.3), 40, seed=1)
        assert len(set(np.bincount(mixed.traj).tolist())) > 5
        for ds in (mixed, awkward_dataset("gate1d", 60), awkward_dataset("reach2d", 16)):
            assert ds.mc.tobytes() == returns_by_row(ds).tobytes()


class TestDatasetFile:
    def test_round_trip_value_identical(self, tmp_path):
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.7), 6, seed=7)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.env.name == ds.env.name
        assert np.array_equal(back.s, ds.s)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.r, ds.r)
        assert np.array_equal(back.s2, ds.s2)
        assert np.array_equal(back.done, ds.done)
        assert np.array_equal(back.mc, ds.mc)
        assert np.array_equal(back.w_labels, ds.w_labels)

    def test_save_twice_byte_identical(self, tmp_path):
        spec = make_env_spec("gate1d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 1.0), 4, seed=8)
        save_dataset(ds, tmp_path / "a.jsonl")
        save_dataset(ds, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_truncated_file_reports_offset(self, tmp_path):
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), 3, seed=9)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(raw[: int(len(raw) * 0.6)])
        with pytest.raises(FormatError) as err:
            load_dataset(cut)
        assert err.value.offset is not None

    def test_malformed_record_reports_line(self, tmp_path):
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), 1, seed=10)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3][:-2] + "oops"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            load_dataset(bad)
        assert err.value.line == 4

    def test_dim_mismatch_vs_header_rejected(self, tmp_path):
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), 1, seed=11)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"state_dim": 2', '"state_dim": 3')
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ShapeError):
            load_dataset(bad)

    def test_mc_returns_recomputed_on_load(self, tmp_path):
        # The format stores only rewards; Monte-Carlo values always come
        # back from the Bellman recursion.
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), 2, seed=12)
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        _, ends = trajectory_bounds(back)
        for t in range(back.size - 1):
            if t + 1 not in ends:
                assert back.mc[t] == back.r[t] + spec.discount * back.mc[t + 1]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(FormatError):
            load_dataset(path)


def saved_lines(tmp_path, seed=14):
    spec = make_env_spec("reach2d")
    ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), 2, seed=seed)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path)
    return ds, path.read_text().splitlines()


def write_lines(tmp_path, lines):
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def edit_record(line, **fields):
    rec = json.loads(line)
    rec.update(fields)
    return json.dumps(rec)


class TestDatasetRecordChecks:
    def test_non_finite_number_rejected(self, tmp_path):
        # json accepts NaN; one NaN reward would make every outcome label 1.0
        _, lines = saved_lines(tmp_path)
        lines[3] = edit_record(lines[3], r=float("nan"))
        assert '"r": NaN' in lines[3]
        with pytest.raises(FormatError) as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == 4

    def test_wrong_next_state_shape_rejected(self, tmp_path):
        _, lines = saved_lines(tmp_path)
        lines[2] = edit_record(lines[2], s2=[0.0, 0.0, 0.0])
        with pytest.raises(ShapeError, match="line 3"):
            load_dataset(write_lines(tmp_path, lines))

    def test_infinite_trajectory_id_rejected(self, tmp_path):
        # int(inf) raises OverflowError, which used to escape as a traceback.
        _, lines = saved_lines(tmp_path)
        lines[3] = edit_record(lines[3], traj=float("inf"))
        with pytest.raises(FormatError) as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == 4

    def test_duplicate_step_rejected(self, tmp_path):
        _, lines = saved_lines(tmp_path)
        lines[3] = edit_record(lines[3], t=json.loads(lines[2])["t"])
        with pytest.raises(FormatError) as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == 4

    def test_header_without_transitions_rejected(self, tmp_path):
        _, lines = saved_lines(tmp_path)
        header = lines[0].replace(f'"count": {len(lines) - 1}', '"count": 0')
        with pytest.raises(FormatError, match="no transitions"):
            load_dataset(write_lines(tmp_path, [header]))

    @pytest.mark.parametrize("gamma", [0.5, "0.99", None, True])
    def test_header_gamma_must_match_env_discount(self, tmp_path, gamma):
        _, lines = saved_lines(tmp_path)
        lines[0] = edit_record(lines[0], gamma=gamma)
        with pytest.raises(FormatError, match="gamma") as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == 1

    def test_records_in_any_order_load_the_same(self, tmp_path):
        ds, lines = saved_lines(tmp_path)
        # Trajectories keep their order of first appearance, so trajectory
        # 0's first record stays first; the rest are shuffled across both.
        rest = lines[2:]
        shuffled = [rest[i] for i in np.random.default_rng(15).permutation(len(rest))]
        back = load_dataset(write_lines(tmp_path, lines[:2] + shuffled))
        for name in ("s", "a", "r", "s2", "done", "traj", "mc", "w_labels"):
            assert np.array_equal(getattr(back, name), getattr(ds, name)), name

    # Each value used to be coerced: "false", 0.5 and null loaded as done =
    # 1.0, a traj of 0.7 as trajectory 0, and strings or bools as numbers.
    @pytest.mark.parametrize(
        "key, value",
        [
            ("done", "false"),
            ("done", 0.5),
            ("done", None),
            ("done", 0),
            ("traj", 0.7),
            ("traj", 1.0),
            ("traj", "0"),
            ("traj", True),
            ("t", 2.0),
            ("t", None),
            ("r", "0.25"),
            ("r", True),
            ("r", None),
            ("r", [0.25]),
            ("s", ["0.5", "0.25"]),
            ("s", [True, False]),
            ("a", [None, 0.0]),
            ("s2", [0.5, {"x": 1}]),
            ("s", 0.5),
            ("a", "ab"),
        ],
    )
    def test_wrongly_typed_field_rejected(self, tmp_path, key, value):
        _, lines = saved_lines(tmp_path)
        lines[3] = edit_record(lines[3], **{key: value})
        with pytest.raises(FormatError) as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == 4 and key in str(err.value)

    @pytest.mark.parametrize("record", ['{"s": [0.0, 0.0]}', "[1, 2]", "7"])
    def test_record_without_its_keys_rejected(self, tmp_path, record):
        _, lines = saved_lines(tmp_path)
        lines[3] = record
        with pytest.raises(FormatError, match="keys") as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == 4

    @pytest.mark.parametrize("later", [{"r": "0.5"}, {"s2": [0.0]}, {"done": 1}])
    def test_first_faulty_line_is_reported(self, tmp_path, later):
        # A NaN on line 4 comes before the fault on line 6, whatever its kind.
        _, lines = saved_lines(tmp_path)
        lines[3] = edit_record(lines[3], r=float("nan"))
        lines[5] = edit_record(lines[5], **later)
        with pytest.raises(FormatError) as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == 4

    def test_earliest_step_fault_is_reported(self, tmp_path):
        # Trajectory 0's gap comes later in the file than trajectory 1's.
        _, lines = saved_lines(tmp_path)
        first_of_1 = next(i for i, line in enumerate(lines) if json.loads(line).get("traj") == 1)
        lines[first_of_1 + 1] = edit_record(lines[first_of_1 + 1], t=99)
        lines[first_of_1 - 1] = edit_record(lines[first_of_1 - 1], t=98)
        moved = lines.pop(first_of_1 - 1)
        lines.append(moved)
        with pytest.raises(FormatError, match="step 99") as err:
            load_dataset(write_lines(tmp_path, lines))
        assert err.value.line == first_of_1 + 1

    def test_step_at_the_horizon_rejected(self, tmp_path):
        # Two 50-step reach2d trajectories relabelled as one 100-step
        # trajectory: steps 50..99 reach the horizon, and the record of
        # step 70, moved up to line 2, is the earliest such line.
        _, lines = saved_lines(tmp_path)
        lines[1:] = [edit_record(line, traj=0, t=i) for i, line in enumerate(lines[1:])]
        lines.insert(1, lines.pop(71))
        path = write_lines(tmp_path, lines)
        with pytest.raises(FormatError, match="step 70 reaches the reach2d horizon") as err:
            load_dataset(path)
        assert err.value.line == 2
        assert err.value.offset == len(lines[0]) + 1

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        _, lines = saved_lines(tmp_path)
        # Save writes -0.0 as `-0`, which json reads as the integer 0.
        lines[3] = edit_record(lines[3], r="R", s=["S", 0.0])
        lines[3] = lines[3].replace('"R"', "-0").replace('"S"', "-0")
        back = load_dataset(write_lines(tmp_path, lines))
        assert np.signbit(back.r[2]) and np.signbit(back.s[2]).tolist() == [True, False]


def oracle_dataset_bytes(ds) -> bytes:
    """The dataset file as the per-record formatter of the first format
    version wrote it: `format(x, ".17g")` per float, one joined body."""

    def fmt(x):
        return format(float(x), ".17g")

    def vec(v):
        return "[" + ", ".join(fmt(x) for x in v) + "]"

    env = ds.env
    lines = [
        '{"env": %s, "state_dim": %d, "action_dim": %d, "gamma": %s, "count": %d}'
        % (json.dumps(env.name), env.state_dim, env.action_dim, fmt(env.discount), ds.size)
    ]
    starts, ends = trajectory_bounds(ds)
    steps = np.arange(ds.size) - np.repeat(starts, ends - starts)
    cols = (ds.s, ds.a, ds.r, ds.s2, ds.done, ds.traj, steps)
    for s, a, r, s2, done, traj, t in zip(*(c.tolist() for c in cols)):
        flag = "true" if done else "false"
        lines.append(
            '{"s": %s, "a": %s, "r": %s, "s2": %s, "done": %s, "traj": %d, "t": %d}'
            % (vec(s), vec(a), fmt(r), vec(s2), flag, traj, t)
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def awkward_dataset(name, n_traj):
    """A generated dataset with -0.0, 1e-300, a subnormal and integral
    floats planted in every column, and trajectory ids above 2**31."""
    spec = make_env_spec(name)
    ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), n_traj, seed=17)
    s, a, r, s2 = ds.s.copy(), ds.a.copy(), ds.r.copy(), ds.s2.copy()
    for col in (s, a, r, s2):
        flat = col.reshape(-1)
        n = flat.size
        flat[[1, 7, n // 3, n // 2, -7, -1]] = [-0.0, 1e-300, -1.0, 5e-324, 3.0, -1e-300]
    ids = np.arange(n_traj) * (2**40 + 3) + 2**31 + 5
    ids[[0, -1]] = 7, 2**62
    traj = ids[ds.traj]
    return Dataset(spec, s, a, r, s2, ds.done, traj)


class TestDatasetFileBytes:
    @pytest.mark.parametrize("name, n_traj", [("reach2d", 16), ("gate1d", 60)])
    def test_save_matches_the_per_record_formatter(self, tmp_path, name, n_traj):
        ds = awkward_dataset(name, n_traj)
        assert ds.size > 2 * _CHUNK_RECORDS and len(set(ds.traj.tolist())) == n_traj
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_dataset(ds, first)
        raw = first.read_bytes()
        assert raw == oracle_dataset_bytes(ds)
        for pattern in (rb"[ \[]-0[,\]]", rb"[ \[]-1[,\]]", rb"[ \[]3[,\]]", rb"e-300", rb"e-324"):
            assert re.search(pattern, raw), pattern
        back = load_dataset(first)
        for field in ("s", "a", "r", "s2", "done", "traj", "mc", "w_labels"):
            got, want = getattr(back, field), getattr(ds, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
        save_dataset(back, second)
        assert second.read_bytes() == raw


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes, by
    tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestDatasetFileMemory:
    def test_save_and_load_hold_no_object_per_record(self, tmp_path):
        # Holding every record as Python objects peaked at 8.4x (save) and 16.3x (load).
        spec = make_env_spec("reach2d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.5), 150, seed=18)
        path = tmp_path / "data.jsonl"
        _, save_peak = traced_peak(save_dataset, ds, path)
        back, load_peak = traced_peak(load_dataset, path)
        arrays = (back.s, back.a, back.r, back.s2, back.done, back.traj, back.mc, back.w_labels)
        nbytes = sum(x.nbytes for x in arrays)
        assert back.size == 7500
        assert save_peak <= nbytes, (save_peak, nbytes)
        assert load_peak <= 3 * nbytes, (load_peak, nbytes)


def make_tiny_dataset(n_traj=3, seed=0):
    spec = make_env_spec("reach2d")
    return generate_dataset(spec, ScriptedPolicy(spec, 0.5), n_traj, seed=seed)


def push_rewards(buf, rewards, dim=1):
    for r in rewards:
        buf.push(np.zeros(dim), np.zeros(dim), float(r), np.zeros(dim), False)


class TestReplayBufferAndMixing:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(1, 1, capacity=3)
        push_rewards(buf, range(5))
        assert buf.size == 3
        rewards = buf.sample(100, np.random.default_rng(0)).r
        assert set(rewards.tolist()) <= {2.0, 3.0, 4.0}
        # push k writes slot k % capacity: pushes 3 and 4 replaced slots 0 and 1
        assert buf.rows().r.tolist() == [3.0, 4.0, 2.0]

    def test_ring_keeps_slot_order_while_growing(self):
        buf = ReplayBuffer(1, 1, capacity=100)
        push_rewards(buf, range(150))
        assert buf.size == 100
        assert buf.rows().r.tolist() == list(range(100, 150)) + list(range(50, 100))

    def test_unbounded_by_default(self):
        buf = ReplayBuffer(1, 1)
        push_rewards(buf, range(1000))
        assert buf.size == 1000
        assert buf.rows().r.tolist() == list(range(1000))

    def test_sample_has_nan_labels(self):
        buf = ReplayBuffer(1, 1)
        push_rewards(buf, range(4))
        batch = buf.sample(6, np.random.default_rng(1))
        assert np.all(np.isnan(batch.mc))

    def test_mix_one_uses_dataset_only(self):
        ds = make_tiny_dataset()
        batch = mixed_batch(ds, None, 16, 1.0, np.random.default_rng(0))
        assert batch.size == 16
        idx = np.random.default_rng(0).integers(0, ds.size, size=16)
        for got, want in ((batch.s, ds.s), (batch.a, ds.a), (batch.r, ds.r), (batch.s2, ds.s2)):
            assert np.array_equal(got, want[idx])
        assert np.array_equal(batch.done, ds.done[idx])
        assert np.array_equal(batch.mc, ds.mc[idx])

    def test_half_mix_splits_counts(self):
        ds = make_tiny_dataset()
        buf = ReplayBuffer(2, 2)
        push_rewards(buf, np.full(50, -99.0), dim=2)
        batch = mixed_batch(ds, buf, 1024, 0.5, np.random.default_rng(1))
        from_buffer = batch.r == -99.0
        assert batch.size == 1024 and from_buffer.sum() == 512
        # dataset rows first, drawn before the buffer rows from one stream
        assert not from_buffer[:512].any() and from_buffer[512:].all()
        rng = np.random.default_rng(1)
        idx = rng.integers(0, ds.size, size=512)
        assert np.array_equal(batch.s[:512], ds.s[idx])
        assert np.array_equal(batch.r[:512], ds.r[idx])

    def test_empty_buffer_with_buffer_share_rejected(self):
        ds = make_tiny_dataset()
        with pytest.raises(ValueError):
            mixed_batch(ds, ReplayBuffer(2, 2), 16, 0.5, np.random.default_rng(2))

    def test_batch_size_floor(self):
        ds = make_tiny_dataset()
        with pytest.raises(ValueError):
            mixed_batch(ds, None, 1, 1.0, np.random.default_rng(3))

    def test_sampling_is_uniform(self):
        # Multinomial 3-sigma check on per-transition frequencies.
        spec = make_env_spec("gate1d")
        ds = generate_dataset(spec, ScriptedPolicy(spec, 0.2), 1, seed=13)
        n_items = ds.size
        draws = 100_000
        rng = np.random.default_rng(14)
        counts = np.zeros(n_items)
        index_of = {s.tobytes(): i for i, s in enumerate(ds.s)}
        assert len(index_of) == n_items  # each row is known by its state
        for _ in range(draws // 100):
            for s in mixed_batch(ds, None, 100, 1.0, rng).s:
                counts[index_of[s.tobytes()]] += 1
        p = 1.0 / n_items
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3.5 * sigma)

    def test_determinism_per_seed(self):
        ds = make_tiny_dataset()
        a = mixed_batch(ds, None, 8, 1.0, np.random.default_rng(5))
        b = mixed_batch(ds, None, 8, 1.0, np.random.default_rng(5))
        for name in ("s", "a", "r", "s2", "done", "mc"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_stack_batch_shapes(self):
        ds = make_tiny_dataset()
        first = mixed_batch(ds, None, 8, 1.0, np.random.default_rng(6))
        second = mixed_batch(ds, None, 4, 1.0, np.random.default_rng(7))
        batch = stack_batch([first, second])
        assert batch.s.shape == (12, 2) and batch.a.shape == (12, 2)
        assert batch.size == 12
        assert np.array_equal(batch.s[8:], second.s)
        assert np.all(np.isfinite(batch.mc))
