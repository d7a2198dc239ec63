"""Environments, datasets, outcome labels, replay buffers, file format."""

import json
import pickle

import numpy as np
import pytest

from o2olab.envs import (
    ReplayBuffer,
    ScriptedPolicy,
    clip_warning_count,
    env_reset,
    env_step,
    generate_dataset,
    load_dataset,
    make_env_spec,
    mixed_batch,
    rollout_episode,
    save_dataset,
    stack_batch,
)
from o2olab.errors import FormatError, NumericError, ShapeError


class UniformPolicy:
    """Uniform-random actions over the action box."""

    def __init__(self, spec):
        self.spec = spec

    def act(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.spec.action_low, self.spec.action_high)


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
        assert np.array_equal(env_reset(spec, 42), env_reset(spec, 42))
        assert not np.array_equal(env_reset(spec, 42), env_reset(spec, 43))

    def test_reset_within_state_box(self):
        for name, lo, hi in (("reach2d", -1.0, 1.0), ("gate1d", -0.7, -0.3)):
            spec = make_env_spec(name)
            for seed in range(50):
                s = env_reset(spec, seed)
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
        nxt, reward, done = env_step(spec, np.zeros(2), np.zeros(2))
        assert np.array_equal(nxt, np.zeros(2))
        assert reward == 0.0 and not done
        # any other action gives a strictly lower (negative) reward
        _, worse, _ = env_step(spec, np.zeros(2), np.array([1.0, 0.0]))
        assert worse < reward

    def test_gate1d_step_penalty_before_goal(self):
        spec = make_env_spec("gate1d")
        _, reward, done = env_step(spec, np.array([-0.5]), np.array([0.3]))
        assert reward == -1.0 and not done

    def test_gate1d_terminates_at_goal(self):
        spec = make_env_spec("gate1d")
        nxt, reward, done = env_step(spec, np.array([0.75]), np.array([1.0]))
        assert done and reward == 0.0 and nxt[0] >= 0.8

    def test_non_finite_action_rejected(self):
        spec = make_env_spec("reach2d")
        with pytest.raises(NumericError):
            env_step(spec, np.zeros(2), np.array([np.nan, 0.0]))

    def test_out_of_bounds_action_clipped_and_counted(self):
        spec = make_env_spec("reach2d")
        before = clip_warning_count()
        nxt, _, _ = env_step(spec, np.zeros(2), np.array([5.0, 0.0]))
        assert clip_warning_count() == before + 1
        assert nxt[0] == 0.1  # clipped to action 1.0, scaled by step size

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
            expert = ScriptedPolicy(spec, noise_std=0.0)
            random_pi = UniformPolicy(spec)
            rng_e = np.random.default_rng(2)
            rng_r = np.random.default_rng(2)
            expert_ret = np.mean(
                [rollout_episode(spec, expert.act, rng_e).r.sum() for _ in range(100)]
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
            state = env_reset(spec, 3)
            action = np.full(spec.action_dim, 0.5)
            assert np.array_equal(env_reset(back, 3), state)
            assert env_step(back, state, action)[1:] == env_step(spec, state, action)[1:]


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
            one_nxt, one_reward, one_done = env_step(spec, states[i], actions[i])
            assert np.array_equal(nxt[i], one_nxt), i
            assert reward[i] == one_reward and done[i] == one_done, i
            assert type(one_reward) is float and type(one_done) is bool

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
        actions[1, 0] = np.inf
        with pytest.raises(NumericError, match="row 1"):
            env_step(spec, states, actions)

    def test_clip_count_counts_clipped_rows(self, name):
        spec, states, actions = step_rows(name)
        clipped_rows = int(np.any(np.abs(actions) > 1.0, axis=1).sum())
        assert 0 < clipped_rows < len(states)
        before = clip_warning_count()
        env_step(spec, states, actions)
        assert clip_warning_count() == before + clipped_rows
        for state, action in zip(states, actions):
            env_step(spec, state, action)
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
        assert np.all(np.isnan(batch.w)) and np.all(np.isnan(batch.mc))

    def test_mix_one_uses_dataset_only(self):
        ds = make_tiny_dataset()
        batch = mixed_batch(ds, None, 16, 1.0, seed=0)
        assert batch.size == 16
        idx = np.random.default_rng(0).integers(0, ds.size, size=16)
        for got, want in ((batch.s, ds.s), (batch.a, ds.a), (batch.r, ds.r), (batch.s2, ds.s2)):
            assert np.array_equal(got, want[idx])
        assert np.array_equal(batch.done, ds.done[idx])
        assert np.array_equal(batch.w, ds.w_labels[idx])
        assert np.array_equal(batch.mc, ds.mc[idx])

    def test_half_mix_splits_counts(self):
        ds = make_tiny_dataset()
        buf = ReplayBuffer(2, 2)
        push_rewards(buf, np.full(50, -99.0), dim=2)
        batch = mixed_batch(ds, buf, 1024, 0.5, seed=1)
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
            mixed_batch(ds, ReplayBuffer(2, 2), 16, 0.5, seed=2)

    def test_batch_size_floor(self):
        ds = make_tiny_dataset()
        with pytest.raises(ValueError):
            mixed_batch(ds, None, 1, 1.0, seed=3)

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
            for s in mixed_batch(ds, None, 100, 1.0, seed=rng).s:
                counts[index_of[s.tobytes()]] += 1
        p = 1.0 / n_items
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3.5 * sigma)

    def test_determinism_per_seed(self):
        ds = make_tiny_dataset()
        a = mixed_batch(ds, None, 8, 1.0, seed=5)
        b = mixed_batch(ds, None, 8, 1.0, seed=5)
        for name in ("s", "a", "r", "s2", "done", "w", "mc"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_stack_batch_shapes(self):
        ds = make_tiny_dataset()
        first = mixed_batch(ds, None, 8, 1.0, seed=6)
        second = mixed_batch(ds, None, 4, 1.0, seed=7)
        batch = stack_batch([first, second])
        assert batch.s.shape == (12, 2) and batch.a.shape == (12, 2)
        assert batch.size == 12
        assert np.array_equal(batch.s[8:], second.s)
        assert np.all(np.isfinite(batch.mc))
