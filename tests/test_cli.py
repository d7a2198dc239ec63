"""Command-line workflow: exit codes, manifests, byte-determinism."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from o2olab import blobio
from o2olab.cli import _sha256, build_parser, main, parse_run_id
from o2olab.diffusion import CHECKPOINT_MAGIC
from o2olab.errors import FormatError
from o2olab.pipeline import AGENT_MAGIC, config_to_dict, load_config


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("O2OLAB_OUT", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    config = {
        "env": "reach2d",
        "seeds": [0],
        "offline_alg": "smac",
        "online_alg": "sac",
        "optimizer": "adam",
        "offline_steps": 40,
        "online_steps": 20,
        "offline_batch": 16,
        "online_batch": 16,
        "warm_start_count": 30,
        "eval_every": 10,
        "eval_episodes": 2,
        "loss": {"score_match_weight": 4.0},
        "networks": {"critic_hidden": [8, 8], "policy_hidden": [8, 8], "scale_hidden": [8]},
        "diffusion": {"steps": 60, "batch": 32, "n_steps": 8, "hidden": [8, 8]},
        "data": {"n_trajectories": 10, "behavior_noise": 0.5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


def _write_nan(path, array):
    """Overwrite the first value of blob array `array` in the file at `path` with NaN."""
    raw = bytearray(path.read_bytes())
    (head_len,) = struct.unpack("<I", raw[8:12])
    pos = 12 + head_len
    for name, shape in json.loads(raw[12:pos])["arrays"]:
        if name == array:
            break
        pos += 8 * int(np.prod(shape))
    raw[pos : pos + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))


class TestWorkflow:
    def test_full_chain(self, workdir):
        assert run(["gen-data", "--config", "cfg.json"]) == 0
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        assert data.exists()
        assert run(["train-diffusion", "--config", "cfg.json", "--data", data]) == 0
        model = workdir / "runs/train-diffusion/seed-0/score_model.bin"
        assert run(
            ["pretrain", "--config", "cfg.json", "--data", data, "--diffusion", model]
        ) == 0
        ckpt_dir = workdir / "runs/pretrain"
        assert (ckpt_dir / "seed-0/checkpoint.bin").exists()
        assert run(
            ["finetune", "--config", "cfg.json", "--data", data, "--checkpoint", ckpt_dir]
        ) == 0
        final = workdir / "runs/finetune/seed-0/final_checkpoint.bin"
        assert final.exists()

        assert run(
            [
                "landscape-line",
                "--config",
                "cfg.json",
                "--checkpoint-a",
                ckpt_dir / "seed-0/checkpoint.bin",
                "--checkpoint-b",
                final,
                "--points",
                "3",
            ]
        ) == 0
        line = (workdir / "runs/landscape-line/line.csv").read_text().splitlines()
        assert line[0] == "t,mean_return,stderr" and len(line) == 4

        assert run(
            [
                "landscape-plane",
                "--config",
                "cfg.json",
                "--checkpoint-a",
                ckpt_dir / "seed-0/checkpoint.bin",
                "--checkpoint-b",
                final,
                "--checkpoint-c",
                ckpt_dir / "seed-0/checkpoint.bin",
            ]
        ) == 2  # collinear inputs are a config error

        assert run(
            [
                "export-checkpoints",
                "--out",
                workdir / "runs/export",
                ckpt_dir / "seed-0/checkpoint.bin",
                final,
            ]
        ) == 0
        matrix = (workdir / "runs/export/checkpoint_matrix.csv").read_text().splitlines()
        assert len(matrix) == 2

    def test_manifest_records_hashes_and_config(self, workdir):
        assert run(["gen-data", "--config", "cfg.json"]) == 0
        manifest = json.loads((workdir / "runs/gen-data/manifest.json").read_text())
        assert manifest["command"] == "gen-data"
        assert manifest["config"]["env"] == "reach2d"
        assert "dataset-s0.jsonl" in manifest["artifacts"]
        assert len(manifest["artifacts"]["dataset-s0.jsonl"]) == 64

    def test_metrics_rerun_byte_identical(self, workdir):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        for out in ("a", "b"):
            assert run(
                [
                    "pretrain",
                    "--config",
                    "cfg.json",
                    "--override",
                    "offline_alg=sac",
                    "--data",
                    data,
                    "--out",
                    workdir / out,
                ]
            ) == 0
        a = (workdir / "a/seed-0/metrics.csv").read_bytes()
        b = (workdir / "b/seed-0/metrics.csv").read_bytes()
        assert a == b
        ca = (workdir / "a/seed-0/checkpoint.bin").read_bytes()
        cb = (workdir / "b/seed-0/checkpoint.bin").read_bytes()
        assert ca == cb

    def test_parallel_jobs_match_serial(self, workdir):
        run(["gen-data", "--config", "cfg.json", "--override", "seeds=[0,1]"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        common = [
            "pretrain",
            "--config",
            "cfg.json",
            "--override",
            "offline_alg=sac",
            "--override",
            "seeds=[0,1]",
            "--override",
            "offline_steps=10",
            "--data",
            data,
        ]
        assert run(common + ["--out", workdir / "serial"]) == 0
        assert run(common + ["--out", workdir / "par", "--jobs", "2"]) == 0
        finetune = [
            "finetune",
            "--config",
            "cfg.json",
            "--override",
            "seeds=[0,1]",
            "--override",
            "online_steps=10",
            "--data",
            data,
            "--checkpoint",
            workdir / "serial",
        ]
        assert run(finetune + ["--out", workdir / "fin-serial"]) == 0
        assert run(finetune + ["--out", workdir / "fin-par", "--jobs", "2"]) == 0
        for serial, par, ckpt in (
            ("serial", "par", "checkpoint.bin"),
            ("fin-serial", "fin-par", "final_checkpoint.bin"),
        ):
            for seed in (0, 1):
                for name in (ckpt, "metrics.csv"):
                    a = (workdir / f"{serial}/seed-{seed}/{name}").read_bytes()
                    b = (workdir / f"{par}/seed-{seed}/{name}").read_bytes()
                    assert a == b, f"{par}/seed-{seed}/{name}"


class TestRegretTableCommand:
    def test_fixture_reproduces_published_values(self, workdir, capsys):
        assert run(["regret-table", "--fixture", "--out", workdir / "table"]) == 0
        printed = capsys.readouterr().out
        assert "0.031" in printed
        lines = (workdir / "table/regret_table.csv").read_text().splitlines()
        by_cell = {}
        for line in lines[1:]:
            env, off, on, _, _, _, avg = line.split(",")
            by_cell[(off, on)] = float(avg)
        assert abs(by_cell[("smac", "sac")] - 0.031) <= 0.005
        assert abs(by_cell[("td3bc", "sac")] - 0.962) <= 0.005

    def test_records_csv_input(self, workdir):
        run(["regret-table", "--fixture", "--out", workdir / "t1"])
        records = workdir / "t1/regret_records.csv"
        assert run(["regret-table", "--input", records, "--out", workdir / "t2"]) == 0
        a = (workdir / "t1/regret_table.csv").read_bytes()
        b = (workdir / "t2/regret_table.csv").read_bytes()
        assert a == b

    def test_run_directory_input(self, workdir):
        # Build two tiny finetune runs (two offline algs, one online alg,
        # one env would leave missing cells; use one offline alg only).
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        run(
            [
                "pretrain",
                "--config",
                "cfg.json",
                "--override",
                "offline_alg=sac",
                "--override",
                "offline_steps=10",
                "--data",
                data,
                "--out",
                workdir / "pre",
            ]
        )
        run(
            [
                "finetune",
                "--config",
                "cfg.json",
                "--override",
                "online_steps=10",
                "--data",
                data,
                "--checkpoint",
                workdir / "pre",
                "--out",
                workdir / "fin",
            ]
        )
        assert run(["regret-table", "--input", workdir / "fin", "--out", workdir / "table"]) == 0
        lines = (workdir / "table/regret_records.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one (env, offline, online) cell


class TestErrorPaths:
    def test_missing_config_is_config_error(self, workdir):
        assert run(["pretrain", "--data", "nope.jsonl"]) == 2

    def test_invalid_config_value(self, workdir):
        assert run(["gen-data", "--config", "cfg.json", "--override", "mix=2.0"]) == 2

    # A bad config value or flag is refused before the output directory or
    # its parent is made.  A landscape flag is given to the landscape
    # command that takes it, the rest to pretrain.
    @pytest.mark.parametrize(
        "override",
        [
            "offline_steps=1.5",
            "optim.target_update_rate=0",
            "optim.critic_lr=0",
            "networks.n_critics=1",
            "replay_capacity=5",
            "diffusion.lr=0",
            "diffusion.steps=-1",
            "diffusion.batch=0",
            "data.n_trajectories=0",
            "networks.critic_hidden=[0]",
            'networks.critic_hidden=["a"]',
            'networks.critic_activation="gelu"',
            "networks.policy_hidden=[2.5]",
            "seeds=[1.5]",
            'loss.target_entropy="abc"',
            # Non-finite floats, and an entropy coefficient that is not
            # positive: 0 used to train and write a log coefficient of
            # -Infinity, -1 to exit 3 at step 0.
            "loss.score_match_weight=NaN",
            "loss.bc_weight=Infinity",
            "loss.cql_alpha=NaN",
            "loss.awr_temperature=Infinity",
            "loss.entropy_coef=NaN",
            "loss.target_entropy=-Infinity",
            "data.behavior_gain=NaN",
            "loss.entropy_coef=0",
            "loss.entropy_coef=-1",
            "--seed=-1",
            "--jobs=0",
            "--jobs=-3",
            "--grid-lo=nan",
            "--grid-hi=inf",
            "--t-lo=nan",
            "--t-hi=-inf",
        ],
    )
    def test_bad_value_exits_2_without_leftover(self, workdir, override):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        out = workdir / "fresh" / "out"
        bad = [override] if override.startswith("--") else ["--override", override]
        sac = ["--override", "offline_alg=sac"]
        command = ["pretrain", "--config", "cfg.json", *sac, "--data", data]
        if override.startswith(("--grid", "--t-")):
            # Three seeds, so that the plane's checkpoints span a plane.
            pre = ["--override", "offline_steps=2", "--override", "seeds=[0,1,2]", "--out", "pre"]
            assert run(command + pre) == 0
            plane = override.startswith("--grid")
            command = ["landscape-plane" if plane else "landscape-line", "--config", "cfg.json"]
            flags = ["--checkpoint-a", "--checkpoint-b", "--checkpoint-c"][: 2 + plane]
            for seed, flag in enumerate(flags):
                command += [flag, workdir / f"pre/seed-{seed}/checkpoint.bin"]
        assert run(command + bad + ["--out", out]) == 2
        assert not out.parent.exists()

    def test_jobs_are_capped_at_the_seed_count(self, workdir, monkeypatch):
        # A stand-in pool that records its worker count, start method and
        # the thread variables its workers would start with, and runs the
        # seeds in this process, so no worker is ever started.
        workers, methods, environs = [], [], []
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        for name in names[:2]:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "3")  # set by the user: kept

        class InlinePool:
            def __init__(self, max_workers, mp_context):
                workers.append(max_workers)
                methods.append(mp_context.get_start_method())
                environs.append({name: os.environ.get(name) for name in names})

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        over = ["--override", "offline_alg=sac", "--override", "offline_steps=2"]
        seeds = ["--override", "seeds=[0,1]"]
        pretrain = ["pretrain", "--config", "cfg.json", *over, *seeds, "--data", data]
        assert run(pretrain + ["--jobs", "64", "--out", "pre"]) == 0
        assert workers == [2]
        assert methods == ["spawn"]
        assert environs == [
            {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}
        ]
        assert {name: os.environ.get(name) for name in names} == {
            "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "3"
        }
        assert sorted(p.name for p in (workdir / "pre").iterdir()) == [
            "manifest.json", "seed-0", "seed-1"
        ]

    def test_finetune_env_mismatch_exits_2_without_leftover(self, workdir):
        # A gate1d checkpoint cannot fine-tune on reach2d data; this used to
        # fail mid-run with a numpy shape error.
        gate = ["--override", "env=gate1d", "--override", "offline_alg=sac"]
        run(["gen-data", "--config", "cfg.json", *gate, "--out", workdir / "gdata"])
        run(["gen-data", "--config", "cfg.json"])
        assert run(
            [
                "pretrain", "--config", "cfg.json", *gate, "--override", "offline_steps=2",
                "--data", workdir / "gdata/dataset-s0.jsonl", "--out", workdir / "gpre",
            ]
        ) == 0
        out = workdir / "fresh" / "fin"
        code = run(
            [
                "finetune", "--config", "cfg.json",
                "--data", workdir / "runs/gen-data/dataset-s0.jsonl",
                "--checkpoint", workdir / "gpre", "--out", out,
            ]
        )
        assert code == 2
        assert not out.parent.exists()

    # Data of another env than the config's used to train and fine-tune,
    # and the manifest recorded the config's env; pretrain refused it.
    @pytest.mark.parametrize("command", ["train-diffusion", "finetune"])
    def test_dataset_env_mismatch_exits_2_without_leftover(self, workdir, capsys, command):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        argv = [command, "--config", "cfg.json", "--override", "env=gate1d", "--data", data]
        if command == "finetune":
            pre = ["--override", "offline_alg=sac", "--override", "offline_steps=2", "--out", "pre"]
            assert run(["pretrain", "--config", "cfg.json", *pre, "--data", data]) == 0
            argv += ["--checkpoint", workdir / "pre"]
        out = workdir / "fresh" / "out"
        capsys.readouterr()
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert "dataset env 'reach2d' != config env 'gate1d'" in err and "Traceback" not in err
        assert not out.parent.exists()

    # A score model trained on reach2d used to fail at the first regularizer
    # query on gate1d data, after the step-0 evaluation, naming neither the
    # file nor the mismatch; a model with another action box used to train.
    @pytest.mark.parametrize("case", ["other-env", "other-box"])
    def test_pretrain_score_model_env_mismatch_exits_2_without_leftover(
        self, workdir, capsys, case
    ):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        assert run(["train-diffusion", "--config", "cfg.json", "--data", data]) == 0
        model = workdir / "runs/train-diffusion/seed-0/score_model.bin"
        over = []
        if case == "other-env":
            over = ["--override", "env=gate1d"]
            run(["gen-data", "--config", "cfg.json", *over, "--out", workdir / "gdata"])
            data = workdir / "gdata/dataset-s0.jsonl"
        else:
            header, arrays = blobio.read_blob(model, CHECKPOINT_MAGIC)
            arrays["action_high"] = np.array([1.0, 2.0])
            blobio.write_blob(model, CHECKPOINT_MAGIC, header, arrays)
        out = workdir / "fresh" / "pre"
        capsys.readouterr()
        pretrain = ["pretrain", "--config", "cfg.json", *over, "--data", data]
        assert run(pretrain + ["--diffusion", model, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"score model {model} has" in err and "Traceback" not in err
        assert not out.parent.exists()

    # A list for `env` used to end in a TypeError traceback and exit 1; the
    # other entries used to load.
    @pytest.mark.parametrize(
        "key, value",
        [("env", ["reach2d"]), ("count", "500"), ("count", 500.9), ("state_dim", 2.0)],
    )
    def test_wrongly_typed_dataset_header_exits_2_without_leftover(
        self, workdir, capsys, key, value
    ):
        run(["gen-data", "--config", "cfg.json"])
        lines = (workdir / "runs/gen-data/dataset-s0.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["count"] == 500 == len(lines) - 1
        header[key] = value
        data = workdir / "edited.jsonl"
        data.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        out = workdir / "fresh" / "out"
        sac = ["--override", "offline_alg=sac"]
        assert run(["pretrain", "--config", "cfg.json", *sac, "--data", data, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"header {key}" in err and "(line 1)" in err and "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("array", ["critics", "targets", "opt_critics_v", "opt_policy_v"])
    def test_non_finite_checkpoint_exits_2_without_leftover(self, workdir, capsys, array):
        # A NaN in a checkpoint used to load and fail at the first forward
        # pass (exit 3), after the output directory was made.
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        pre = ["--override", "offline_alg=sac", "--override", "offline_steps=2"]
        pretrain = ["pretrain", "--config", "cfg.json", *pre, "--data", data]
        assert run(pretrain + ["--out", workdir / "pre"]) == 0
        _write_nan(workdir / "pre" / "seed-0" / "checkpoint.bin", array)
        out = workdir / "fresh" / "fin"
        capsys.readouterr()
        finetune = ["finetune", "--config", "cfg.json", "--data", data]
        code = run(finetune + ["--checkpoint", workdir / "pre", "--out", out])
        assert code == 2
        assert repr(array) in capsys.readouterr().err
        assert not out.parent.exists()

    # A NaN in the score model's parameters used to fail after the step-0
    # evaluation (exit 3), and one in its schedule to load and train.
    @pytest.mark.parametrize("array", ["alpha_bar", "params", "action_low", "action_high"])
    def test_non_finite_score_model_exits_2_without_leftover(self, workdir, capsys, array):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        assert run(["train-diffusion", "--config", "cfg.json", "--data", data]) == 0
        model = workdir / "runs/train-diffusion/seed-0/score_model.bin"
        _write_nan(model, array)
        out = workdir / "fresh" / "pre"
        capsys.readouterr()
        pretrain = ["pretrain", "--config", "cfg.json", "--data", data, "--diffusion", model]
        assert run(pretrain + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert f"blob array {array!r} holds a non-finite value" in err
        assert "Traceback" not in err
        assert not out.parent.exists()

    # Each case: the checkpoint's (action_low, action_high) and the array
    # named.  Swapped or equal bounds used to abort at the first TD target
    # (exit 3), a wider box to load and clip every action, and a one-entry
    # box to fail at the policy's output width.
    @pytest.mark.parametrize(
        "low, high, named",
        [
            ([1.0, 1.0], [-1.0, -1.0], "action_low"),
            ([0.0, 0.0], [0.0, 0.0], "action_low"),
            ([-5.0, -5.0], [5.0, 5.0], "action_low"),
            ([-1.0, -1.0], [1.0, 5.0], "action_high"),
            ([-1.0], [1.0], "action_low"),
        ],
        ids=["swapped", "equal", "wide", "wide-high", "one-entry"],
    )
    def test_foreign_action_box_exits_2_without_leftover(self, workdir, capsys, low, high, named):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        pre = ["--override", "offline_alg=sac", "--override", "offline_steps=2"]
        assert run(["pretrain", "--config", "cfg.json", *pre, "--data", data, "--out", "pre"]) == 0
        path = workdir / "pre" / "seed-0" / "checkpoint.bin"
        header, arrays = blobio.read_blob(path, AGENT_MAGIC)
        arrays.update(action_low=np.array(low), action_high=np.array(high))
        blobio.write_blob(path, AGENT_MAGIC, header, arrays)
        out = workdir / "fresh" / "fin"
        capsys.readouterr()
        finetune = ["finetune", "--config", "cfg.json", "--data", data]
        assert run(finetune + ["--checkpoint", path, "--out", out]) == 2
        assert f"checkpoint array {named!r}" in capsys.readouterr().err
        assert not out.parent.exists()

    # Each case drops or changes one header key (a dotted path, whose
    # numbers index lists) of a file the command reads first: (file, key,
    # new value as JSON text or None to drop it, name in the error).  A
    # missing key or array used to escape as a KeyError, and a wrongly
    # typed value as a TypeError.
    @pytest.mark.parametrize(
        "target, key, value, named",
        [
            ("checkpoint", "opt_states.critics", None, "critics"),
            ("checkpoint", "opt_states.policy", None, "policy"),
            ("score_model", "k_embed_dim", None, "k_embed_dim"),
            ("checkpoint", "policy_spec", "null", "policy_spec"),
            ("checkpoint", "policy_spec.layer_widths", "5", "layer_widths"),
            ("checkpoint", "critic_spec.output_transform", '"exp"', "output_transform"),
            ("checkpoint", "opt_states.policy.learning_rate", '"x"', "learning_rate"),
            ("checkpoint", "opt_states.policy", "5", "policy"),
            ("checkpoint", "policy_squash", "1", "policy_squash"),
            # An unsquashed policy, which used to load and fine-tune.
            ("checkpoint", "policy_squash", "false", "policy_squash"),
            ("score_model", "k_embed_dim", '"8"', "k_embed_dim"),
            ("score_model", "layer_widths", "null", "layer_widths"),
            # Values of the right type but out of range, which used to load.
            ("checkpoint", "step", "-5", "step"),
            ("checkpoint", "rng_states", "5", "rng_states"),
            ("checkpoint", "rng_states.cql", None, "rng_states"),
            ("checkpoint", "rng_states.batch.state", "7", "rng_states"),
            # Non-finite floats, which used to load and fine-tune.
            ("checkpoint", "log_entropy_coef", "-Infinity", "log_entropy_coef"),
            ("checkpoint", "target_entropy", "NaN", "target_entropy"),
            # A bad array manifest, which used to escape as a TypeError, or
            # exit 2 without naming the entry.  The first array is
            # 'action_low'.
            ("checkpoint", "arrays", "5", "arrays"),
            ("checkpoint", "arrays.0.1", '"ab"', "action_low"),
            ("checkpoint", "arrays.0.1", "[1.5]", "action_low"),
            ("checkpoint", "arrays.0.1", "[true]", "action_low"),
            ("checkpoint", "arrays.0.1", "[-1]", "action_low"),
            ("checkpoint", "arrays.0", '["action_low"]', "action_low"),
            ("checkpoint", "arrays.1.0", '"action_low"', "action_low"),
            # Optimizer settings out of range, which used to load, or to
            # fail without naming the entry.
            *(
                ("checkpoint", f"opt_states.{name}.{key}", value, f"opt_states.{name}.{key}")
                for name, key, value in [
                    ("policy", "step_count", "-5"),
                    ("critics", "beta1", "1.5"),
                    ("policy", "eps", "-1"),
                    ("critics", "ns_iterations", "0"),
                    ("policy", "learning_rate", "Infinity"),
                    ("policy", "learning_rate", "0"),
                ]
            ),
        ],
    )
    def test_incomplete_blob_header_exits_2_without_leftover(
        self, workdir, capsys, target, key, value, named
    ):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        assert run(["train-diffusion", "--config", "cfg.json", "--data", data]) == 0
        model = workdir / "runs/train-diffusion/seed-0/score_model.bin"
        pre = ["--override", "offline_alg=sac", "--override", "offline_steps=2"]
        assert run(["pretrain", "--config", "cfg.json", *pre, "--data", data, "--out", "pre"]) == 0
        ckpt = workdir / "pre/seed-0/checkpoint.bin"
        path = ckpt if target == "checkpoint" else model
        raw = path.read_bytes()
        (head_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + head_len])
        *parents, last = [int(part) if part.isdigit() else part for part in key.split(".")]
        node = header
        for part in parents:
            node = node[part]
        if value is None:
            del node[last]
        else:
            node[last] = json.loads(value)
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<I", len(head)) + head + raw[12 + head_len :])
        out = workdir / "fresh" / "out"
        capsys.readouterr()
        if target == "checkpoint":
            argv = ["finetune", "--config", "cfg.json", "--data", data, "--checkpoint", ckpt]
        else:
            argv = ["pretrain", "--config", "cfg.json", "--data", data, "--diffusion", model]
        assert run(argv + ["--out", out]) == 2
        assert repr(named) in capsys.readouterr().err
        assert not out.parent.exists()

    # Each case edits one entry of a file so that it no longer fits:
    # (file, entry named, edit of its header and arrays).  These used to
    # exit 2 with a shape or schedule message that named neither the file
    # nor the entry.  A checkpoint is read as landscape-plane's
    # --checkpoint-b, beside two good ones, so its path tells them apart.
    @pytest.mark.parametrize(
        "target, named, edit",
        [
            ("score_model", "alpha_bar", lambda h, a: a["alpha_bar"].__setitem__(0, 1.5)),
            ("score_model", "alpha_bar", lambda h, a: a.update(alpha_bar=a["alpha_bar"][::-1])),
            ("score_model", "alpha_bar", lambda h, a: a.update(alpha_bar=a["alpha_bar"][:1])),
            ("score_model", "params", lambda h, a: a.update(params=a["params"][:-1])),
            ("score_model", "k_embed_dim", lambda h, a: h.update(k_embed_dim=9)),
            ("checkpoint", "policy", lambda h, a: a.update(policy=a["policy"][:-1])),
            ("checkpoint", "targets", lambda h, a: a.update(targets=a["targets"][:, :-1])),
        ],
        ids=["schedule-above-1", "schedule-rising", "schedule-one-level", "params-short",
             "k-embed-dim", "policy-short", "targets-short"],
    )
    def test_misfit_file_exits_2_naming_file_and_entry(self, workdir, capsys, target, named, edit):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        if target == "score_model":
            assert run(["train-diffusion", "--config", "cfg.json", "--data", data]) == 0
            path, magic = workdir / "runs/train-diffusion/seed-0/score_model.bin", CHECKPOINT_MAGIC
            argv = ["pretrain", "--config", "cfg.json", "--data", data, "--diffusion", path]
        else:
            sac = ["--override", "offline_alg=sac"]
            pre = [*sac, "--override", "offline_steps=2", "--override", "seeds=[0,1]"]
            assert run(["pretrain", "--config", "cfg.json", *pre, "--data", data, "--out", "pre"]) == 0
            path, magic = workdir / "bad.bin", AGENT_MAGIC
            path.write_bytes((workdir / "pre/seed-1/checkpoint.bin").read_bytes())
            good = workdir / "pre/seed-0/checkpoint.bin"
            argv = ["landscape-plane", "--config", "cfg.json", *sac, "--checkpoint-a", good,
                    "--checkpoint-b", path, "--checkpoint-c", good]
        header, arrays = blobio.read_blob(path, magic)
        edit(header, arrays)
        blobio.write_blob(path, magic, header, arrays)
        out = workdir / "fresh" / "out"
        capsys.readouterr()
        assert run(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert f"format error: {path}: " in err and repr(named) in err and "Traceback" not in err
        assert not out.parent.exists()

    # Each case: (config override, env of checkpoints a, b[, c]).  The
    # landscape commands used to evaluate in checkpoint a's env and record
    # the config's env in the manifest.
    @pytest.mark.parametrize(
        "command, env_override, ckpt_envs",
        [
            ("landscape-line", ["--override", "env=gate1d"], ("reach2d", "reach2d")),
            ("landscape-line", [], ("reach2d", "gate1d")),
            ("landscape-plane", ["--override", "env=gate1d"], ("reach2d",) * 3),
            ("landscape-plane", [], ("reach2d", "reach2d", "gate1d")),
        ],
    )
    def test_landscape_env_mismatch_exits_2_without_leftover(
        self, workdir, capsys, command, env_override, ckpt_envs
    ):
        for env in sorted(set(ckpt_envs)):
            over = ["--override", f"env={env}", "--override", "offline_alg=sac"]
            run(["gen-data", "--config", "cfg.json", *over, "--out", workdir / f"{env}-data"])
            assert run(
                [
                    "pretrain", "--config", "cfg.json", *over, "--override", "offline_steps=2",
                    "--data", workdir / f"{env}-data/dataset-s0.jsonl", "--out", workdir / env,
                ]
            ) == 0
        ckpts = []
        for flag, env in zip(("--checkpoint-a", "--checkpoint-b", "--checkpoint-c"), ckpt_envs):
            ckpts += [flag, workdir / env / "seed-0" / "checkpoint.bin"]
        out = workdir / "fresh" / "landscape"
        capsys.readouterr()
        code = run([command, "--config", "cfg.json", *env_override, *ckpts, "--out", out])
        assert code == 2
        assert not out.parent.exists()
        bad = "reach2d" if env_override else "gate1d"
        assert f"{bad}/seed-0/checkpoint.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("points", [0, -1])
    def test_landscape_line_without_points_exits_2_without_leftover(self, workdir, capsys, points):
        run(["gen-data", "--config", "cfg.json", "--override", "offline_alg=sac"])
        pre = ["--override", "offline_alg=sac", "--override", "offline_steps=2", "--out", "pre"]
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        assert run(["pretrain", "--config", "cfg.json", *pre, "--data", data]) == 0
        ckpt = workdir / "pre" / "seed-0" / "checkpoint.bin"
        out = workdir / "fresh" / "line"
        capsys.readouterr()
        code = run(
            [
                "landscape-line", "--config", "cfg.json", "--checkpoint-a", ckpt,
                "--checkpoint-b", ckpt, "--points", points, "--out", out,
            ]
        )
        assert code == 2
        assert "--points" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "record, cause",
        [
            ("door,smac,sac", "expected 5 fields, found 3"),
            ("door,smac,sac,50.3,2.7,9", "expected 5 fields, found 6"),
            ("door,smac,sac,nan,2.7", "must be finite"),
            ("door,smac,sac,50.3,inf", "must be finite"),
        ],
    )
    def test_bad_regret_record_exits_2_without_leftover(self, workdir, capsys, record, cause):
        # A NaN regret used to exit 0 with NaN in every normalized cell of
        # its environment; a short line failed in tuple unpacking, naming no line.
        records = workdir / "records.csv"
        run(["regret-table", "--fixture", "--out", workdir / "t1"])
        lines = (workdir / "t1/regret_records.csv").read_text().splitlines()
        lines.insert(3, record)
        records.write_text("\n".join(lines) + "\n")
        out = workdir / "fresh" / "table"
        assert run(["regret-table", "--input", records, "--out", out]) == 2
        err = capsys.readouterr().err
        assert cause in err and "(line 4)" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "row, cause",
        [
            ("reach2d:smac:sac:s0,online,20,eval_return,nan", "'nan' must be finite (line 3)"),
            ("reach2d:smac:sac:s0,online,20,eval_return,inf", "'inf' must be finite (line 3)"),
            ("reach2d:smac:sac:s0,online,1.5,eval_return,-3.0", "'1.5' (line 3)"),
            ("reach2d:smac:sac:s0,online,20,eval_return", "expected 5 fields, found 4 (line 3)"),
            (
                "reach2d:smac:sac:sX,online,20,eval_return,-3.0",
                "run id 'reach2d:smac:sac:sX', expected env:offline:online:s<seed> (line 3)",
            ),
        ],
    )
    def test_bad_metrics_row_exits_2_without_leftover(self, workdir, capsys, row, cause):
        # A NaN used to reach both output tables and exit 0; a bad step, a
        # short row or a bad run id exited 2 naming neither file nor line,
        # and later a bad run id named its file but not its line.
        metrics = workdir / "fin" / "seed-0" / "metrics.csv"
        metrics.parent.mkdir(parents=True)
        rows = [
            "run_id,phase,step,metric,value",
            "reach2d:smac:sac:s0,online,10,eval_return,-5.0",
            row,
            "reach2d:smac:sac:s0,online,30,eval_return,-2.0",
        ]
        metrics.write_text("\n".join(rows) + "\n")
        out = workdir / "fresh" / "table"
        assert run(["regret-table", "--input", workdir / "fin", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{metrics}: " in err and cause in err
        assert not out.parent.exists()

    def test_run_id_in_two_run_directories_exits_2_without_leftover(self, workdir, capsys):
        # A copy of a run (such as a rerun with --jobs 2) used to be folded
        # into the same stream, counting each of its evaluations twice.
        rows = [
            "run_id,phase,step,metric,value",
            "reach2d:smac:sac:s0,online,10,eval_return,-5.0",
            "reach2d:smac:sac:s0,online,20,eval_return,-3.0",
        ]
        first, second = (workdir / "runs" / name / "seed-0" / "metrics.csv" for name in "ab")
        for path in (first, second):
            path.parent.mkdir(parents=True)
            path.write_text("\n".join(rows) + "\n")
        out = workdir / "fresh" / "table"
        assert run(["regret-table", "--input", workdir / "runs", "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"'reach2d:smac:sac:s0' is in both {first} and {second}" in err
        assert not out.parent.exists()
        assert run(["regret-table", "--input", first.parent.parent, "--out", out]) == 0

    @pytest.mark.parametrize("sources", [["--fixture", "--input", "records.csv"], []])
    def test_regret_table_takes_exactly_one_source(self, workdir, capsys, sources):
        # Both used to build the fixture's table and record the input path
        # in the manifest.
        out = workdir / "fresh" / "table"
        with pytest.raises(SystemExit) as exc:
            run(["regret-table", *sources, "--out", out])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
        assert not out.parent.exists()

    # `--alpha inf` used to exit 0 with gap 0, a tiny alpha to write a NaN
    # gap, and `--center inf` to warn before it exited 2.
    @pytest.mark.parametrize(
        "flag", ["--alpha=inf", "--alpha=nan", "--alpha=1e-300", "--alpha=1e-310", "--center=inf"]
    )
    def test_verify_identity_bad_value_exits_2_without_leftover(self, workdir, capsys, flag):
        out = workdir / "fresh" / "identity"
        assert run(["verify-identity", flag, "--out", out]) == 2
        assert flag.split("=")[0].lstrip("-") in capsys.readouterr().err
        assert not out.parent.exists()

    def test_unknown_config_key(self, workdir):
        assert run(["gen-data", "--config", "cfg.json", "--override", "bogus=1"]) == 2

    def test_unknown_flag_exits_2_with_usage(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--bogus-flag"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_existing_output_dir_rejected_before_side_effects(self, workdir):
        out = workdir / "busy"
        out.mkdir()
        (out / "keep.txt").write_text("precious")
        assert run(["gen-data", "--config", "cfg.json", "--out", out]) == 2
        assert (out / "keep.txt").read_text() == "precious"

    def test_numeric_abort_exits_3(self, workdir):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        code = run(
            [
                "pretrain",
                "--config",
                "cfg.json",
                "--override",
                "offline_alg=sac",
                "--override",
                "offline_steps=500",
                "--override",
                "optim.critic_lr=1e12",
                "--override",
                "optim.policy_lr=1e12",
                "--data",
                data,
            ]
        )
        assert code == 3

    # The magic is read first, so a version-2 payload behind the first
    # format's magic stands for a whole file of that format.
    @pytest.mark.parametrize("command", ["finetune", "landscape-plane", "export-checkpoints"])
    def test_first_checkpoint_format_exits_2_without_leftover(self, workdir, capsys, command):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        pre = ["--override", "offline_alg=sac", "--override", "offline_steps=2"]
        assert run(["pretrain", "--config", "cfg.json", *pre, "--data", data, "--out", "pre"]) == 0
        ckpt = workdir / "pre/seed-0/checkpoint.bin"
        old = workdir / "old.bin"
        old.write_bytes(b"SMACAC01" + ckpt.read_bytes()[8:])
        plane = ["--checkpoint-a", ckpt, "--checkpoint-b", ckpt, "--checkpoint-c", old]
        argv = {
            "finetune": ["--data", data, "--checkpoint", old],
            "landscape-plane": plane,
            "export-checkpoints": [ckpt, old],
        }[command]
        out = workdir / "fresh" / "out"
        capsys.readouterr()
        assert run([command, "--config", "cfg.json", *argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "SMACAC01" in err and "SMACAC02" in err and "Traceback" not in err
        assert not out.parent.exists()

    def test_bad_checkpoint_magic_is_config_error(self, workdir):
        run(["gen-data", "--config", "cfg.json"])
        data = workdir / "runs/gen-data/dataset-s0.jsonl"
        bad = workdir / "bad.bin"
        bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        assert run(
            ["finetune", "--config", "cfg.json", "--data", data, "--checkpoint", bad]
        ) == 2

    def test_missing_input_file_is_config_error(self, workdir):
        assert run(
            ["finetune", "--config", "cfg.json", "--data", "missing.jsonl", "--checkpoint", "x"]
        ) == 2

    def test_verify_identity_prints_gap(self, workdir, capsys):
        assert run(["verify-identity", "--alpha", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "gap" in out
        gap = float(out.strip().split()[-1])
        assert gap <= 1e-6


class TestStartupCost:
    def test_import_leaves_the_process_pool_unloaded(self):
        # Only `--jobs N` over several seeds starts a pool, so loading the
        # CLI must not import the pool's modules.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys, o2olab.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_sha256_streams_through_a_small_buffer(self, tmp_path):
        # Several buffers plus a remainder; the digest must match hashlib's,
        # and hashing must not allocate a chunk the size of a megabyte.
        data = np.random.default_rng(0).bytes((4 << 20) + 7)
        path = tmp_path / "blob"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = _sha256(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < 256 << 10, peak

    def test_parser_is_built_once_and_keeps_no_state(self, workdir, capsys):
        # One parser serves every call in a process, so neither a refused
        # flag nor an earlier call's overrides or seed may reach a later call.
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as exc:
            run(["gen-data", "--bogus-flag"])
        assert exc.value.code == 2
        assert "--bogus-flag" in capsys.readouterr().err
        over = ["--override", "data.n_trajectories=3", "--seed", 3, "--out", "over"]
        assert run(["gen-data", "--config", "cfg.json", *over]) == 0
        assert run(["gen-data", "--config", "cfg.json", "--out", "plain"]) == 0
        manifests = [
            json.loads((workdir / d / "manifest.json").read_text()) for d in ("over", "plain")
        ]
        defaults = config_to_dict(load_config(workdir / "cfg.json"))
        assert manifests[0]["seeds"] == [3]
        assert manifests[0]["config"]["data"]["n_trajectories"] == 3
        assert manifests[1]["seeds"] == defaults["seeds"] == [0]
        assert manifests[1]["config"] == defaults


class TestRunId:
    def test_round_trip(self):
        assert parse_run_id("reach2d:smac:sac:s3") == ("reach2d", "smac", "sac", 3)

    @pytest.mark.parametrize(
        "run_id",
        [
            "reach2d:smac:sac:sX",
            "reach2d:smac:s3",
            "reach2d:smac:sac:x:s3",
            "reach2d:smac:sac:3",
            "reach2d:smac:sac:s",
            "reach2d::sac:s3",
            "reach2d:smac:sac:s-1",
        ],
    )
    def test_malformed_run_id_is_quoted(self, run_id):
        with pytest.raises(FormatError, match=f"malformed run id '{run_id}'"):
            parse_run_id(run_id)
