"""The benchmark's workloads: generated inputs and the timed command sequence.

Each workload is one closed-loop client.  Set-up writes a config and the
inputs it needs (dataset, checkpoints) from the workload seed by running
the program's own commands; a repetition then issues the timed commands
in order, each into a fresh output directory, exactly as a user would.

Sizes are chosen so that one repetition takes a few seconds on one core
with BLAS pinned to one thread.  The "toy" size exists for the harness
self-test only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SIZES = {
    "full": {
        "n_trajectories": 150,
        "diffusion_steps": 400,
        "offline_steps": 150,
        "warm_start": 500,
        "online_steps": 100,
        "setup_steps": 40,
        "gate_trajectories": 30,
        "resolution": 5,
        "plane_episodes": 10,
        "eval_episodes": 5,
    },
    "toy": {
        "n_trajectories": 8,
        "diffusion_steps": 10,
        "offline_steps": 4,
        "warm_start": 40,
        "online_steps": 4,
        "setup_steps": 2,
        "gate_trajectories": 4,
        "resolution": 2,
        "plane_episodes": 1,
        "eval_episodes": 1,
    },
}


@dataclass
class Command:
    """One timed `o2olab` invocation, run as `argv + ["--out", out]`.

    `units` of work per second of the command are reported as `rate`.
    """

    name: str
    argv: list[str]
    out: str
    csvs: tuple[str, ...]
    rate: str
    units: int
    # A metrics CSV needs rows of this metric, all finite; a plane.csv
    # instead needs `plane_rows` rows of finite returns.
    finite_metric: str = "eval_return"
    plane_rows: int | None = None


@dataclass
class Workload:
    name: str
    # For `numkit.forwards_per_step`: one `marker` span per step, counted
    # where the nearest enclosing context span is `context`.
    step_context: str
    step_marker: str
    setup: callable
    commands: callable


def _write_config(in_dir: Path, cfg: dict) -> str:
    path = in_dir / "config.json"
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# smac-offline: the paper's trainer (diffusion, then SMAC with Muon)
# ----------------------------------------------------------------------


def _smac_config(seed: int, z: dict) -> dict:
    return {
        "env": "reach2d",
        "seed": seed,
        "seeds": [seed],
        "offline_alg": "smac",
        "optimizer": "muon",
        "offline_batch": 64,
        "offline_steps": z["offline_steps"],
        "eval_every": z["offline_steps"],
        "eval_episodes": z["eval_episodes"],
        "loss": {"score_match_weight": 40.0},
        "diffusion": {
            "steps": z["diffusion_steps"],
            "batch": 256,
            "n_steps": 16,
            "hidden": [48, 48],
            "activation": "tanh",
        },
        "data": {"n_trajectories": z["n_trajectories"], "behavior_noise": 0.45},
    }


def _gen_data(run, in_dir: Path, cfg_path: str):
    run(["gen-data", "--config", cfg_path, "--out", str(in_dir / "data")])


def _smac_setup(run, in_dir: Path, seed: int, z: dict):
    cfg = _write_config(in_dir, _smac_config(seed, z))
    _gen_data(run, in_dir, cfg)


def _smac_commands(in_dir: Path, out_dir: Path, seed: int, z: dict) -> list[Command]:
    cfg = str(in_dir / "config.json")
    data = str(in_dir / "data" / f"dataset-s{seed}.jsonl")
    diff = out_dir / "train-diffusion"
    return [
        Command(
            "train-diffusion",
            ["train-diffusion", "--config", cfg, "--data", data],
            str(diff),
            (f"seed-{seed}/metrics.csv",),
            "diffusion_steps_per_s",
            z["diffusion_steps"],
            finite_metric="diffusion_loss",
        ),
        Command(
            "pretrain",
            [
                "pretrain", "--config", cfg, "--data", data,
                "--diffusion", str(diff / f"seed-{seed}" / "score_model.bin"),
            ],
            str(out_dir / "pretrain"),
            (f"seed-{seed}/metrics.csv",),
            "offline_steps_per_s",
            z["offline_steps"],
        ),
    ]


# ----------------------------------------------------------------------
# sac-online: fine-tuning control (no second-order pass, no diffusion)
# ----------------------------------------------------------------------


def _sac_config(seed: int, z: dict) -> dict:
    return {
        "env": "reach2d",
        "seed": seed,
        "seeds": [seed],
        "offline_alg": "sac",
        "online_alg": "sac",
        "optimizer": "adam",
        "offline_batch": 64,
        "offline_steps": z["setup_steps"],
        "online_batch": 256,
        "online_steps": z["online_steps"],
        "mix": 0.5,
        "warm_start_count": z["warm_start"],
        "eval_every": z["online_steps"],
        "eval_episodes": z["eval_episodes"],
        "data": {"n_trajectories": z["n_trajectories"], "behavior_noise": 0.45},
    }


def _sac_setup(run, in_dir: Path, seed: int, z: dict):
    cfg = _write_config(in_dir, _sac_config(seed, z))
    _gen_data(run, in_dir, cfg)
    data = str(in_dir / "data" / f"dataset-s{seed}.jsonl")
    run(["pretrain", "--config", cfg, "--data", data, "--out", str(in_dir / "pretrain")])


def _sac_commands(in_dir: Path, out_dir: Path, seed: int, z: dict) -> list[Command]:
    return [
        Command(
            "finetune",
            [
                "finetune", "--config", str(in_dir / "config.json"),
                "--data", str(in_dir / "data" / f"dataset-s{seed}.jsonl"),
                "--checkpoint", str(in_dir / "pretrain" / f"seed-{seed}" / "checkpoint.bin"),
            ],
            str(out_dir / "finetune"),
            (f"seed-{seed}/metrics.csv",),
            "online_steps_per_s",
            z["online_steps"],
        )
    ]


# ----------------------------------------------------------------------
# landscape-plane: pure inference over a plane of gate1d policies
# ----------------------------------------------------------------------


def _plane_config(seed: int, z: dict) -> dict:
    return {
        "env": "gate1d",
        "seed": seed,
        "seeds": [seed, seed + 1, seed + 2],
        "offline_alg": "sac",
        "optimizer": "adam",
        "offline_batch": 64,
        "offline_steps": z["setup_steps"],
        "eval_episodes": z["plane_episodes"],
        "data": {"n_trajectories": z["gate_trajectories"]},
    }


def _plane_setup(run, in_dir: Path, seed: int, z: dict):
    cfg = _write_config(in_dir, _plane_config(seed, z))
    _gen_data(run, in_dir, cfg)
    data = str(in_dir / "data" / f"dataset-s{seed}.jsonl")
    run(["pretrain", "--config", cfg, "--data", data, "--out", str(in_dir / "pretrain")])


def _plane_commands(in_dir: Path, out_dir: Path, seed: int, z: dict) -> list[Command]:
    ckpt = [str(in_dir / "pretrain" / f"seed-{seed + i}" / "checkpoint.bin") for i in range(3)]
    res = z["resolution"]
    return [
        Command(
            "landscape-plane",
            [
                "landscape-plane", "--config", str(in_dir / "config.json"),
                "--checkpoint-a", ckpt[0], "--checkpoint-b", ckpt[1], "--checkpoint-c", ckpt[2],
                "--resolution", str(res),
            ],
            str(out_dir / "landscape-plane"),
            ("plane.csv",),
            "eval_episodes_per_s",
            res * res * z["plane_episodes"],
            plane_rows=res * res,
        )
    ]


# Why each workload exists, and what it should and should not move:
# BENCHMARK.json and expectations.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="smac-offline",
            step_context="pipeline.offline_pretrain",
            step_marker="envs.Dataset.sample_batch",
            setup=_smac_setup,
            commands=_smac_commands,
        ),
        Workload(
            name="sac-online",
            step_context="pipeline.online_finetune",
            step_marker="envs.mixed_batch",
            setup=_sac_setup,
            commands=_sac_commands,
        ),
        Workload(
            name="landscape-plane",
            step_context="pipeline.evaluate_policy",
            step_marker="envs.env_step",
            setup=_plane_setup,
            commands=_plane_commands,
        ),
    )
}
