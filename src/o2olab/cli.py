"""Command-line entry points.

Every run validates its configuration and inputs before touching the
filesystem, writes its artifacts into a temporary directory, records a
manifest (config snapshot, seeds, sha256 of every artifact), and then
atomically renames the directory into place.  Exit codes: 0 success,
2 configuration/input error ("format error: ..." for a file that does
not fit its format, "config error: ..." for any other), 3 numeric
abort during training.  The argument parser is built once per process,
so a caller that runs `main` many times pays for it once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
from functools import cache, partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, pipeline
from .agents import verify_maxent_identity
from .diffusion import (
    cosine_schedule,
    init_score_model,
    load_score_model,
    save_score_model,
    train_score_model,
)
from .envs import ScriptedPolicy, generate_dataset, load_dataset, make_env_spec, save_dataset
from .errors import ConfigError, FormatError, NumericError
from .seeding import stream
from .tables import read_table, write_table


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read through one fixed 64 KiB buffer."""
    digest = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


class _OutputDir:
    """Atomic output directory `args.out`, or O2OLAB_OUT (default ./runs)
    / `args.command`: write into the sibling temp dir `tmp`, rename last.

    Used as a context manager; if the body raises, the temp dir is
    removed, so a failed command leaves nothing behind.
    """

    def __init__(self, args):
        self.command = args.command
        root = Path(os.environ.get("O2OLAB_OUT", "runs"))
        self.out = Path(args.out) if args.out else root / args.command
        if self.out.exists():
            raise ConfigError(f"output directory {self.out} already exists")
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f".{self.out.name}-", dir=self.out.parent))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def finalize(self, config_dict, seeds):
        """Write the manifest, then rename the temp dir to `out`."""
        artifacts = {}
        for path in sorted(self.tmp.rglob("*")):
            if path.is_file():
                artifacts[str(path.relative_to(self.tmp))] = _sha256(path)
        manifest = {
            "command": self.command,
            "config": config_dict,
            "seeds": list(seeds),
            "artifacts": artifacts,
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        (self.tmp / "manifest.json").write_text(text, encoding="utf-8")
        os.replace(self.tmp, self.out)


# Thread counts of the BLAS and OpenMP runtimes a worker process loads.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_seeds(jobs: int, fn, *per_seed):
    """Call fn once per seed, with the i-th item of each `per_seed` list
    as its arguments; in up to `jobs` worker processes, never more than
    there are seeds, when jobs > 1 and there is more than one seed, else
    in order in this process.  Workers are spawned, not forked with this
    process's BLAS thread pool, and each gets one BLAS thread unless the
    user set a thread variable, so that they do not oversubscribe the cores.
    The pool modules load only on that branch, so a serial command never
    pays their import time or memory."""
    if jobs > 1 and len(per_seed[0]) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pinned = [name for name in _THREAD_VARS if name not in os.environ]
        os.environ.update(dict.fromkeys(pinned, "1"))
        try:
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(per_seed[0])),
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                list(pool.map(fn, *per_seed))
        finally:
            for name in pinned:
                os.environ.pop(name, None)
    else:
        for args in zip(*per_seed):
            fn(*args)


def _load_config(args) -> pipeline.ExperimentConfig:
    if not args.config:
        raise ConfigError("--config is required for this command")
    return pipeline.load_config(args.config, args.override)


def _seeds(args, config) -> list[int]:
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative int, got {args.seed}")
        return [args.seed]
    return list(config.seeds)


def _check_finite(args, *flags):
    """Refuse a non-finite value of any of these float flags."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not np.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")


def _run_id(env: str, offline: str, online: str, seed: int) -> str:
    return f"{env}:{offline}:{online}:s{seed}"


_RUN_ID = re.compile(r"([^:]+):([^:]+):([^:]+):s([0-9]+)")


def parse_run_id(run_id: str):
    """(env, offline, online, seed) of a run id that `_run_id` made."""
    match = _RUN_ID.fullmatch(run_id)
    if match is None:
        raise FormatError(f"malformed run id {run_id!r}, expected env:offline:online:s<seed>")
    env, offline, online, seed = match.groups()
    return env, offline, online, int(seed)


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------


def _cmd_gen_data(args) -> int:
    config = _load_config(args)
    env = make_env_spec(config.env)
    seeds = _seeds(args, config)
    behavior = ScriptedPolicy(env, noise_std=config.data.behavior_noise, gain=config.data.behavior_gain)
    with _OutputDir(args) as outdir:
        for seed in seeds:
            dataset = generate_dataset(env, behavior, config.data.n_trajectories, seed)
            save_dataset(dataset, outdir.tmp / f"dataset-s{seed}.jsonl")
        outdir.finalize(pipeline.config_to_dict(config), seeds)
    print(f"wrote {len(seeds)} dataset(s) to {outdir.out}")
    return 0


def _load_config_env_dataset(config, path):
    """Load the dataset at `path`, refusing one of another env than the config's."""
    dataset = load_dataset(path)
    if dataset.env.name != config.env:
        raise ConfigError(f"dataset env {dataset.env.name!r} != config env {config.env!r}")
    return dataset


def _cmd_train_diffusion(args) -> int:
    config = _load_config(args)
    dataset = _load_config_env_dataset(config, args.data)
    seeds = _seeds(args, config)
    dc = config.diffusion
    with _OutputDir(args) as outdir:
        for seed in seeds:
            schedule = cosine_schedule(dc.n_steps)
            model = init_score_model(
                dataset.env.state_dim,
                dataset.env.action_dim,
                schedule,
                stream(seed, "init-diffusion"),
                hidden=dc.hidden,
                k_embed_dim=dc.k_embed_dim,
                activation=dc.activation,
                action_low=dataset.env.action_low,
                action_high=dataset.env.action_high,
            )
            outcome = None if config.rvs_enabled else np.ones(dataset.size)
            model, losses = train_score_model(
                model, dataset, dc.steps, dc.batch, dc.lr, seed, outcome_labels=outcome
            )
            seed_dir = outdir.tmp / f"seed-{seed}"
            seed_dir.mkdir()
            save_score_model(model, seed_dir / "score_model.bin")
            run_id = _run_id(dataset.env.name, "diffusion", "none", seed)
            rows = [
                (run_id, "offline", i + 1, "diffusion_loss", float(v))
                for i, v in enumerate(losses)
                if (i + 1) % max(1, dc.steps // 200) == 0 or i + 1 == dc.steps
            ]
            pipeline.write_metrics_csv(rows, seed_dir / "metrics.csv")
        outdir.finalize(pipeline.config_to_dict(config), seeds)
    print(f"trained {len(seeds)} score model(s) into {outdir.out}")
    return 0


def _pretrain_one(config, dataset, score_model, seed, seed_dir: Path):
    run_id = _run_id(dataset.env.name, config.offline_alg, "offline", seed)
    agent, rows = pipeline.offline_pretrain(
        config, dataset, score_model, seed=seed, run_id=run_id
    )
    seed_dir.mkdir(parents=True, exist_ok=True)
    pipeline.save_checkpoint(agent, seed_dir / "checkpoint.bin")
    pipeline.write_metrics_csv(rows, seed_dir / "metrics.csv")


def _cmd_pretrain(args) -> int:
    config = _load_config(args)
    dataset = _load_config_env_dataset(config, args.data)
    score_model = None
    if config.offline_alg == "smac":
        if not args.diffusion:
            raise ConfigError("pretrain with the score-matched agent needs --diffusion")
        score_model = load_score_model(args.diffusion)
        got, want = (
            (x.state_dim, x.action_dim, x.action_low.tolist(), x.action_high.tolist())
            for x in (score_model, dataset.env)
        )
        if got != want:
            raise ConfigError(
                f"score model {args.diffusion} has (state dim, action dim, action low, action "
                f"high) {got}, not environment {dataset.env.name!r}'s {want}"
            )
    seeds = _seeds(args, config)
    with _OutputDir(args) as outdir:
        _map_seeds(
            args.jobs,
            partial(_pretrain_one, config, dataset, score_model),
            seeds,
            [outdir.tmp / f"seed-{s}" for s in seeds],
        )
        outdir.finalize(pipeline.config_to_dict(config), seeds)
    print(f"pre-trained {len(seeds)} agent(s) into {outdir.out}")
    return 0


def _checkpoint_for_seed(root: Path, seed: int) -> Path:
    if root.is_file():
        return root
    candidate = root / f"seed-{seed}" / "checkpoint.bin"
    if candidate.exists():
        return candidate
    raise ConfigError(f"no checkpoint for seed {seed} under {root}")


def _finetune_one(config, dataset, agent, seed, seed_dir: Path):
    env = make_env_spec(agent.env_name)
    run_id = _run_id(env.name, agent.offline_alg, config.online_alg, seed)
    agent, rows = pipeline.online_finetune(
        agent, config, dataset, env, seed=seed, run_id=run_id
    )
    seed_dir.mkdir(parents=True, exist_ok=True)
    pipeline.save_checkpoint(agent, seed_dir / "final_checkpoint.bin")
    pipeline.write_metrics_csv(rows, seed_dir / "metrics.csv")


def _cmd_finetune(args) -> int:
    config = _load_config(args)
    dataset = _load_config_env_dataset(config, args.data)
    seeds = _seeds(args, config)
    ckpt_root = Path(args.checkpoint)
    # One load per seed: fine-tuning changes its agent in place.
    agents = [pipeline.load_checkpoint(_checkpoint_for_seed(ckpt_root, s)) for s in seeds]
    for agent in agents:
        if agent.env_name != dataset.env.name:
            raise ConfigError(
                f"checkpoint env {agent.env_name!r} != dataset env {dataset.env.name!r}"
            )
    with _OutputDir(args) as outdir:
        _map_seeds(
            args.jobs,
            partial(_finetune_one, config, dataset),
            agents,
            seeds,
            [outdir.tmp / f"seed-{s}" for s in seeds],
        )
        outdir.finalize(pipeline.config_to_dict(config), seeds)
    print(f"fine-tuned {len(seeds)} agent(s) into {outdir.out}")
    return 0


def _load_config_env_checkpoints(config, *paths):
    """Load each checkpoint, refusing any trained on another env than the config's."""
    agents = [pipeline.load_checkpoint(path) for path in paths]
    for path, agent in zip(paths, agents):
        if agent.env_name != config.env:
            raise ConfigError(
                f"checkpoint {path} has env {agent.env_name!r} != config env {config.env!r}"
            )
    return agents


LINE_TABLE = (("t", "mean_return", "stderr"), (float, float, float))
PLANE_TABLE = (("t", "l", "mean_return"), (float, float, float))


def _cmd_landscape_line(args) -> int:
    _check_finite(args, "--t-lo", "--t-hi")
    config = _load_config(args)
    a, b = _load_config_env_checkpoints(config, args.checkpoint_a, args.checkpoint_b)
    env = make_env_spec(config.env)
    seeds = _seeds(args, config)
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    ts = np.linspace(args.t_lo, args.t_hi, args.points)
    results = analysis.interpolate_eval(
        a.policy, a.policy.params, b.policy.params, ts, env, config.eval_episodes, seeds[0]
    )
    with _OutputDir(args) as outdir:
        write_table(outdir.tmp / "line.csv", *LINE_TABLE, results)
        outdir.finalize(pipeline.config_to_dict(config), seeds)
    print(f"wrote interpolation curve to {outdir.out}")
    return 0


def _cmd_landscape_plane(args) -> int:
    _check_finite(args, "--grid-lo", "--grid-hi")
    config = _load_config(args)
    a, b, c = _load_config_env_checkpoints(
        config, args.checkpoint_a, args.checkpoint_b, args.checkpoint_c
    )
    env = make_env_spec(config.env)
    seeds = _seeds(args, config)
    basis = analysis.plane_basis(a.policy.params, b.policy.params, c.policy.params)
    returns, l_coords, t_coords = analysis.plane_grid_eval(
        a.policy,
        basis,
        env,
        config.eval_episodes,
        seeds[0],
        grid_lo=args.grid_lo,
        grid_hi=args.grid_hi,
        resolution=args.resolution,
    )
    rows = [
        (t, l, returns[ti, li]) for ti, t in enumerate(t_coords) for li, l in enumerate(l_coords)
    ]
    with _OutputDir(args) as outdir:
        write_table(outdir.tmp / "plane.csv", *PLANE_TABLE, rows)
        outdir.finalize(pipeline.config_to_dict(config), seeds)
    print(f"wrote plane grid to {outdir.out}")
    return 0


def bundled_fixture_records():
    with resources.as_file(
        resources.files("o2olab").joinpath("data/regret_fixture.csv")
    ) as path:
        return analysis.read_regret_records(path)


# The metrics table with each run id parsed, so that a malformed one is
# refused naming its file and line.
_RUN_METRICS = (pipeline.METRICS_TABLE[0], (parse_run_id, *pipeline.METRICS_TABLE[1][1:]))


def _records_from_runs(root: Path):
    """Collect regret records from finetune run directories.

    Scans for metrics.csv files, groups online eval streams by
    (env, offline, online), takes the best reward observed in each
    environment as its reference, and averages regret over seeds.  An
    online run id found in two files is refused, naming both: its
    evaluations would otherwise be counted twice.
    """
    streams, found_in = {}, {}
    for metrics_path in sorted(root.rglob("metrics.csv")):
        for run, phase, step, metric, value in read_table(metrics_path, *_RUN_METRICS):
            env, offline, online, seed = run
            if phase != "online" or metric != "eval_return" or online in ("offline", "none"):
                continue
            if found_in.setdefault(run, metrics_path) != metrics_path:
                raise FormatError(
                    f"run id {_run_id(*run)!r} is in both {found_in[run]} and {metrics_path}"
                )
            streams.setdefault((env, offline, online), {}).setdefault(seed, []).append(
                (step, value)
            )
    if not streams:
        raise ConfigError(f"no online eval streams found under {root}")
    r_star = {}
    for (env, _, _), by_seed in streams.items():
        best = max(v for evals in by_seed.values() for _, v in evals)
        r_star[env] = max(r_star.get(env, -np.inf), best)
    records = []
    for (env, offline, online), by_seed in sorted(streams.items()):
        per_seed = [
            np.array([v for _, v in sorted(evals)]) for _, evals in sorted(by_seed.items())
        ]
        mean, err, _ = analysis.regret_from_evals(per_seed, r_star[env])
        records.append(analysis.RegretRecord(env, offline, online, mean, err))
    return records


def _cmd_regret_table(args) -> int:
    if args.fixture:
        records = bundled_fixture_records()
    else:
        path = Path(args.input)
        if not path.exists():
            raise ConfigError(f"input {path} does not exist")
        records = analysis.read_regret_records(path) if path.is_file() else _records_from_runs(path)
    table = analysis.aggregate_normalized_regret(records)
    with _OutputDir(args) as outdir:
        analysis.write_regret_table(table, outdir.tmp / "regret_table.csv")
        analysis.write_regret_records(records, outdir.tmp / "regret_records.csv")
        outdir.finalize({"input": "fixture" if args.fixture else args.input}, [])
    header = "offline_alg " + " ".join(f"{on:>8s}" for on in table.online_algs)
    print(header)
    for off in table.offline_algs:
        cells = " ".join(f"{table.averaged[(off, on)]:8.3f}" for on in table.online_algs)
        print(f"{off:11s} {cells}")
    print(f"wrote table to {outdir.out}")
    return 0


def _cmd_verify_identity(args) -> int:
    _check_finite(args, "--alpha", "--center")
    center = args.center
    grid = np.linspace(center - 4.0, center + 4.0, args.grid_points)
    gap = verify_maxent_identity(lambda a: -0.5 * (a - center) ** 2, args.alpha, grid)
    with _OutputDir(args) as outdir:
        (outdir.tmp / "gap.txt").write_text(f"{format(gap, '.17g')}\n", encoding="utf-8")
        outdir.finalize(
            {"alpha": args.alpha, "center": center, "grid_points": args.grid_points}, []
        )
    print(f"max-entropy identity sup-norm gap: {gap:.3e}")
    return 0


def _cmd_export_checkpoints(args) -> int:
    params = []
    for path in args.checkpoints:
        agent = pipeline.load_checkpoint(path)
        params.append(agent.policy.params)
    with _OutputDir(args) as outdir:
        analysis.export_checkpoint_matrix(params, outdir.tmp / "checkpoint_matrix.csv")
        outdir.finalize({"checkpoints": [str(p) for p in args.checkpoints]}, [])
    print(f"wrote {len(params)} x {params[0].values.size} matrix to {outdir.out}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="path to the JSON experiment config")
    sub.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path config override (repeatable, last wins)",
    )
    sub.add_argument("--out", help="output directory (default under O2OLAB_OUT or ./runs)")
    sub.add_argument("--seed", type=int, help="run a single seed instead of config.seeds")
    sub.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel seed workers (pretrain and finetune; other commands run seeds in order)",
    )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and returned by every
    later one: parsing leaves it unchanged, and each parse makes a new
    namespace."""
    parser = argparse.ArgumentParser(
        prog="o2olab", description="Offline-to-online RL laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate an offline dataset with the scripted behavior")
    _add_common(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-diffusion", help="train the outcome-conditioned score model")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset file")
    p.set_defaults(func=_cmd_train_diffusion)

    p = sub.add_parser("pretrain", help="offline pre-training")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--diffusion", help="score model checkpoint (needed for smac)")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="online fine-tuning from a checkpoint")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint file or pretrain output dir")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("landscape-line", help="evaluate along the line between two checkpoints")
    _add_common(p)
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--t-lo", type=float, default=0.0)
    p.add_argument("--t-hi", type=float, default=1.0)
    p.set_defaults(func=_cmd_landscape_line)

    p = sub.add_parser("landscape-plane", help="evaluate a plane spanned by three checkpoints")
    _add_common(p)
    p.add_argument("--checkpoint-a", required=True)
    p.add_argument("--checkpoint-b", required=True)
    p.add_argument("--checkpoint-c", required=True)
    p.add_argument("--resolution", type=int, default=15)
    p.add_argument("--grid-lo", type=float, default=-0.2)
    p.add_argument("--grid-hi", type=float, default=1.2)
    p.set_defaults(func=_cmd_landscape_plane)

    p = sub.add_parser("regret-table", help="aggregate normalized regret over runs")
    _add_common(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="regret records CSV or a directory of finetune runs")
    source.add_argument(
        "--fixture", action="store_true", help="use the bundled published-regret fixture"
    )
    p.set_defaults(func=_cmd_regret_table)

    p = sub.add_parser("verify-identity", help="check the max-entropy score identity by quadrature")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--center", type=float, default=0.25, help="peak of the bundled quadratic Q")
    p.add_argument("--grid-points", type=int, default=2001)
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser("export-checkpoints", help="dump actor parameters as a matrix")
    _add_common(p)
    p.add_argument("checkpoints", nargs="+", help="agent checkpoint files")
    p.set_defaults(func=_cmd_export_checkpoints)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
