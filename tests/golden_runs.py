"""Golden trajectories: short, fixed runs of every trainer in the lab.

`golden_runs()` runs, on both environments:

- `train_score_model` on a tiny score model;
- each offline algorithm under each optimizer (adam, muon);
- each online algorithm under each optimizer, fine-tuned from that
  environment's smac/adam checkpoint, with an unbounded replay buffer;
- online sac/adam once more with `replay_capacity` equal to
  `warm_start_count`, so every online push evicts the oldest transition;
- `save_dataset` on the generated dataset, then `load_dataset` and
  `save_dataset` again;
- `evaluate_policy` of a fixed (8, 8) policy at 1, 7 and 20 episodes.
  On gate1d the policy's mean action is a constant 0.22, so episodes end
  at different steps, one on the last step, and those that start below
  about -0.52 run the full horizon;
- `plane_grid_eval` and `interpolate_eval` through three fixed (8, 8)
  policies at 1 and 7 episodes.  On gate1d each policy pushes towards
  the gate at its own speed (0.18, 0.26 or 0.34 plus a small
  state-dependent term), so within a cell episodes end at different
  steps, and the slowest cells run some episodes to the horizon.

Each training run yields its final parameter vectors (policy, every
critic member and target, and the scale or value net when the agent has
one) and its metric rows.  The dataset run yields the sha256 of both
saved files and the Monte-Carlo returns and outcome labels recomputed on
load.  The evaluate run yields the (mean, stderr) pairs.
`tests/test_golden.py` compares a fresh run with the
recorded fixture, so a refactor that claims to keep behaviour is checked
against numbers pinned before it, not against a rerun of itself.

Regenerate the fixture only for an intended change to the numbers:

    PYTHONPATH=src python tests/golden_runs.py

With `--diff` the script instead prints each run's max relative deviation
from the fixture, leaves the fixture as it is, and exits 1 when any run
deviates by more than RTOL (0 otherwise):

    PYTHONPATH=src python tests/golden_runs.py --diff

With `--cli OUT` it runs a fixed chain of `o2olab` commands into the new
directory OUT and prints the sha256 of every file the chain wrote, one
`<sha256>  <path under OUT>` line each.  Per environment, with seeds 1
and 7: gen-data, train-diffusion, pretrain with every offline algorithm,
finetune from the smac checkpoints with every online algorithm (sac
once more with `--jobs 2`, into `OUT/jobs2/<env>`), landscape-line,
landscape-plane, export-checkpoints of the plane's three checkpoints, regret-table three
ways (`--input` over the environment's run directories, `--input` over
the regret records that run wrote, and `--fixture`) and
verify-identity, so that every CSV writer runs.  Two
more gen-data runs cover the other dataset paths: one without behaviour
noise, and on gate1d one with so low a `behavior_gain` that some
episodes run to the horizon while others end early.  After the files
it prints, for every agent checkpoint, the sha256 of each field that
`load_checkpoint` returns, one `<sha256>  <path under OUT>#<field>` line
each: so a change to the checkpoint file format shows in the listing
only as the digests of the `.bin` files and of the manifests that list
them, while every field line still matches.  Run it in two checkouts
and `diff` the listings to show that a change keeps every artifact's
bytes.  Use the same OUT path in both, since manifests record input
paths:

    PYTHONPATH=src python tests/golden_runs.py --cli /tmp/chain > hashes.txt

This check is no test: checkpoint bytes depend on the BLAS build, so
only listings made on one host compare.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from o2olab import cli
from o2olab.analysis import interpolate_eval, plane_basis, plane_grid_eval
from o2olab.diffusion import cosine_schedule, init_score_model, train_score_model
from o2olab.envs import (
    ScriptedPolicy,
    generate_dataset,
    load_dataset,
    make_env_spec,
    save_dataset,
)
from o2olab.networks import make_policy
from o2olab.numkit import spec_header, unflatten
from o2olab.pipeline import (
    OFFLINE_ALGS,
    ONLINE_ALGS,
    config_from_dict,
    evaluate_policy,
    load_checkpoint,
    offline_pretrain,
    online_finetune,
)
from o2olab.seeding import stream

FIXTURE = Path(__file__).parent / "data" / "golden_trajectories.npz"
# Largest max |new - old| / max |old| a run may show against the fixture.
RTOL = 1e-10
ENVS = ("reach2d", "gate1d")
OPTIMIZERS = ("adam", "muon")
EVAL_EPISODES = (1, 7, 20)
LANDSCAPE_EPISODES = (1, 7)
# Each gate1d landscape policy's push towards the gate, before its
# state-dependent term.
GATE_PUSHES = (0.18, 0.26, 0.34)


def _config(env: str, **over):
    base = {
        "env": env,
        "offline_steps": 6,
        "online_steps": 6,
        "offline_batch": 8,
        "online_batch": 8,
        "warm_start_count": 12,
        "eval_every": 3,
        "eval_episodes": 1,
        "loss": {"score_match_weight": 2.0},
        "networks": {
            "critic_hidden": [8, 8],
            "policy_hidden": [8, 8],
            "scale_hidden": [8, 8],
            "value_hidden": [8, 8],
        },
    }
    base.update(over)
    return config_from_dict(base)


def _agent_arrays(agent) -> dict:
    arrays = {"policy": agent.policy.params.values}
    for i, member in enumerate(agent.critics.member_stack.values):
        arrays[f"critic{i}"] = member
    for i, target in enumerate(agent.critics.target_stack.values):
        arrays[f"target{i}"] = target
    if agent.scale_net is not None:
        arrays["scale"] = agent.scale_net.params.values
    if agent.value_net is not None:
        arrays["value"] = agent.value_net.params.values
    return arrays


def _metric_arrays(rows) -> dict:
    return {
        "metric_names": np.array([f"{r[0]},{r[1]},{r[2]},{r[3]}" for r in rows]),
        "metric_values": np.array([float(r[4]) for r in rows]),
    }


def _dataset_arrays(dataset) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.jsonl", Path(tmp) / "second.jsonl"
        save_dataset(dataset, first)
        back = load_dataset(first)
        save_dataset(back, second)
        return {
            "file_sha256": np.array(hashlib.sha256(first.read_bytes()).hexdigest()),
            "roundtrip_sha256": np.array(hashlib.sha256(second.read_bytes()).hexdigest()),
            "mc": back.mc,
            "w_labels": back.w_labels,
        }


def _evaluate_arrays(env) -> dict:
    policy = make_policy(
        env.state_dim, env.action_low, env.action_high, (8, 8), stream(7, "golden-eval")
    )
    if env.name == "gate1d":
        # The mean head ignores the state: every mean action is tanh(atanh(0.22)).
        weight, bias = unflatten(policy.params)[-1]
        weight[: env.action_dim] = 0.0
        bias[: env.action_dim] = np.arctanh(0.22)
    results = [evaluate_policy(policy, env, n, seed=8) for n in EVAL_EPISODES]
    return {
        "episodes": np.array(EVAL_EPISODES),
        "mean": np.array([mean for mean, _ in results]),
        "stderr": np.array([err for _, err in results]),
    }


def _landscape_policies(env):
    policies = []
    for i in range(3):
        policy = make_policy(
            env.state_dim, env.action_low, env.action_high, (8, 8), stream(9 + i, "golden-landscape")
        )
        if env.name == "gate1d":
            weight, bias = unflatten(policy.params)[-1]
            weight *= 0.1
            bias[0] = np.arctanh(GATE_PUSHES[i])
        policies.append(policy)
    return policies


def _plane_arrays(env) -> dict:
    a, b, c = _landscape_policies(env)
    basis = plane_basis(a.params, b.params, c.params)
    arrays = {}
    for n in LANDSCAPE_EPISODES:
        returns, coords, _ = plane_grid_eval(a, basis, env, n, seed=10, resolution=4)
        arrays[f"returns_e{n}"] = returns
    arrays["coords"] = coords
    return arrays


def _line_arrays(env) -> dict:
    _, b, c = _landscape_policies(env)
    ts = np.linspace(-0.25, 1.25, 7)
    arrays = {"ts": ts}
    for n in LANDSCAPE_EPISODES:
        curve = interpolate_eval(b, b.params, c.params, ts, env, n, seed=11)
        arrays[f"mean_e{n}"] = np.array([mean for _, mean, _ in curve])
        arrays[f"stderr_e{n}"] = np.array([err for _, _, err in curve])
    return arrays


def golden_runs() -> dict:
    """{run name: {array name: array}} for every golden run."""
    runs = {}
    for env_name in ENVS:
        env = make_env_spec(env_name)
        dataset = generate_dataset(env, ScriptedPolicy(env, 0.5), 6, seed=3)
        runs[f"{env_name}/dataset"] = _dataset_arrays(dataset)

        model = init_score_model(
            env.state_dim,
            env.action_dim,
            cosine_schedule(8),
            stream(4, "init-diffusion"),
            hidden=(8, 8),
            action_low=env.action_low,
            action_high=env.action_high,
        )
        model, losses = train_score_model(model, dataset, 8, 16, 1e-3, seed=4)
        runs[f"{env_name}/diffusion"] = {"score": model.params.values, "losses": losses}

        smac_start = None
        for alg in OFFLINE_ALGS:
            for opt in OPTIMIZERS:
                cfg = _config(env_name, offline_alg=alg, optimizer=opt)
                agent, rows = offline_pretrain(cfg, dataset, model, seed=5, run_id=alg)
                runs[f"{env_name}/offline/{alg}/{opt}"] = {
                    **_agent_arrays(agent),
                    **_metric_arrays(rows),
                }
                if alg == "smac" and opt == "adam":
                    smac_start = agent

        for alg in ONLINE_ALGS:
            for opt in OPTIMIZERS:
                cfg = _config(env_name, online_alg=alg, optimizer=opt)
                agent, rows = online_finetune(
                    copy.deepcopy(smac_start), cfg, dataset, env, seed=6, run_id=alg
                )
                runs[f"{env_name}/online/{alg}/{opt}"] = {
                    **_agent_arrays(agent),
                    **_metric_arrays(rows),
                }

        # Capacity equal to the warm-start count: every online push evicts.
        cfg = _config(env_name, optimizer="adam", replay_capacity=12)
        agent, rows = online_finetune(
            copy.deepcopy(smac_start), cfg, dataset, env, seed=6, run_id="ring"
        )
        runs[f"{env_name}/online-ring/sac/adam"] = {**_agent_arrays(agent), **_metric_arrays(rows)}
        runs[f"{env_name}/evaluate"] = _evaluate_arrays(env)
        runs[f"{env_name}/plane"] = _plane_arrays(env)
        runs[f"{env_name}/line"] = _line_arrays(env)
    return runs


CLI_SEEDS = (1, 7)
# A gate1d behaviour gain at which some of the 20 episodes per seed run
# to the horizon and the others end early.
LOW_GAIN = 0.3


def _cli_config(env: str) -> dict:
    """Default networks and batches, few steps: one chain takes about a minute."""
    return {
        "env": env,
        "seeds": list(CLI_SEEDS),
        "offline_steps": 20,
        "online_steps": 20,
        "warm_start_count": 300,
        "eval_every": 10,
        "eval_episodes": 3,
        "loss": {"score_match_weight": 4.0},
        "diffusion": {"steps": 40, "batch": 64, "n_steps": 8, "hidden": [32, 32]},
        "data": {"n_trajectories": 20},
    }


def cli_chain(out: Path):
    """Run the `--cli` command chain into the new directory `out`; the
    commands' own output goes to stderr."""
    for env in ENVS:
        root = out / env
        root.mkdir(parents=True)
        config = root / "config.json"
        config.write_text(json.dumps(_cli_config(env), sort_keys=True, indent=2) + "\n")

        def run(command, *argv, dest):
            # Into `root / dest`, which is `dest` itself when it is absolute.
            argv = [command, "--config", str(config), *map(str, argv), "--out", str(root / dest)]
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{env}: `o2olab {' '.join(argv)}` exited {code}")

        first = f"seed-{CLI_SEEDS[0]}"
        data = root / "data" / f"dataset-s{CLI_SEEDS[0]}.jsonl"
        run("gen-data", dest="data")
        run("gen-data", "--override", "data.behavior_noise=0.0", dest="data-noise0")
        if env == "gate1d":
            run("gen-data", "--override", f"data.behavior_gain={LOW_GAIN}", dest="data-low-gain")
        run("train-diffusion", "--data", data, dest="diffusion")
        model = root / "diffusion" / first / "score_model.bin"
        for alg in OFFLINE_ALGS:
            extra = ["--diffusion", model] if alg == "smac" else []
            over = ["--override", f"offline_alg={alg}"]
            run("pretrain", "--data", data, *over, *extra, dest=f"pretrain-{alg}")
        smac = root / "pretrain-smac"
        for alg in ONLINE_ALGS:
            over = ["--override", f"online_alg={alg}"]
            run("finetune", "--data", data, "--checkpoint", smac, *over, dest=f"finetune-{alg}")
        # Outside the environment's root: both runs hold the same run ids,
        # which `regret-table --input <root>` would refuse.
        jobs = out.absolute() / "jobs2" / env / "finetune-sac"
        run("finetune", "--data", data, "--checkpoint", smac, "--jobs", 2, dest=jobs)
        run(
            "landscape-line",
            "--checkpoint-a", smac / first / "checkpoint.bin",
            "--checkpoint-b", root / "finetune-sac" / first / "final_checkpoint.bin",
            "--points", 7,
            dest="line",
        )
        run(
            "landscape-plane",
            "--checkpoint-a", root / "pretrain-sac" / first / "checkpoint.bin",
            "--checkpoint-b", root / "pretrain-td3bc" / first / "checkpoint.bin",
            "--checkpoint-c", root / "finetune-td3" / first / "final_checkpoint.bin",
            "--resolution", 5,
            dest="plane",
        )
        run(
            "export-checkpoints",
            root / "pretrain-sac" / first / "checkpoint.bin",
            root / "pretrain-td3bc" / first / "checkpoint.bin",
            root / "finetune-td3" / first / "final_checkpoint.bin",
            dest="matrix",
        )
        run("regret-table", "--input", root, dest="regret-runs")
        records = root / "regret-runs" / "regret_records.csv"
        run("regret-table", "--input", records, dest="regret-records")
        run("regret-table", "--fixture", dest="regret-fixture")
        run("verify-identity", dest="identity")


def checkpoint_fields(agent) -> dict:
    """{field name: value} of every field of a loaded agent checkpoint:
    each value is an array, or a setting that JSON encodes."""
    fields = {
        "step": agent.step,
        "offline_alg": agent.offline_alg,
        "env_name": agent.env_name,
        "log_entropy_coef": agent.log_entropy_coef,
        "target_entropy": agent.target_entropy,
        "rng_states": agent.rng_states,
        "policy.params": agent.policy.params.values,
        "policy.spec": spec_header(agent.policy.params.spec),
        "policy.action_low": agent.policy.action_low,
        "policy.action_high": agent.policy.action_high,
        "critics.members": agent.critics.member_stack.values,
        "critics.targets": agent.critics.target_stack.values,
        "critics.spec": spec_header(agent.critics.member_stack.spec),
    }
    for name in ("scale_net", "value_net"):
        net = getattr(agent, name)
        fields[f"{name}.params"] = None if net is None else net.params.values
        fields[f"{name}.spec"] = None if net is None else spec_header(net.params.spec)
    for name, state in sorted(agent.opt_states.items()):
        settings = dataclasses.asdict(dataclasses.replace(state, m=None, v=None))
        fields[f"opt_states.{name}.settings"] = settings
        fields[f"opt_states.{name}.m"] = state.m
        fields[f"opt_states.{name}.v"] = state.v
    return fields


def field_digest(value) -> str:
    """sha256 of an array's dtype, shape and bytes, or of a setting's JSON."""
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str}{value.shape}".encode()
        return hashlib.sha256(head + np.ascontiguousarray(value).tobytes()).hexdigest()
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def flatten(runs: dict) -> dict:
    return {f"{run}/{name}": arr for run, arrays in runs.items() for name, arr in arrays.items()}


def load_fixture() -> dict:
    with np.load(FIXTURE, allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def relative_deviation(new: np.ndarray, old: np.ndarray) -> float:
    """max |new - old| / max |old| (the absolute deviation if old is 0)."""
    scale = float(np.max(np.abs(old)))
    dev = float(np.max(np.abs(new - old)))
    return dev / scale if scale > 0.0 else dev


def run_deviations(current: dict, recorded: dict) -> dict:
    """{run name: max relative deviation over its numeric arrays}; a run
    whose arrays differ in names, shapes or strings reads inf."""
    worst = {}
    for key in sorted(set(current) | set(recorded)):
        run = key.rsplit("/", 1)[0]
        new, old = current.get(key), recorded.get(key)
        if new is None or old is None or new.shape != old.shape:
            rel = float("inf")
        elif old.dtype.kind == "U":
            rel = 0.0 if new.tolist() == old.tolist() else float("inf")
        else:
            rel = relative_deviation(new, old)
        worst[run] = max(worst.get(run, 0.0), rel)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or compare the golden fixture.")
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print each run's max relative deviation from the fixture; do not rewrite it",
    )
    parser.add_argument(
        "--cli",
        metavar="OUT",
        type=Path,
        help="run the fixed CLI chain into the new directory OUT and print each file's sha256",
    )
    args = parser.parse_args(argv)
    if args.cli is not None:
        cli_chain(args.cli)
        files = sorted(p for p in args.cli.rglob("*") if p.is_file())
        for path in files:
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(args.cli)}")
        count = 0
        for path in sorted(args.cli.rglob("*checkpoint.bin")):
            for field, value in checkpoint_fields(load_checkpoint(path)).items():
                print(f"{field_digest(value)}  {path.relative_to(args.cli)}#{field}")
                count += 1
        print(f"{len(files)} files, {count} checkpoint fields")
        return 0
    flat = flatten(golden_runs())
    if args.diff:
        worst = run_deviations(flat, load_fixture())
        for run, rel in worst.items():
            print(f"{rel:.3e}  {run}")
        print(f"{max(worst.values()):.3e}  max over {len(worst)} runs")
        over = [run for run, rel in worst.items() if not rel <= RTOL]
        if over:
            print(f"{len(over)} run(s) exceed RTOL {RTOL:.0e}: {', '.join(over)}")
            return 1
        return 0
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE, "wb") as fh:
        np.savez_compressed(fh, **flat)
    print(f"wrote {len(flat)} arrays to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
