"""The o2olab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process is one closed-loop client:
it generates the workload's inputs from the seed, then issues the
workload's `o2olab` commands in-process, one after another, each into a
fresh output directory, until `--seconds` have passed.  Every command is
timed from outside and its outputs are checked.

With `--trace 0` the last line of stdout is a JSON object carrying the
end-to-end metrics (medians over repetitions).  With `--trace 1` the same
untraced repetitions run first, then one more repetition with spans
recorded around the public functions of every module (see `spans.py`),
and the last line carries the per-layer metrics instead; the spans are
written to `.perfbench-out/`.

`--toy` shrinks every workload to a few steps; `selftest.py` uses it.
"""

from __future__ import annotations

import os
import time

_PROCESS_START = time.perf_counter()

# BLAS and OpenMP must be pinned before numpy is first imported: every
# matrix is at most 256x64, where extra threads only add contention.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
TRACE_ROOT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
# At least two, so that the byte-identity check always compares two runs.
MIN_REPS = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "work_per_s": "1/s",
}


class SetupError(RuntimeError):
    pass


def _import_program():
    """Import the program from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import o2olab.cli
    except ImportError as exc:
        raise SetupError(f"cannot import o2olab from {src}: {exc}") from None

    where = Path(o2olab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"o2olab was imported from {where}, not from {src}")
    return o2olab


def _invoke(o2olab, argv):
    """Run one command in-process; returns (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = o2olab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a harness error
            code = 1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue()


def _tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _check_csv(cmd, rel: str, text: str) -> list[str]:
    lines = text.splitlines()
    if cmd.plane_rows is not None:
        rows = [line.split(",") for line in lines[1:]]
        problems = [] if len(rows) == cmd.plane_rows else [
            f"{rel} has {len(rows)} rows, expected {cmd.plane_rows}"
        ]
        values = [float(r[2]) for r in rows]
    else:
        rows = (line.split(",") for line in lines[1:])
        values = [float(r[4]) for r in rows if r[3] == cmd.finite_metric]
        problems = [] if values else [f"{rel} has no {cmd.finite_metric} rows"]
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{rel} has a non-finite value")
    return problems


class Bench:
    """One workload at one seed: set-up, timed repetitions, output checks."""

    def __init__(self, o2olab, workload, seed: int, size: dict, work: Path):
        self.o2olab = o2olab
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.inputs = None
        self.reference = {}  # (command, csv) -> bytes of the first run
        self.attempted = 0
        self.failed = 0

    def _setup_command(self, argv):
        code, _, err = _invoke(self.o2olab, argv)
        if code != 0:
            raise SetupError(f"set-up command {argv[0]} exited {code}: {err.strip()}")

    def setup(self) -> list[float]:
        """Generate the inputs SETUP_REPEATS times; they must be identical."""
        times = []
        trees = []
        for i in range(SETUP_REPEATS):
            in_dir = self.work / f"inputs-{i}"
            in_dir.mkdir()
            start = time.perf_counter()
            self.workload.setup(self._setup_command, in_dir, self.seed, self.size)
            times.append(time.perf_counter() - start)
            trees.append(_tree(in_dir))
        if any(t != trees[0] for t in trees[1:]):
            raise SetupError("set-up produced different inputs from the same seed")
        self.inputs = self.work / "inputs-0"
        return times

    def check(self, cmd, out: Path) -> list[str]:
        try:
            tree = _tree(out)
            artifacts = json.loads(tree.pop("manifest.json"))["artifacts"]
            problems = []
            if sorted(tree) != sorted(artifacts):
                problems.append(f"manifest lists {sorted(artifacts)}, found {sorted(tree)}")
            for rel, digest in artifacts.items():
                if rel in tree and hashlib.sha256(tree[rel]).hexdigest() != digest:
                    problems.append(f"sha256 of {rel} does not match the manifest")
            for rel in cmd.csvs:
                data = tree[rel]
                if data != self.reference.setdefault((cmd.name, rel), data):
                    problems.append(f"{rel} differs from the first run's bytes")
                problems += _check_csv(cmd, rel, data.decode("utf-8"))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return problems

    def repetition(self, index: int):
        """Issue the workload's commands once; returns (wall seconds, rates)."""
        out_dir = self.work / f"rep-{index}"
        wall = 0.0
        rates = {}
        for cmd in self.workload.commands(self.inputs, out_dir, self.seed, self.size):
            code, elapsed, err = _invoke(self.o2olab, cmd.argv + ["--out", cmd.out])
            self.attempted += 1
            problems = self.check(cmd, Path(cmd.out)) if code == 0 else [
                f"exit code {code}: {err.strip()}"
            ]
            if problems:
                self.failed += 1
                print(f"FAILED {cmd.name} (repetition {index}): " + "; ".join(problems), file=sys.stderr)
            wall += elapsed
            rates[cmd.rate] = cmd.units / elapsed
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, rates


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def _row(name, value, unit, n):
    return f"  {name:<24s} {value:14.6g} {unit:<8s} n={n}"


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    o2olab = _import_program()
    import_s = time.perf_counter() - _PROCESS_START
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=WORK_ROOT))
    try:
        bench = Bench(o2olab, workload, args.seed, SIZES["toy" if args.toy else "full"], work)
        setup_times = bench.setup()

        walls = []
        rates = defaultdict(list)
        deadline = time.perf_counter() + args.seconds
        while len(walls) < MIN_REPS or time.perf_counter() < deadline:
            wall, rep_rates = bench.repetition(len(walls))
            walls.append(wall)
            for name, value in rep_rates.items():
                rates[name].append(value)
        # work_per_s is the rate of the workload's last (main) command.
        headline = list(rates)[-1]

        print(f"{workload.name} seed={args.seed}: {len(walls)} repetitions, "
              f"{bench.attempted} commands, {bench.failed} failed")
        print("  wall_s per repetition: " + " ".join(f"{w:.4f}" for w in walls))
        e2e = {
            "setup_s": (import_s + statistics.median(setup_times), len(setup_times)),
            "wall_s": (statistics.median(walls), len(walls)),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "work_per_s": (statistics.median(rates[headline]), len(walls)),
        }
        for name, (value, n) in e2e.items():
            print(_row(name, value, E2E_UNITS[name], n))
        for name, values in rates.items():
            print(_row(name, statistics.median(values), "1/s", len(values)))
        print(json.dumps({"environment": environment()}, sort_keys=True))

        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, (v, _) in e2e.items()}
        if args.trace:
            metrics = _traced(bench, o2olab, statistics.median(walls), args.seed)
        return {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass


def _traced(bench, o2olab, untraced_wall: float, seed: int) -> dict:
    tracer = Tracer()
    clips = o2olab.envs.clip_warning_count()
    tracer.install()
    try:
        wall, _ = bench.repetition(-1)
    finally:
        tracer.uninstall()
    clips = o2olab.envs.clip_warning_count() - clips
    overhead = 100.0 * (wall - untraced_wall) / untraced_wall
    TRACE_ROOT.mkdir(exist_ok=True)
    path = TRACE_ROOT / f"trace-{bench.workload.name}-s{seed}.jsonl"
    tracer.write(path)
    print(f"traced repetition: {wall:.4f} s, {len(tracer.spans)} spans written to {path}")
    values = layer_metrics(tracer, bench.workload, clips, overhead)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
