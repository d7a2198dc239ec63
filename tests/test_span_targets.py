"""The benchmark's span targets still name functions of the package,
and the benchmark still runs.

`perfbench/spans.py` wraps each `TARGETS` entry when a traced benchmark
run starts; a target that no longer resolves makes every such run fail.
The module is loaded from its file as it is, without importing the rest
of the benchmark.  The per-call measures that the tracer reads from a
target's arguments are checked by running the benchmark's own self-test.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("mod_name, qualname", TARGETS, ids=[f"{m}.{q}" for m, q in TARGETS])
def test_target_resolves(mod_name, qualname):
    # Resolved the way `Tracer.install` does: a method through its class's
    # own `__dict__`, a function through its home module.
    home = importlib.import_module(f"o2olab.{mod_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(home, cls_name))
        target = vars(getattr(home, cls_name))[attr]
    else:
        target = getattr(home, qualname)
    assert callable(target)


def test_benchmark_self_test_passes():
    # Toy runs of every workload, untraced and traced; about 5 s.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
