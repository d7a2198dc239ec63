"""The benchmark's span targets still name functions of the package.

`perfbench/spans.py` wraps each `TARGETS` entry when a traced benchmark
run starts; a target that no longer resolves makes every such run fail.
The module is loaded from its file as it is, without importing the rest
of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
