"""Pinned behaviour: every trainer reproduces its recorded trajectory.

The fixture was written by `tests/golden_runs.py`.  Each parameter
vector, metric column and evaluation result must match within RTOL
relative to its largest recorded magnitude (max |new - old| / max |old|);
metric names and the sha256 of each saved dataset file must match
exactly.
"""

import numpy as np
import pytest

from golden_runs import RTOL, flatten, golden_runs, load_fixture, main, relative_deviation


@pytest.fixture(scope="module")
def current():
    return flatten(golden_runs())


@pytest.fixture(scope="module")
def recorded():
    return load_fixture()


def test_same_runs_and_arrays(current, recorded):
    assert sorted(current) == sorted(recorded)
    assert len({key.rsplit("/", 1)[0] for key in recorded}) == 52


def test_metric_names_match(current, recorded):
    for key in recorded:
        if key.endswith("/metric_names"):
            assert current[key].tolist() == recorded[key].tolist(), key


def test_dataset_bytes_match(current, recorded):
    keys = [key for key in recorded if key.endswith("_sha256")]
    assert len(keys) == 4
    for key in keys:
        assert str(current[key]) == str(recorded[key]), key
    for key in keys:
        if key.endswith("/roundtrip_sha256"):
            assert str(current[key]) == str(current[key.replace("roundtrip", "file")]), key


def test_values_match_within_tolerance(current, recorded):
    worst = 0.0
    for key, old in recorded.items():
        if old.dtype.kind == "U":
            continue
        new = current[key]
        assert new.shape == old.shape, key
        rel = relative_deviation(new, old)
        assert rel <= RTOL, f"{key}: relative deviation {rel:.3e}"
        worst = max(worst, rel)
    print(f"max relative deviation {worst:.3e}")


def test_diff_exit_code(monkeypatch, recorded, capsys):
    assert main(["--diff"]) == 0
    key = next(key for key in sorted(recorded) if key.endswith("/policy"))
    bumped = {**recorded, key: recorded[key] * (1.0 + 10.0 * RTOL)}
    monkeypatch.setattr("golden_runs.load_fixture", lambda: bumped)
    assert main(["--diff"]) == 1
    assert key.rsplit("/", 1)[0] in capsys.readouterr().out.splitlines()[-1]
