"""Binary container: what `read_blob` hands back of the arrays written."""

import numpy as np

from o2olab import blobio

MAGIC = b"TESTBLOB"


def _arrays():
    rng = np.random.default_rng(0)
    return {
        "signed_zero": np.array([-0.0, 0.0, 1.5]),
        "stack": rng.standard_normal((4, 7)),
        "scalar": np.array(2.25),
        # Last, so its read starts at the end of the file's bytes.
        "empty": np.zeros((0, 3)),
    }


def test_read_returns_each_array_as_written(tmp_path):
    arrays = _arrays()
    blobio.write_blob(tmp_path / "a.bin", MAGIC, {"step": 3}, arrays)
    header, back = blobio.read_blob(tmp_path / "a.bin", MAGIC)
    assert dict(header) == {"step": 3}
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == np.float64 and back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes(), name
    assert np.signbit(back["signed_zero"][0]) and not np.signbit(back["signed_zero"][1])


def test_read_arrays_are_writable_and_share_no_memory(tmp_path):
    path = tmp_path / "a.bin"
    blobio.write_blob(path, MAGIC, {}, _arrays())
    _, first = blobio.read_blob(path, MAGIC)
    _, second = blobio.read_blob(path, MAGIC)
    views = [*first.values(), *second.values()]
    for arr in views:
        assert arr.flags.writeable and arr.flags.aligned
    for i, a in enumerate(views):
        for b in views[i + 1 :]:
            assert not np.shares_memory(a, b)
    first["stack"][:] = 9.0
    first["signed_zero"][0] = 7.0
    _, again = blobio.read_blob(path, MAGIC)
    assert np.array_equal(again["stack"], second["stack"])
    assert again["signed_zero"].tobytes() == _arrays()["signed_zero"].tobytes()
