"""Versioned binary container: magic bytes, JSON header, float64 payload.

Layout: 8 magic bytes, a little-endian uint32 header length, the UTF-8
JSON header, then the declared arrays concatenated as little-endian
float64.  The header's "arrays" entry lists [name, shape] pairs in
payload order, so files are self-describing and byte-deterministic;
`read_blob` refuses a manifest that is not such a list, with distinct
names and shapes of non-negative ints, and a non-finite array value.
Each array it returns is copied once, straight out of the file's bytes,
so it is aligned, writable and shares memory with no other array.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import FormatError


class Entries(dict):
    """A blob's header objects and its arrays by name.  The file decides
    the keys, so reading one it lacks raises `FormatError` naming it."""

    def __missing__(self, key):
        raise FormatError(f"blob has no entry {key!r}")

    def typed(self, key, kind: type):
        """The entry `key`, refusing a value that is not a `kind` with
        `FormatError`: a float entry takes an int, and a bool is no int."""
        value = self[key]
        if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind
        ):
            raise FormatError(f"blob entry {key!r} is not a {kind.__name__}: {value!r}")
        return value


def write_blob(path, magic: bytes, header: dict, arrays: dict[str, np.ndarray]):
    if len(magic) != 8:
        raise ValueError("magic must be exactly 8 bytes")
    manifest = [[name, list(np.asarray(arr).shape)] for name, arr in arrays.items()]
    full_header = dict(header)
    full_header["arrays"] = manifest
    head = json.dumps(full_header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        for _, arr in arrays.items():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_blob(path, expected_magic: bytes):
    """(header, arrays) as `Entries`: a key the file lacks is a `FormatError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise FormatError("file too short to hold a header", offset=len(raw))
    magic = raw[:8]
    if magic != expected_magic:
        raise FormatError(
            f"magic bytes {magic!r} do not match expected {expected_magic!r}"
        )
    (head_len,) = struct.unpack("<I", raw[8:12])
    head_end = 12 + head_len
    if len(raw) < head_end:
        raise FormatError("truncated header", offset=len(raw))
    try:
        header = json.loads(raw[12:head_end].decode("utf-8"), object_hook=Entries)
    except (ValueError, UnicodeDecodeError) as exc:
        raise FormatError(f"malformed header: {exc}") from None
    if not isinstance(header, Entries):
        raise FormatError("header is not a JSON object")
    manifest = header["arrays"]
    if not isinstance(manifest, list):
        raise FormatError(f"blob entry 'arrays' is not a list of [name, shape] pairs: {manifest!r}")
    arrays = Entries()
    pos = head_end
    for entry in manifest:
        name, shape = entry if isinstance(entry, list) and len(entry) == 2 else (None, None)
        if not isinstance(name, str) or name in arrays or not isinstance(shape, list) or any(
            type(n) is not int or n < 0 for n in shape
        ):
            message = "not a [name, shape] pair of a new name and a list of non-negative ints"
            raise FormatError(f"blob entry 'arrays' holds {entry!r}, {message}")
        count = math.prod(shape)
        if len(raw) < pos + count * 8:
            raise FormatError(f"truncated payload for array {name!r}", offset=len(raw))
        arrays[name] = np.frombuffer(raw, "<f8", count, pos).reshape(shape).copy()
        pos += count * 8
    if pos != len(raw):
        raise FormatError(f"{len(raw) - pos} trailing bytes after the last array", offset=pos)
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise FormatError(f"blob array {name!r} holds a non-finite value")
    del header["arrays"]
    return header, arrays
