"""Named, independent RNG streams derived from a single root seed.

Every source of randomness in a run draws from its own named stream,
handed to it as an `np.random.Generator`, so adding or removing one
consumer (say, the regularizer's action sampler) never perturbs the
draws seen by any other consumer.  This is what makes
algorithm-reduction identities (and checkpoint resume) reproducible at
the bit level.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(root_seed: int, name: str) -> np.random.Generator:
    """Return a Generator keyed by (root_seed, name), stable across runs."""
    key = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=int(root_seed), spawn_key=(key,))
    return np.random.default_rng(seq)


def capture_state(rng: np.random.Generator) -> dict:
    """Snapshot a generator's state in a JSON-serializable form."""
    state = rng.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def set_state(rng: np.random.Generator, snapshot: dict) -> np.random.Generator:
    """Put `rng` in the state of a `capture_state` snapshot; returns `rng`."""
    rng.bit_generator.state = {
        "bit_generator": snapshot["bit_generator"],
        "state": {k: int(v) for k, v in snapshot["state"].items()},
        "has_uint32": int(snapshot["has_uint32"]),
        "uinteger": int(snapshot["uinteger"]),
    }
    return rng


def restore_state(snapshot: dict) -> np.random.Generator:
    """Rebuild a generator from a `capture_state` snapshot."""
    return set_state(np.random.default_rng(0), snapshot)
