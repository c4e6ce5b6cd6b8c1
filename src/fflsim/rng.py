"""Deterministic random-stream derivation.

Every source of randomness in a run is a substream derived from the single
master seed and a label path, e.g. substream(seed, "worker", 3) or
substream(seed, "net").  The derivation hashes the canonical string form of
the path with SHA-256, so streams are independent of each other, of
platform, and of the order in which they are created.  A run derives each of
its streams once, when it is set up, and every later draw continues it.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, *path: object) -> np.random.Generator:
    """Return an independent Generator for (seed, path)."""
    msg = ":".join(str(part) for part in (seed, *path)).encode("utf-8")
    digest = hashlib.sha256(msg).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))
