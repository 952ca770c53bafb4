"""Seeding, hashing, and small serialization helpers shared across modules.

Everything here is deterministic and platform-stable: seeds derive from
SHA-256 of explicit key material, never from Python's salted ``hash``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

SCHEMA_VERSION = 1


def stable_hash64(*parts: object) -> int:
    """64-bit hash of the repr of the given parts, stable across runs."""
    h = hashlib.sha256("\x1f".join(str(p) for p in parts).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def rng_for(*key: object) -> np.random.Generator:
    """Independent PCG64 stream keyed by the given parts.

    Distinct keys give decorrelated streams; identical keys give identical
    streams on every platform.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(stable_hash64(*key))))


def digest_arrays(arrays: Iterable[np.ndarray], extra: str = "") -> str:
    """16-hex-char digest over array shapes, dtypes and raw bytes."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(str(a.dtype).encode())
        h.update(a.tobytes())
    if extra:
        h.update(extra.encode("utf-8"))
    return h.hexdigest()[:16]


def digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def check_schema_version(doc: dict, what: str) -> None:
    v = doc.get("schema_version")
    if v != SCHEMA_VERSION:
        raise SchemaVersionError(f"{what}: unsupported schema_version {v!r} (expected {SCHEMA_VERSION})")


class SchemaVersionError(ValueError):
    """Raised when an on-disk artifact declares an unknown schema version."""
