"""Seeding, hashing, and small serialization helpers shared across modules.

Everything here is deterministic and platform-stable: seeds derive from
SHA-256 of explicit key material, never from Python's salted ``hash``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

SCHEMA_VERSION = 1


def clip_unit(a: np.ndarray) -> np.ndarray:
    """np.clip(a, -1.0, 1.0), bit for bit (a NaN stays NaN), for the small
    arrays of one tick, where np.clip's Python dispatch costs more than
    the two ufuncs."""
    return np.minimum(np.maximum(a, -1.0), 1.0)


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


# numpy SeedSequence's hashing constants (a pool of 4 uint32 words) and the
# PCG64 multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


def _hash_consts(const: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constants of count successive hashmix calls: the
    running hash constant before and after its update."""
    pairs = []
    for _ in range(count):
        nxt = (const * mult) & _M32
        pairs.append((np.uint32(const), np.uint32(nxt)))
        const = nxt
    return pairs


# entropy mixing hashes each pool word, then each ordered pair of distinct
# words; generate_state(4, uint64) hashes 8 output words
_MIX_CONSTS = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL)
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value: np.ndarray, consts: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mul = consts
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


def _seed_states(hashes: np.ndarray) -> np.ndarray:
    """np.random.SeedSequence(h).generate_state(4, np.uint64) for each h of
    a uint64 array, as an (n, 4) uint64 array, in uint32 array arithmetic
    that wraps as SeedSequence's does. An entropy h below 2**64 is at most
    two words, and a missing word hashes as a zero word."""
    consts = iter(_MIX_CONSTS)
    words = [hashes & np.uint64(_M32), hashes >> np.uint64(32)]
    pool = [w.astype(np.uint32) for w in words] + [np.zeros(len(hashes), np.uint32)] * 2
    pool = [_hashmix(w, next(consts)) for w in pool]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], next(consts))
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = [_hashmix(pool[k % _POOL], c).astype(np.uint64) for k, c in enumerate(_STATE_CONSTS)]
    return np.stack([out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(_POOL)],
                    axis=1)


def rng_streams(keys: Iterable[tuple]) -> Iterator[np.random.Generator]:
    """Yield, key by key, a generator whose draws equal those of
    rng_for(*key).

    The seeds of all keys are mixed at once, and every key reuses one
    Generator whose state is reset in turn, so each stream costs about half
    of an rng_for call. Because of that reuse, use each yielded generator
    up before taking the next one: it stops being that key's stream then.
    """
    hashes = np.array([stable_hash64(*key) for key in keys], dtype=np.uint64)
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    for s_hi, s_lo, i_hi, i_lo in _seed_states(hashes).tolist():
        # PCG64's seeding: inc = 2*initseq + 1, state = (inc + initstate)*M + inc
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _M128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        yield gen


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
