import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robridge.util import (
    SchemaVersionError,
    check_schema_version,
    _seed_states,
    digest_arrays,
    rng_for,
    rng_streams,
    stable_hash64,
)


def test_stable_hash_is_stable():
    assert stable_hash64("a", 1) == stable_hash64("a", 1)
    assert stable_hash64("a", 1) != stable_hash64("a", 2)
    assert stable_hash64("a", 1) != stable_hash64("a1")


def test_rng_streams_decorrelated():
    a = rng_for(0, "x").random(4)
    b = rng_for(0, "x").random(4)
    c = rng_for(0, "y").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def draws(rng):
    # 32-bit draws leave half a word buffered, which the next stream must drop
    return (rng.integers(1 << 62, size=2).tolist(), rng.integers(0, 9, dtype=np.int32),
            rng.standard_normal(3).tolist(), rng.random())


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.tuples(st.integers(-(1 << 70), 1 << 70),
                               st.sampled_from(["aug", "suite", "holes", ""]),
                               st.integers(0, 1 << 20)), max_size=8))
def test_rng_streams_draw_as_rng_for(keys):
    assert [draws(rng) for rng in rng_streams(keys)] == [draws(rng_for(*k)) for k in keys]


def test_seed_states_match_seed_sequence():
    hashes = [0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 1]
    states = _seed_states(np.array(hashes, dtype=np.uint64))
    assert states.dtype == np.uint64 and states.shape == (len(hashes), 4)
    for h, state in zip(hashes, states):
        assert state.tolist() == np.random.SeedSequence(h).generate_state(4, np.uint64).tolist()


def test_digest_arrays_sensitivity():
    x = np.arange(6, dtype=np.float64)
    base = digest_arrays([x])
    assert digest_arrays([x]) == base
    assert digest_arrays([x.reshape(2, 3)]) != base
    assert digest_arrays([x.astype(np.float32)]) != base
    assert digest_arrays([x], extra="t") != base


def test_schema_version_check():
    check_schema_version({"schema_version": 1}, "doc")
    with pytest.raises(SchemaVersionError):
        check_schema_version({"schema_version": 2}, "doc")
    with pytest.raises(SchemaVersionError):
        check_schema_version({}, "doc")
