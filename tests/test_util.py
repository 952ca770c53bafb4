import numpy as np
import pytest

from robridge.util import (
    SchemaVersionError,
    check_schema_version,
    digest_arrays,
    rng_for,
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
