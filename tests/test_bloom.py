import hashlib
import math

import numpy as np
import pytest

from edgevault.bloom import BloomFilter
from edgevault.errors import FilterParameterError


def test_sizing_formula_examples():
    filt = BloomFilter.create(1000, 0.01)
    assert (filt.m, filt.k) == (9586, 7)
    tiny = BloomFilter.create(1, 0.5)
    assert (tiny.m, tiny.k) == (2, 1)


def test_sizing_matches_formula_directly():
    for n, p in ((100, 0.05), (5000, 0.001), (33, 0.2)):
        filt = BloomFilter.create(n, p)
        assert filt.m == math.ceil(-n * math.log(p) / math.log(2) ** 2)
        assert filt.k == max(1, round(filt.m / n * math.log(2)))


def test_parameter_validation():
    with pytest.raises(FilterParameterError):
        BloomFilter.create(1000, 0.0)
    with pytest.raises(FilterParameterError):
        BloomFilter.create(1000, 1.0)
    with pytest.raises(FilterParameterError):
        BloomFilter.create(0, 0.01)


def test_index_derivation_is_double_hashing():
    filt = BloomFilter.create(1000, 0.01)
    device_id = bytes(range(32))
    digest = hashlib.sha256(device_id).digest()
    h_a = int.from_bytes(digest[:16], "big")
    h_b = int.from_bytes(digest[16:], "big")
    expected = [(h_a + i * h_b) % filt.m for i in range(filt.k)]
    assert filt._indices(device_id) == expected


def test_insert_then_contains():
    filt = BloomFilter.create(10, 0.01)
    device_id = b"\xaa" * 32
    assert not filt.contains(device_id)
    filt.insert(device_id)
    assert filt.contains(device_id)
    assert device_id in filt


def test_empty_filter_contains_nothing(rng):
    filt = BloomFilter.create(100, 0.01)
    assert not any(filt.contains(rng.bytes(32)) for _ in range(1000))


def test_no_false_negatives_10k(rng):
    filt = BloomFilter.create(10_000, 0.01)
    ids = [rng.bytes(32) for _ in range(10_000)]
    for device_id in ids:
        filt.insert(device_id)
    assert all(filt.contains(device_id) for device_id in ids)


def test_observed_fpr_near_design(rng):
    filt = BloomFilter.create(1000, 0.01)
    for _ in range(1000):
        filt.insert(rng.bytes(32))
    hits = sum(filt.contains(rng.bytes(32)) for _ in range(100_000))
    fpr = hits / 100_000
    assert 0.004 <= fpr <= 0.02, fpr


def test_serialization_roundtrip_byte_exact(rng):
    filt = BloomFilter.create(500, 0.02)
    for _ in range(300):
        filt.insert(rng.bytes(32))
    blob = filt.to_bytes()
    back = BloomFilter.from_bytes(blob)
    assert back.to_bytes() == blob
    assert (back.m, back.k, back.n_inserted) == (filt.m, filt.k, filt.n_inserted)
    assert np.array_equal(back.bits, filt.bits)


def test_serialization_rejects_truncation():
    filt = BloomFilter.create(100, 0.01)
    with pytest.raises(FilterParameterError):
        BloomFilter.from_bytes(filt.to_bytes()[:10])
