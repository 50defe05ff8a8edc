"""Bloom-filter allowlist over ledger device IDs.

A hit is only a pre-check: false positives must never grant access on their
own, so authoritative decisions still go through ledger lookup and share
verification.  Index derivation is double hashing over the two 16-byte
halves of SHA-256(device_id), byte-exact across platforms.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .crypto import sha256
from .errors import FilterParameterError

__all__ = ["BloomFilter"]

_HEADER = struct.Struct(">QQQ")


class BloomFilter:
    """m-bit filter with k double-hashed probes; no false negatives ever."""

    def __init__(self, m: int, k: int):
        # sizing never gives k > m; a parsed k near 2^64 would make every lookup hang
        if m < 1 or not 1 <= k <= m:
            raise FilterParameterError(f"need m >= 1 and 1 <= k <= m, got m={m}, k={k}")
        self.m = int(m)
        self.k = int(k)
        self.bits = np.zeros(self.m, dtype=bool)
        self.n_inserted = 0

    @classmethod
    def create(cls, expected_n: int, target_fpr: float) -> "BloomFilter":
        """Standard sizing: m = ceil(-n ln(p) / ln(2)^2), k = round(m/n ln 2)."""
        if expected_n < 1:
            raise FilterParameterError(f"expected_n must be >= 1, got {expected_n}")
        if not 0.0 < target_fpr < 1.0:
            raise FilterParameterError(f"target_fpr must be in (0, 1), got {target_fpr}")
        m = math.ceil(-expected_n * math.log(target_fpr) / (math.log(2) ** 2))
        k = max(1, round(m / expected_n * math.log(2)))
        return cls(m, k)

    def _indices(self, device_id: bytes):
        digest = sha256(device_id)
        h_a = int.from_bytes(digest[:16], "big")
        h_b = int.from_bytes(digest[16:], "big")
        return [(h_a + i * h_b) % self.m for i in range(self.k)]

    def insert(self, device_id: bytes):
        self.bits[self._indices(device_id)] = True
        self.n_inserted += 1

    def contains(self, device_id: bytes) -> bool:
        return bool(self.bits[self._indices(device_id)].all())

    def __contains__(self, device_id: bytes) -> bool:
        return self.contains(device_id)

    def to_bytes(self) -> bytes:
        """Header (m, k, n_inserted as u64 BE) + packed bit array."""
        return _HEADER.pack(self.m, self.k, self.n_inserted) + np.packbits(self.bits).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        if len(data) < _HEADER.size:
            raise FilterParameterError("truncated filter serialization")
        m, k, n_inserted = _HEADER.unpack(data[: _HEADER.size])
        body = np.frombuffer(data[_HEADER.size:], dtype=np.uint8)
        if body.shape[0] != (m + 7) // 8:
            raise FilterParameterError("filter bit array length mismatch")
        if m % 8 and body[-1] & (0xFF >> (m % 8)):
            raise FilterParameterError("non-zero padding bits after bit m")
        filt = cls(m, k)
        filt.bits = np.unpackbits(body)[:m].astype(bool)
        filt.n_inserted = int(n_inserted)
        return filt
