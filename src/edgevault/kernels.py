"""Hot numeric kernels: vectorized numpy for the share algebra.

The digit-wise share algebra, Latin-square validation, parastroph identity
sweeps, and power-of-two base packing dominate runtime at large orders and
secret sizes.  ``BACKEND`` names the implementation for benchmark reports.

All kernels assume pre-validated inputs: tables are square uint16 arrays with
entries in ``[0, n)``, digit arrays are uint16, byte buffers are uint8.
Validation lives in the calling modules.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def latin_square_ok(table: np.ndarray) -> bool:
    """True iff every row and every column is a permutation of [0, n)."""
    n = table.shape[0]
    want = np.arange(n, dtype=table.dtype)
    if not np.array_equal(np.sort(table, axis=1), np.broadcast_to(want, table.shape)):
        return False
    return np.array_equal(np.sort(table, axis=0), np.broadcast_to(want[:, None], table.shape))


def identity_violations(
    table: np.ndarray,
    ldiv: np.ndarray,
    rdiv: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Evaluate the six quasigroup identities at the pairs (xs[i], ys[i]).

    Returns a uint8 array of shape (6, len(xs)); 1 marks a violation of the
    corresponding identity (1-indexed in reports, 0-indexed here):

      0: x * (x \\ y) == y        3: (y * x) / x == y
      1: (y / x) * x == y         4: x / (y \\ x) == y
      2: x \\ (x * y) == y        5: (x / y) \\ x == y

    ``ldiv[a, b]`` is a\\b and ``rdiv[a, b]`` is a/b (row = dividend).
    """
    x = xs.astype(np.intp)
    y = ys.astype(np.intp)
    out = np.empty((6, x.shape[0]), dtype=np.uint8)
    out[0] = table[x, ldiv[x, y]] != y
    out[1] = table[rdiv[y, x], x] != y
    out[2] = ldiv[x, table[x, y]] != y
    out[3] = rdiv[table[y, x], x] != y
    out[4] = rdiv[x, ldiv[y, x]] != y
    out[5] = ldiv[rdiv[x, y], x] != y
    return out


def pair_lookup(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise gather out[i] = table[a[i], b[i]]."""
    return table[a.astype(np.intp), b.astype(np.intp)]


def pack_pow2(data: np.ndarray, width: int, count: int) -> np.ndarray:
    """Split a uint8 byte buffer into ``count`` MSB-first digits of ``width`` bits.

    Zero bits are padded at the most-significant end so the buffer's
    big-endian integer value is preserved.
    """
    bits = np.unpackbits(data)
    pad = count * width - bits.shape[0]
    if pad:
        bits = np.concatenate([np.zeros(pad, dtype=np.uint8), bits])
    weights = (1 << np.arange(width - 1, -1, -1)).astype(np.uint32)
    return (bits.reshape(count, width).astype(np.uint32) @ weights).astype(np.uint16)


def unpack_pow2(digits: np.ndarray, width: int, n_bytes: int) -> np.ndarray:
    """Inverse of pack_pow2: digits back to a uint8 buffer of ``n_bytes``."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint16)
    bits = ((digits[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)
    pad = bits.shape[0] - n_bytes * 8
    return np.packbits(bits[pad:])
