"""Hot numeric kernels: vectorized numpy for the share algebra.

Latin-square validation of arbitrary tables, parastroph identity sweeps over
either quasigroup form, and table lookups of digit pairs dominate runtime at
large orders.  ``BACKEND`` names the implementation for benchmark reports.

All kernels assume pre-validated inputs: tables are square uint16 arrays with
entries in ``[0, n)`` and digit arrays are uint16.  Validation lives in the
calling modules.
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


def identity_violations(mul, ldiv, rdiv, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate the six quasigroup identities at the pairs (xs[i], ys[i]).

    Returns a uint8 array of shape (6, len(xs)); 1 marks a violation of the
    corresponding identity (1-indexed in reports, 0-indexed here):

      0: x * (x \\ y) == y        3: (y * x) / x == y
      1: (y / x) * x == y         4: x / (y \\ x) == y
      2: x \\ (x * y) == y        5: (x / y) \\ x == y

    ``mul(a, b)``, ``ldiv(a, b)`` and ``rdiv(a, b)`` are the quasigroup's
    elementwise operations a*b, a\\b and a/b over uint16 arrays, so a
    table-backed quasigroup and a closed-form isotope share this check.
    """
    out = np.empty((6, xs.shape[0]), dtype=np.uint8)
    out[0] = mul(xs, ldiv(xs, ys)) != ys
    out[1] = mul(rdiv(ys, xs), xs) != ys
    out[2] = ldiv(xs, mul(xs, ys)) != ys
    out[3] = rdiv(mul(ys, xs), xs) != ys
    out[4] = rdiv(xs, ldiv(ys, xs)) != ys
    out[5] = ldiv(rdiv(xs, ys), xs) != ys
    return out


def pair_lookup(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise gather out[i] = table[a[i], b[i]]."""
    return table[a.astype(np.intp), b.astype(np.intp)]

