"""Finite quasigroups: Latin-square tables, the three binary operations, and
verification of the six parastroph identities.

Elements are the indices ``[0, n)``; callers map any external alphabet onto
them.  Division tables are precomputed at construction because division sits
on the hot path of share combination.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InvalidElementError, InvalidOrderError, MalformedTableError

__all__ = [
    "Quasigroup",
    "IdentityReport",
    "generate_quasigroup",
    "is_latin_square",
    "verify_parastroph_identities",
]

def _coerce_table(table) -> np.ndarray:
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise MalformedTableError(f"table must be square with n >= 2, got shape {arr.shape}")
    n = arr.shape[0]
    if not np.issubdtype(arr.dtype, np.integer):
        raise MalformedTableError("table entries must be integers")
    if arr.min() < 0 or arr.max() >= n:
        raise MalformedTableError(f"table entries must lie in [0, {n})")
    if n > 0xFFFF:
        raise InvalidOrderError("orders above 65535 are not supported")
    return np.ascontiguousarray(arr.astype(np.uint16))


def is_latin_square(table) -> bool:
    """True iff every row and every column is a permutation of [0, n).

    Raises MalformedTableError for non-square input or out-of-range entries.
    """
    return bool(kernels.latin_square_ok(_coerce_table(table)))


class Quasigroup:
    """An order-n quasigroup given by its Cayley table (a Latin square).

    Immutable after construction; the left/right division tables are derived
    once by inverting the row and column permutations.  ``generation_seed``
    records the seed when the table came from :func:`generate_quasigroup`, so
    the structure can be rebuilt from ``(order, seed)`` alone.
    """

    __slots__ = ("order", "table", "left_div", "right_div", "generation_seed")

    def __init__(self, table, generation_seed: int | None = None):
        arr = _coerce_table(table)
        if not kernels.latin_square_ok(arr):
            raise MalformedTableError("table is not a Latin square")
        self.order = int(arr.shape[0])
        self.table = arr
        # Rows and columns are permutations, so scattering the index vector
        # through them inverts them: left_div[x, x*y] = y (x\y) and
        # right_div[x*y, y] = x (row = dividend).  The Latin-square check
        # above guarantees every cell is written.
        index = np.arange(self.order, dtype=np.uint16)
        self.left_div = np.empty_like(arr)
        np.put_along_axis(self.left_div, arr, np.broadcast_to(index, arr.shape), axis=1)
        self.right_div = np.empty_like(arr)
        np.put_along_axis(self.right_div, arr, np.broadcast_to(index[:, None], arr.shape),
                          axis=0)
        self.generation_seed = generation_seed
        for a in (self.table, self.left_div, self.right_div):
            a.flags.writeable = False

    def _check_element(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self.order:
            raise InvalidElementError(f"element {v} outside [0, {self.order})")
        return v

    def multiply(self, x: int, y: int) -> int:
        """x * y."""
        return int(self.table[self._check_element(x), self._check_element(y)])

    def left_divide(self, x: int, y: int) -> int:
        """x \\ y: the unique z with x * z = y."""
        return int(self.left_div[self._check_element(x), self._check_element(y)])

    def right_divide(self, y: int, x: int) -> int:
        """y / x: the unique z with z * x = y."""
        return int(self.right_div[self._check_element(y), self._check_element(x)])

    # array forms used by the share-splitting hot path
    def multiply_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kernels.pair_lookup(self.table, a, b)

    def left_divide_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kernels.pair_lookup(self.left_div, a, b)

    def to_bytes(self) -> bytes:
        """Canonical form: order as u32 BE, then n*n row-major u16 BE entries."""
        return struct.pack(">I", self.order) + self.table.astype(">u2").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Quasigroup":
        if len(data) < 4:
            raise MalformedTableError("truncated quasigroup serialization")
        (n,) = struct.unpack(">I", data[:4])
        body = data[4:]
        if len(body) != 2 * n * n:
            raise MalformedTableError(
                f"expected {2 * n * n} table bytes for order {n}, got {len(body)}"
            )
        table = np.frombuffer(body, dtype=">u2").astype(np.uint16).reshape(n, n)
        return cls(table)

    def __eq__(self, other) -> bool:
        return isinstance(other, Quasigroup) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.to_bytes())

    def __repr__(self) -> str:
        return f"Quasigroup(order={self.order}, seed={self.generation_seed})"


def generate_quasigroup(order: int, seed: int) -> Quasigroup:
    """Deterministically construct an order-n quasigroup from a 64-bit seed.

    The table is an isotope of the cyclic group:
    ``table[x][y] = sigma((pi(x) + rho(y)) mod n)`` for three seed-derived
    permutations.  Not uniform over all Latin squares, but O(n^2) to build
    and reproducible across platforms.
    """
    if order < 2:
        raise InvalidOrderError(f"order must be >= 2, got {order}")
    if order > 0xFFFF:
        raise InvalidOrderError("orders above 65535 are not supported")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    sigma = rng.permutation(order).astype(np.uint16)
    pi = rng.permutation(order).astype(np.intp)
    rho = rng.permutation(order).astype(np.intp)
    # pi[x] + rho[y] < 2n, so indexing a doubled sigma replaces the mod n
    table = np.concatenate([sigma, sigma])[pi[:, None] + rho[None, :]]
    return Quasigroup(table, generation_seed=int(seed))


@dataclass
class IdentityReport:
    """Outcome of a parastroph identity check."""

    passed: bool
    mode: str
    checked_pairs: int
    failures: list[tuple[int, int, int]] = field(default_factory=list)  # (identity, x, y)

    def __bool__(self) -> bool:
        return self.passed


def verify_parastroph_identities(
    q, mode: str = "exhaustive", k: int = 64, seed: int = 0
) -> IdentityReport:
    """Check the six quasigroup identities over element pairs.

    ``mode="exhaustive"`` covers all n^2 pairs; ``mode="sampled"`` draws k
    seed-chosen pairs.  Identities 1-4 hold by construction for any table
    passing the Latin-square check; 5 and 6 are nonetheless checked
    explicitly, as are 1-4, so the report reflects a direct evaluation.

    Accepts a Quasigroup or a raw table (which is validated first).
    """
    if not isinstance(q, Quasigroup):
        q = Quasigroup(q)
    n = q.order
    if mode == "exhaustive":
        xs = np.repeat(np.arange(n, dtype=np.uint16), n)
        ys = np.tile(np.arange(n, dtype=np.uint16), n)
    elif mode == "sampled":
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        xs = rng.integers(0, n, size=k, dtype=np.uint16)
        ys = rng.integers(0, n, size=k, dtype=np.uint16)
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")

    mask = kernels.identity_violations(q.table, q.left_div, q.right_div, xs, ys)
    failures = [
        (int(ident) + 1, int(xs[pos]), int(ys[pos]))
        for ident, pos in zip(*np.nonzero(mask))
    ]
    return IdentityReport(
        passed=not failures, mode=mode, checked_pairs=int(xs.shape[0]), failures=failures
    )
