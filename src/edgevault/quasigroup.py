"""Finite quasigroups: the three binary operations, in table-backed and
isotope form, and verification of the six parastroph identities.

Elements are the indices ``[0, n)``; callers map any external alphabet onto
them.  :class:`Quasigroup` holds any Latin-square table and derives both
division tables from it at construction; ``from_bytes`` and ``qg check FILE``
use it.  :class:`IsotopeQuasigroup`, which :func:`generate_quasigroup`
returns, keeps three permutations ``sigma``, ``pi``, ``rho`` of the isotope
``x*y = sigma[(pi[x] + rho[y]) mod n]`` and nothing else, and evaluates
multiplication and both divisions in closed form: its one O(n) check, over
the three permutations stacked as a (3, n) array and run in place on the
stack :func:`generate_quasigroup` draws, is the algebra gate, a
division inverts the two checked permutations it reads by a plain scatter,
and its n*n tables are built on every read and not cached.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InvalidElementError, InvalidOrderError, MalformedTableError

__all__ = [
    "Quasigroup",
    "IsotopeQuasigroup",
    "IdentityReport",
    "generate_quasigroup",
    "verify_parastroph_identities",
]

def _coerce_table(table) -> np.ndarray:
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise MalformedTableError(f"table must be square with n >= 2, got shape {arr.shape}")
    n = arr.shape[0]
    if n > 0xFFFF:
        raise InvalidOrderError("orders above 65535 are not supported")
    if not np.issubdtype(arr.dtype, np.integer):
        raise MalformedTableError("table entries must be integers")
    if arr.min() < 0 or arr.max() >= n:
        raise MalformedTableError(f"table entries must lie in [0, {n})")
    return np.ascontiguousarray(arr.astype(np.uint16))


class Quasigroup:
    """An order-n quasigroup given by its Cayley table (a Latin square).

    Immutable after construction; the left/right division tables are derived
    once by inverting the row and column permutations.
    """

    __slots__ = ("order", "table", "left_div", "right_div")

    def __init__(self, table):
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
        for a in (self.table, self.left_div, self.right_div):
            a.flags.writeable = False

    def _check_element(self, v: int) -> np.uint16:
        """The element as a numpy scalar, which the array forms accept."""
        v = int(v)
        if not 0 <= v < self.order:
            raise InvalidElementError(f"element {v} outside [0, {self.order})")
        return np.uint16(v)

    def multiply(self, x: int, y: int) -> int:
        """x * y."""
        return int(self.multiply_many(self._check_element(x), self._check_element(y)))

    def left_divide(self, x: int, y: int) -> int:
        """x \\ y: the unique z with x * z = y."""
        return int(self.left_divide_many(self._check_element(x), self._check_element(y)))

    def right_divide(self, y: int, x: int) -> int:
        """y / x: the unique z with z * x = y."""
        return int(self.right_divide_many(self._check_element(y), self._check_element(x)))

    # elementwise array forms, used by the share algebra and the identity check
    def multiply_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kernels.pair_lookup(self.table, a, b)

    def left_divide_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kernels.pair_lookup(self.left_div, a, b)

    def right_divide_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kernels.pair_lookup(self.right_div, a, b)

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
        return Quasigroup(table)

    def __eq__(self, other) -> bool:
        return isinstance(other, Quasigroup) and np.array_equal(self.table, other.table)


#: the isotope's permutations, in the order of its (3, n) stack
_PERMUTATIONS = ("sigma", "pi", "rho")


def _permutation_stack(n: int, perms) -> np.ndarray:
    """``perms`` as one new (3, n) intp array; MalformedTableError if the
    three lengths differ or a row is not n integers."""
    try:
        stack = np.asarray(perms)
    except ValueError:  # rows of different lengths
        stack = None
    if stack is None or stack.shape != (3, n) or stack.dtype.kind not in "iu":
        rows = [np.asarray(perm) for perm in perms]
        if all(row.ndim == 1 for row in rows) and len({len(row) for row in rows}) > 1:
            raise MalformedTableError("sigma, pi and rho differ in length: {}, {} and {}".format(
                *map(len, rows)))
        for name, row in zip(_PERMUTATIONS, rows):
            if row.shape != (n,) or row.dtype.kind not in "iu":
                raise MalformedTableError(f"{name} must be {n} integers, got {row.dtype} "
                                          f"of shape {row.shape}")
        # integer rows with no common integer dtype (uint64 beside int64 stack as float)
        stack = np.array([row.astype(np.intp) for row in rows])
    return stack.astype(np.intp, copy=False)


def _inverse(perm: np.ndarray) -> np.ndarray:
    """The inverse of a permutation the construction check already passed."""
    inverse = np.empty(perm.shape[0], dtype=np.intp)
    inverse[perm] = np.arange(perm.shape[0])
    return inverse


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


class IsotopeQuasigroup(Quasigroup):
    """The isotope ``x*y = sigma[(pi[x] + rho[y]) mod n]`` of the cyclic group.

    Every row and column of that table is a permutation exactly when
    ``sigma``, ``pi`` and ``rho`` are, so checking the three permutations
    checks the Latin property in O(n).  Construction checks them at once, as
    one (3, n) intp stack, and names the first that is not a permutation of
    [0, n).  The constructor copies the three rows it is given into a new
    stack; :meth:`from_stack` takes over a stack the caller built and checks
    it in place.  Every operation has a closed form:

      x * y  = sigma[(pi[x] + rho[y]) mod n]
      x \\ s = rho^-1[(sigma^-1[s] - pi[x]) mod n]
      s / y  = pi^-1[(sigma^-1[s] - rho[y]) mod n]

    Only the three checked permutations are held: ``sigma`` as uint16, and
    ``pi`` and ``rho`` as intp rows of the checked stack, which is frozen.  A
    division inverts the two it reads on each call by a plain scatter, which
    is O(n) against the n*n tables and needs no second check; ``table``,
    ``left_div`` and ``right_div`` are built on every read and not cached.
    """

    __slots__ = ("sigma", "pi", "rho")

    def __init__(self, sigma, pi, rho):
        self._adopt(_permutation_stack(len(sigma), (sigma, pi, rho)))

    @classmethod
    def from_stack(cls, stack: np.ndarray) -> "IsotopeQuasigroup":
        """The isotope of ``stack``, sigma, pi and rho as the rows of one
        (3, n) intp array that owns its data, which it takes over: the gate
        checks and freezes that array in place, and it is not copied."""
        q = cls.__new__(cls)
        q._adopt(stack)
        return q

    def _adopt(self, stack: np.ndarray):
        """The algebra gate: keep ``stack`` if each row permutes [0, n)."""
        # a view is refused: freezing it would leave its base writable
        if (stack.ndim != 2 or stack.shape[0] != 3 or stack.dtype != np.intp
                or not stack.flags.owndata):
            raise MalformedTableError(f"sigma, pi and rho must stack as one (3, n) intp array "
                                      f"that owns its data, got {stack.dtype} of shape "
                                      f"{stack.shape}")
        n = stack.shape[1]
        if n < 2:
            raise MalformedTableError(f"order must be >= 2, got {n}")
        if n > 0xFFFF:
            raise InvalidOrderError("orders above 65535 are not supported")
        # a row permutes [0, n) iff it sorts to 0, 1, ..., n - 1; out-of-range
        # entries (a wrapped uint64 included) and repeats both fail that
        ordered = stack.copy()
        ordered.sort(axis=1)
        if ordered.tobytes() != np.arange(n, dtype=np.intp).tobytes() * 3:
            first = int(np.argmin((ordered == np.arange(n)).all(axis=1)))
            raise MalformedTableError(f"{_PERMUTATIONS[first]} is not a permutation of [0, {n})")
        stack.setflags(write=False)
        self.order = n
        # operands are intp, results uint16 like the table-backed form's
        self.sigma = stack[0].astype(np.uint16)
        self.sigma.setflags(write=False)
        self.pi, self.rho = stack[1], stack[2]

    # ``take`` gathers as indexing does, and converts uint16 operands faster;
    # pi[x] + rho[y] lies in [0, 2n - 1), which ``mode="wrap"`` reduces mod n
    def multiply_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.sigma.take(self.pi.take(a) + self.rho.take(b), mode="wrap")

    def left_divide_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sigma_inv, rho_inv = _inverse(self.sigma), _inverse(self.rho)
        return rho_inv.take((sigma_inv.take(b) - self.pi.take(a)) % self.order).astype(np.uint16)

    def right_divide_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sigma_inv, pi_inv = _inverse(self.sigma), _inverse(self.pi)
        return pi_inv.take((sigma_inv.take(a) - self.rho.take(b)) % self.order).astype(np.uint16)

    def _square(self, op) -> np.ndarray:
        """The n*n table of ``op``, built and frozen on every read."""
        index = np.arange(self.order)
        return _frozen(op(index[:, None], index[None, :]), np.uint16)

    @property
    def table(self) -> np.ndarray:
        return self._square(self.multiply_many)

    @property
    def left_div(self) -> np.ndarray:
        return self._square(self.left_divide_many)

    @property
    def right_div(self) -> np.ndarray:
        """right_div[s, y] = s / y (row = dividend)."""
        return self._square(self.right_divide_many)


def generate_quasigroup(order: int, seed: int) -> IsotopeQuasigroup:
    """Deterministically construct an order-n quasigroup from a 64-bit seed.

    It is an isotope of the cyclic group,
    ``x*y = sigma[(pi[x] + rho[y]) mod n]`` for three seed-derived
    permutations.  Not uniform over all Latin squares, but O(n) to build and
    reproducible across platforms.

    sigma, pi and rho are the first, second and third
    ``rng.permutation(order)`` of ``np.random.default_rng(seed)``, drawn as
    one ``rng.permuted`` over the rows of a (3, n) stack of ``arange(n)``:
    it shuffles row after row with the same draws as three successive
    permutations, in one call.  That stack goes to
    :meth:`IsotopeQuasigroup.from_stack`, whose algebra gate checks and
    freezes it in place.
    """
    # refused before the permutations are drawn: a huge order would allocate them
    if not 2 <= order <= 0xFFFF:
        raise InvalidOrderError(f"order must be in [2, 65535], got {order}")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    stack = np.empty((3, order), dtype=np.intp)
    stack[:] = np.arange(order)
    rng.permuted(stack, axis=1, out=stack)
    return IsotopeQuasigroup.from_stack(stack)


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
    seed-chosen pairs.  Identities 1-4 hold by construction for any
    quasigroup that passed its construction check (Latin square or three
    permutations); all six are nonetheless evaluated through the
    quasigroup's own operations, so the report reflects a direct evaluation.

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

    mask = kernels.identity_violations(
        q.multiply_many, q.left_divide_many, q.right_divide_many, xs, ys
    )
    failures = [
        (int(ident) + 1, int(xs[pos]), int(ys[pos]))
        for ident, pos in zip(*np.nonzero(mask))
    ]
    return IdentityReport(
        passed=not failures, mode=mode, checked_pairs=int(xs.shape[0]), failures=failures
    )
