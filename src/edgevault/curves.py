"""Long-Weierstrass curves over prime fields and unique point selection.

Points here are identity material only: selected, sealed and hashed, never
added or multiplied, so a point is an affine pair with no neutral element O.
The curve lives over F_p (p an odd prime, small test primes through 256-bit)
rather than the reals so that point encoding is exact and uniqueness is decidable.

Point selection draws x until the curve equation has a root in y.  Half the
draws are non-residues, so residuosity is decided by the Jacobi symbol, plain
integer arithmetic, and the one modular exponentiation per point goes to the
root of a known residue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .errors import CurveError, GroupFullError, parses

__all__ = [
    "CurvePoint",
    "WeierstrassCurve",
    "discriminant",
    "is_on_curve",
    "sqrt_mod",
    "select_unique_point",
    "point_to_bytes",
    "point_from_bytes",
    "standard_curve",
    "tiny_curve",
    "P256",
]

MAX_SELECT_TRIES = 4096

#: 256-bit prime (p = 2^256 - 2^32 - 977, p % 4 == 3 for the fast sqrt path)
P256 = 2 ** 256 - 2 ** 32 - 977

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def standard_curve() -> "WeierstrassCurve":
    """Default production-scale curve: y^2 = x^3 + 7 over the 256-bit prime."""
    return WeierstrassCurve.short(P256, 0, 7)


def tiny_curve() -> "WeierstrassCurve":
    """Desk-scale test curve y^2 = x^3 + x + 1 over F_5 (8 affine points)."""
    return WeierstrassCurve.short(5, 1, 1)


def _is_probable_prime(n: int) -> bool:
    """Baillie-PSW: Miller-Rabin with the first 13 primes as witnesses, then
    a strong Lucas test (Baillie and Wagstaff, Math. Comp. 1980).

    Miller-Rabin alone is deterministic below 3.3e24 (Sorenson and Webster,
    Math. Comp. 2017): the least strong pseudoprime to the bases 2..37 is
    psi_12 ~ 3.2e23, and base 41 is what rejects it.  psi_13 ~ 3.3e24 passes
    all 13 bases, and the Lucas test rejects it.  No composite is known to
    pass both, and none exists below 2^64.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return _is_strong_lucas_probable_prime(n)


def _is_strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test for odd n > 41 with no prime factor up to 41.

    Selfridge's parameters: D is the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.  Writing n + 1 = d * 2^s,
    a prime n has U_d = 0 or V_(d*2^r) = 0 (mod n) for some r < s; the
    binary ladder below doubles k with U_2k = U_k*V_k and
    V_2k = V_k^2 - 2*Q^k, and steps it with U_k+1 = (P*U_k + V_k)/2 and
    V_k+1 = (D*U_k + P*V_k)/2.
    """
    # (D/n) is never -1 for a square n, so the search for D would not end
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x & 1 else x) // 2

    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class CurvePoint(NamedTuple):
    """An affine point, equal to and hashed as the tuple (x, y); never added, so never O."""

    x: int
    y: int


def discriminant(p: int, a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    """Discriminant of y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 over F_p.

    Computed through the standard b-quantities:
    b2 = a1^2 + 4*a2, b4 = 2*a4 + a1*a3, b6 = a3^2 + 4*a6,
    b8 = a1^2*a6 + 4*a2*a6 - a1*a3*a4 + a2*a3^2 - a4^2, then
    delta = -b2^2*b8 - 8*b4^3 - 27*b6^2 + 9*b2*b4*b6 (mod p).
    """
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    delta = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return delta % p


@dataclass(frozen=True)
class WeierstrassCurve:
    """A non-singular long-Weierstrass curve over F_p.

    Construction rejects moduli wider than 256 bits, composite or tiny
    moduli and singular coefficient sets (discriminant zero); coefficients
    are reduced mod p.
    """

    p: int
    a1: int = 0
    a2: int = 0
    a3: int = 0
    a4: int = 0
    a6: int = 0

    def __post_init__(self):
        # Miller-Rabin's cost grows with the cube of the width, so a parsed
        # 8192-bit modulus would stall it for seconds; the width goes first
        if self.p.bit_length() > 256:
            raise CurveError(f"modulus must be at most 256 bits, got {self.p.bit_length()}")
        # a test proves P256 prime once; every ledger parse rebuilds its curve
        if self.p != P256 and (self.p <= 3 or not _is_probable_prime(self.p)):
            raise CurveError(f"modulus must be an odd prime > 3, got {self.p}")
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, getattr(self, name) % self.p)
        if discriminant(self.p, self.a1, self.a2, self.a3, self.a4, self.a6) == 0:
            raise CurveError("singular curve: discriminant is zero")

    @classmethod
    def short(cls, p: int, a: int, b: int) -> "WeierstrassCurve":
        """Short form y^2 = x^3 + a*x + b."""
        return cls(p=p, a4=a, a6=b)

    def coordinate_width(self) -> int:
        """Bytes needed for one reduced coordinate."""
        return (self.p.bit_length() + 7) // 8

    def rhs_completed_square(self, x: int) -> int:
        """4*(x^3 + a2*x^2 + a4*x + a6) + (a1*x + a3)^2 mod p.

        Equals (2y + a1*x + a3)^2 for points on the curve, turning the curve
        equation into a single square root in y.
        """
        p = self.p
        cubic = (x * x % p * x + self.a2 * x * x + self.a4 * x + self.a6) % p
        lin = (self.a1 * x + self.a3) % p
        return (4 * cubic + lin * lin) % p

    def to_json_dict(self) -> dict:
        return {
            "p": hex(self.p),
            "a1": hex(self.a1),
            "a2": hex(self.a2),
            "a3": hex(self.a3),
            "a4": hex(self.a4),
            "a6": hex(self.a6),
        }

    @classmethod
    @parses(CurveError, "malformed curve parameters")
    def from_json_dict(cls, d: dict) -> "WeierstrassCurve":
        return cls(**{k: int(str(d[k]), 0) for k in ("p", "a1", "a2", "a3", "a4", "a6")})


def is_on_curve(curve: WeierstrassCurve, point: CurvePoint) -> bool:
    """Checks the curve equation with reduced coords."""
    p = curve.p
    x, y = point.x % p, point.y % p
    lhs = (y * y + curve.a1 * x * y + curve.a3 * y) % p
    rhs = (x * x % p * x + curve.a2 * x * x + curve.a4 * x + curve.a6) % p
    return lhs == rhs


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity.

    Cohen, Alg. 1.4.10: strip the factors of 2 from a (each flips the sign
    when n is 3 or 5 mod 8), then swap a and n (a flip when both are 3
    mod 4) and reduce.  For prime n it is Legendre's symbol: 1 for a
    residue, -1 for a non-residue, 0 for a multiple of n.
    """
    a %= n
    sign = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            sign = -sign
        if a & n & 2:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod odd prime p, or None for a non-residue.

    The Jacobi symbol decides residuosity with no exponentiation, so a
    non-residue costs none; a residue costs one, ``a^((p+1)/4)``, when
    p % 4 == 3, and Tonelli-Shanks's few otherwise.  A curve's modulus has
    passed Baillie-PSW; a composite modulus given here directly may show
    itself, when the root of a "residue" does not square back,
    Tonelli-Shanks runs out of powers of two or the modulus is a square, and
    then raises CurveError.
    """
    a %= p
    if a == 0:
        return 0
    if _jacobi(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        if r * r % p != a:
            raise CurveError(f"modulus {p} is not prime")
        return r
    # (z/p) is never -1 for a square p, so the non-residue search would not end
    if isqrt(p) ** 2 == p:
        raise CurveError(f"modulus {p} is not prime")
    # Tonelli-Shanks: write p-1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _jacobi(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
            if i == m:
                raise CurveError(f"modulus {p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return r


def select_unique_point(
    curve: WeierstrassCurve,
    used_points: set[tuple[int, int]],
    rng_seed: int,
) -> CurvePoint:
    """Draw a fresh affine point not in ``used_points``, deterministic per seed.

    Random x, then the curve equation is solved for y by completing the
    square and taking a modular square root; non-residues and collisions are
    retried.  Exhausting ``MAX_SELECT_TRIES`` raises GroupFullError (realistic
    only for tiny fields).
    """
    rng = random.Random(rng_seed)
    p = curve.p
    inv2 = (p + 1) // 2
    for _ in range(MAX_SELECT_TRIES):
        x = rng.randrange(p)
        t = sqrt_mod(curve.rhs_completed_square(x), p)
        if t is None:
            continue
        if rng.getrandbits(1):
            t = (-t) % p
        y = (t - curve.a1 * x - curve.a3) * inv2 % p
        if (x, y) in used_points:
            continue
        point = CurvePoint(x, y)
        assert is_on_curve(curve, point)
        return point
    raise GroupFullError(f"no fresh point found in {MAX_SELECT_TRIES} tries (MAX_SELECT_TRIES)")


def point_to_bytes(curve: WeierstrassCurve, point: CurvePoint) -> bytes:
    """Fixed-width big-endian x ‖ y; width = ceil(bits(p)/8) per coordinate."""
    w = curve.coordinate_width()
    return point.x.to_bytes(w, "big") + point.y.to_bytes(w, "big")


def point_from_bytes(curve: WeierstrassCurve, data: bytes) -> CurvePoint:
    w = curve.coordinate_width()
    if len(data) != 2 * w:
        raise ValueError(f"expected {2 * w} point bytes, got {len(data)}")
    return CurvePoint(int.from_bytes(data[:w], "big"), int.from_bytes(data[w:], "big"))
