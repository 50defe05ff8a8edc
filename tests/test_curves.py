import random
import time

import pytest

from edgevault.curves import (
    CurvePoint,
    P256,
    WeierstrassCurve,
    _is_probable_prime,
    discriminant,
    is_on_curve,
    point_from_bytes,
    point_to_bytes,
    select_unique_point,
    sqrt_mod,
    standard_curve,
    tiny_curve,
)
from edgevault.errors import CurveError, GroupFullError

# exhaustive enumeration oracle over F5 for y^2 = x^3 + x + 1
F5_POINTS = sorted(
    (x, y) for x in range(5) for y in range(5) if (y * y - (x ** 3 + x + 1)) % 5 == 0
)


def test_f5_enumeration_oracle_matches_expected():
    assert F5_POINTS == [(0, 1), (0, 4), (2, 1), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3)]
    assert len(F5_POINTS) == 8


# --- discriminant ---------------------------------------------------------------

def test_discriminant_short_form_example():
    # y^2 = x^3 + x + 1 over F5: -16(4a^3 + 27b^2) = -496 = 4 (mod 5)
    assert discriminant(5, 0, 0, 0, 1, 1) == 4
    assert (-16 * (4 * 1 ** 3 + 27 * 1 ** 2)) % 5 == 4


def test_discriminant_singular_cuspidal_cubic():
    assert discriminant(5, 0, 0, 0, 0, 0) == 0  # y^2 = x^3
    with pytest.raises(CurveError):
        WeierstrassCurve.short(5, 0, 0)


def test_b_quantity_identity_random_coefficients():
    # 4*b8 == b2*b6 - b4^2 is an algebraic identity of the b-quantities
    rng = random.Random(5)
    for _ in range(1000):
        a1, a2, a3, a4, a6 = (rng.randrange(1000) for _ in range(5))
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        assert 4 * b8 == b2 * b6 - b4 * b4


def test_curve_rejects_bad_modulus():
    with pytest.raises(CurveError):
        WeierstrassCurve.short(4, 1, 1)  # composite
    with pytest.raises(CurveError):
        WeierstrassCurve.short(3, 1, 1)  # too small
    with pytest.raises(CurveError):
        WeierstrassCurve.short(561, 1, 1)  # Carmichael number


def test_preset_modulus_is_prime():
    # construction skips the primality test for P256, so this is its proof
    assert P256.bit_length() == 256
    assert _is_probable_prime(P256)


def test_curve_rejects_composite_256_bit_modulus():
    # (2^127 - 1) is a Mersenne prime; the cofactor has no factor below 41,
    # so only Miller-Rabin can reject this modulus
    composite = (2 ** 127 - 1) * (2 ** 129 - 9)
    assert composite.bit_length() == 256
    assert all(composite % q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    with pytest.raises(CurveError):
        WeierstrassCurve.short(composite, 0, 7)


def test_curve_rejects_a_wide_modulus_before_testing_primality():
    # M8191 is composite with no factor below 41, so Miller-Rabin would run;
    # at that width it took about 1.7 s of CPU to reject
    wide = dict(standard_curve().to_json_dict(), p=hex((1 << 8191) - 1))
    start = time.process_time()
    with pytest.raises(CurveError, match="at most 256 bits"):
        WeierstrassCurve.from_json_dict(wide)
    assert time.process_time() - start < 0.25
    with pytest.raises(CurveError):
        WeierstrassCurve.short(1 << 256, 0, 7)  # one bit wider than P256


def test_coefficients_reduced_mod_p():
    c = WeierstrassCurve.short(5, 6, 11)
    assert (c.a4, c.a6) == (1, 1)


# --- is_on_curve -----------------------------------------------------------------

def test_is_on_curve_matches_enumeration():
    curve = tiny_curve()
    for x in range(5):
        for y in range(5):
            assert is_on_curve(curve, CurvePoint(x, y)) == ((x, y) in F5_POINTS)
    assert is_on_curve(curve, CurvePoint(0, 1))
    assert not is_on_curve(curve, CurvePoint(1, 1))  # x=1 gives y^2=3, a non-residue


# --- sqrt_mod --------------------------------------------------------------------

@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 101, 97])
def test_sqrt_mod_small_primes_brute_force(p):
    squares = {(y * y) % p for y in range(p)}
    for a in range(p):
        root = sqrt_mod(a, p)
        if a in squares:
            assert root is not None
            assert (root * root) % p == a
        else:
            assert root is None


def test_sqrt_mod_large_prime_both_branches():
    # P256 % 4 == 3 (fast branch); pick a 1 mod 4 prime for full Tonelli-Shanks
    rng = random.Random(1)
    for p in (P256, 2 ** 61 - 1, 1000003, 13):  # 1000003 % 4 == 3, 13 % 4 == 1
        for _ in range(20):
            y = rng.randrange(1, p)
            a = (y * y) % p
            root = sqrt_mod(a, p)
            assert root is not None and (root * root) % p == a


def test_sqrt_mod_full_tonelli_branch():
    p = 1000033  # 1 mod 4, forcing the full Tonelli-Shanks loop
    assert p % 4 == 1
    squares = [(y * y) % p for y in range(2, 60)]
    for a in squares:
        root = sqrt_mod(a, p)
        assert root is not None and (root * root) % p == a


# --- point selection --------------------------------------------------------------

def test_select_returns_enumerated_point():
    curve = tiny_curve()
    for seed in range(30):
        pt = select_unique_point(curve, set(), rng_seed=seed)
        assert pt in F5_POINTS


def test_select_skips_used_points_until_group_full():
    curve = tiny_curve()
    used: set[tuple[int, int]] = set()
    for i in range(8):
        pt = select_unique_point(curve, used, rng_seed=100 + i)
        used.add(pt)
    assert used == set(F5_POINTS)
    with pytest.raises(GroupFullError):
        select_unique_point(curve, used, rng_seed=999)


def test_select_deterministic_per_seed():
    curve = standard_curve()
    a = select_unique_point(curve, set(), rng_seed=7)
    b = select_unique_point(curve, set(), rng_seed=7)
    assert a == b
    c = select_unique_point(curve, set(), rng_seed=8)
    assert a != c


def test_selected_points_on_256_bit_curve():
    curve = standard_curve()
    used: set[tuple[int, int]] = set()
    for seed in range(100):
        pt = select_unique_point(curve, used, rng_seed=seed)
        assert is_on_curve(curve, pt)
        used.add(pt)
    assert len(used) == 100


def test_selected_points_across_random_256_bit_curves():
    rng = random.Random(6)
    checked = 0
    while checked < 10:
        a, b = rng.randrange(P256), rng.randrange(P256)
        try:
            curve = WeierstrassCurve.short(P256, a, b)
        except CurveError:
            continue  # singular draw; resample
        for seed in range(25):
            assert is_on_curve(curve, select_unique_point(curve, set(), rng_seed=seed))
        checked += 1


def test_is_probable_prime_matches_a_sieve_below_5000():
    sieve = [False, False] + [True] * 4998
    for p in range(2, 71):
        for multiple in range(p * p, 5000, p):
            sieve[multiple] = False
    # 41 * 41 = 1681 is the first composite that every small-prime trial division misses
    assert [n for n in range(5000) if _is_probable_prime(n)] == [
        n for n in range(5000) if sieve[n]]


def test_point_bytes_roundtrip():
    curve = standard_curve()
    pt = select_unique_point(curve, set(), rng_seed=3)
    blob = point_to_bytes(curve, pt)
    assert len(blob) == 2 * 32
    assert point_from_bytes(curve, blob) == pt
    with pytest.raises(ValueError):
        point_from_bytes(curve, blob[:-1])
    tiny_pt = select_unique_point(tiny_curve(), set(), rng_seed=3)
    assert len(point_to_bytes(tiny_curve(), tiny_pt)) == 2


def test_general_weierstrass_coefficients_supported():
    # a curve using all five coefficients over a small prime
    curve = WeierstrassCurve(p=13, a1=1, a2=2, a3=3, a4=4, a6=5)
    oracle = {
        (x, y)
        for x in range(13)
        for y in range(13)
        if (y * y + x * y + 3 * y - (x ** 3 + 2 * x * x + 4 * x + 5)) % 13 == 0
    }
    assert oracle  # sanity: the curve has affine points
    used: set[tuple[int, int]] = set()
    for seed in range(len(oracle)):
        try:
            pt = select_unique_point(curve, used, rng_seed=seed)
        except GroupFullError:
            break
        assert pt in oracle
        used.add(pt)
