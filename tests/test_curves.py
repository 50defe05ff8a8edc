import os
import random
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevault import curves
from edgevault.curves import (
    CurvePoint,
    P256,
    WeierstrassCurve,
    _is_probable_prime,
    _is_strong_lucas_probable_prime,
    _jacobi,
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

# the least strong pseudoprimes to the first 12 and 13 prime bases
# (Sorenson and Webster, Math. Comp. 2017)
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981

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
    # (2^127 - 1) is a Mersenne prime; the cofactor has no factor up to 41,
    # so only Miller-Rabin can reject this modulus
    composite = (2 ** 127 - 1) * (2 ** 129 - 9)
    assert composite.bit_length() == 256
    assert all(composite % q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    with pytest.raises(CurveError):
        WeierstrassCurve.short(composite, 0, 7)


def test_curve_rejects_a_wide_modulus_before_testing_primality():
    # M8191 is composite with no factor up to 41, so Miller-Rabin would run;
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


def _euler_sqrt_mod(a, p):
    """The square root as computed before the Jacobi symbol: Euler's
    criterion for residuosity, so a non-residue costs an exponentiation."""
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return r


def _legendre(a, p):
    """Euler's criterion: a^((p-1)/2) mod p as 0, 1 or -1."""
    e = pow(a, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def _next_prime(n):
    n |= 1
    while not _is_probable_prime(n):
        n += 2
    return n


# odd primes, several in each class mod 8, small through 256-bit
PRIMES_BY_CLASS = {
    1: [17, 41, 97, 1000033, 10 ** 18 + 9, 2 ** 200 + 697],
    3: [3, 11, 19, 1000003, 10 ** 18 + 3, 2 ** 200 + 235],
    5: [5, 13, 29, 101, 10 ** 18 + 381, 2 ** 255 - 19],
    7: [7, 23, 31, 2 ** 61 - 1, 2 ** 127 - 1, P256],
}

_primes = st.integers(3, 2 ** 64).map(_next_prime)


@pytest.mark.parametrize("cls", sorted(PRIMES_BY_CLASS))
def test_jacobi_is_euler_s_criterion_on_fixed_primes(cls):
    rng = random.Random(cls)
    for p in PRIMES_BY_CLASS[cls]:
        assert p % 8 == cls and _is_probable_prime(p)
        values = [0, 1, 2, p - 1, p, p + 2, -1, -2, 3 * p + 5] + [rng.randrange(-p, 2 * p) for _ in range(50)]
        for a in values:
            assert _jacobi(a, p) == _legendre(a, p), (a, p)


@given(p=_primes, a=st.integers())
@settings(max_examples=300, deadline=None)
def test_jacobi_is_euler_s_criterion(p, a):
    assert _jacobi(a, p) == _legendre(a, p)


def test_jacobi_on_composites_is_the_product_of_legendre_symbols():
    primes = [p for ps in PRIMES_BY_CLASS.values() for p in ps if p < 2 ** 64]
    rng = random.Random(8)
    for p in primes:
        for q in primes:
            for a in [0, 1, 2, p, q, -3] + [rng.randrange(p * q) for _ in range(8)]:
                assert _jacobi(a, p * q) == _legendre(a, p) * _legendre(a, q), (a, p, q)
    # 2 is not a square mod 15, yet (2/3)(2/5) = 1: the symbol only says "maybe"
    assert _jacobi(2, 15) == 1


@given(p=_primes, q=_primes, a=st.integers())
@settings(max_examples=300, deadline=None)
def test_jacobi_on_a_composite_is_the_product_of_legendre_symbols(p, q, a):
    assert _jacobi(a, p * q) == _legendre(a, p) * _legendre(a, q)


@pytest.mark.parametrize("cls", sorted(PRIMES_BY_CLASS))
def test_sqrt_mod_matches_the_euler_criterion_code(cls):
    rng = random.Random(100 + cls)
    for p in PRIMES_BY_CLASS[cls]:
        values = [0, p, -p, 1, -1, p - 1, p + 1, 2 * p + 3, -5] + [rng.randrange(-p, 3 * p) for _ in range(60)]
        for a in values:
            assert sqrt_mod(a, p) == _euler_sqrt_mod(a, p), (a, p)


@given(p=_primes, a=st.integers())
@settings(max_examples=300, deadline=None)
def test_sqrt_mod_matches_the_euler_criterion_code_on_drawn_primes(p, a):
    assert sqrt_mod(a, p) == _euler_sqrt_mod(a, p)


def _count_pow_and_jacobi(monkeypatch) -> tuple[list, list]:
    """Record each three-argument ``pow`` and each ``_jacobi`` that curves makes."""
    pows, jacobis = [], []
    jacobi = curves._jacobi

    def counting_pow(*args):
        if len(args) == 3:
            pows.append(args)
        return pow(*args)

    def counting_jacobi(a, n):
        jacobis.append((a, n))
        return jacobi(a, n)

    monkeypatch.setattr(curves, "pow", counting_pow, raising=False)
    monkeypatch.setattr(curves, "_jacobi", counting_jacobi)
    return pows, jacobis


def test_point_selection_makes_one_exponentiation_per_point(monkeypatch):
    # a curve over P256 that is not the standard one takes sqrt_mod, the
    # general path; the standard curve's roots come from OpenSSL (below)
    pows, _ = _count_pow_and_jacobi(monkeypatch)
    curve = WeierstrassCurve.short(P256, 0, 5)
    for seed in range(100):
        select_unique_point(curve, set(), rng_seed=seed)
    # about as many non-residues were drawn, and none cost a pow
    assert len(pows) == 100


def test_standard_curve_selection_makes_no_exponentiation_and_one_jacobi_per_point(monkeypatch):
    # OpenSSL decides each draw and takes its root; one Jacobi symbol per
    # point picks the root sqrt_mod would return
    pows, jacobis = _count_pow_and_jacobi(monkeypatch)
    curve = standard_curve()
    for seed in range(100):
        select_unique_point(curve, set(), rng_seed=seed)
    assert len(pows) == 0
    assert len(jacobis) == 100


def test_a_composite_modulus_that_fails_base_41_is_refused_at_construction():
    assert PSI_12 == 399165290221 * 798330580441
    assert not _is_probable_prime(PSI_12)
    with pytest.raises(CurveError, match="odd prime"):
        WeierstrassCurve.short(PSI_12, 0, 7)


def _strong_probable_prime(n, a):
    """One Miller-Rabin round: is odd n a strong probable prime to base a?"""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 1 << i, n) == n - 1 for i in range(1, r))


def test_a_composite_modulus_that_passes_every_base_is_refused_by_the_lucas_test():
    # psi_13 is past Miller-Rabin's deterministic bound: it passes all 13
    # bases, and the strong Lucas test refuses it at construction
    assert all(_strong_probable_prime(PSI_13, a) for a in curves._SMALL_PRIMES)
    assert not _is_strong_lucas_probable_prime(PSI_13)
    assert not _is_probable_prime(PSI_13)
    with pytest.raises(CurveError, match="odd prime"):
        WeierstrassCurve.short(PSI_13, 0, 7)


# the strong Lucas pseudoprimes below 10^5 under Selfridge's parameters (OEIS
# A217255); none has a prime factor up to 41
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                             58519, 75077, 97439)


def _primes_below(limit):
    """The sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return [n for n in range(limit) if sieve[n]]


def test_the_strong_lucas_test_passes_exactly_the_primes_and_its_pseudoprimes():
    limit = 10 ** 5
    passed = [n for n in range(43, limit, 2)
              if all(n % p for p in curves._SMALL_PRIMES) and _is_strong_lucas_probable_prime(n)]
    assert passed == sorted([n for n in _primes_below(limit) if n >= 43]
                            + list(STRONG_LUCAS_PSEUDOPRIMES))


def test_a_modulus_that_shares_a_factor_with_a_tried_d_is_refused():
    # (D/n) = 1 for each D from 5 to 41, and -43 divides n: no Lucas sequence
    # is run, a shared factor is proof enough
    n = 2524831
    assert n == 43 * 58717
    assert all(_jacobi((-1) ** k * (5 + 2 * k), n) == 1 for k in range(19))
    assert _jacobi(-43, n) == 0
    assert not _is_strong_lucas_probable_prime(n)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES[:3])
def test_a_strong_lucas_pseudoprime_is_refused_by_miller_rabin(n):
    assert _is_strong_lucas_probable_prime(n)
    assert not _is_probable_prime(n)
    with pytest.raises(CurveError, match="odd prime"):
        WeierstrassCurve.short(n, 0, 7)


@pytest.mark.parametrize("p", [P256, 2 ** 255 - 19, 2 ** 127 - 1], ids=["P256", "2^255-19", "2^127-1"])
def test_baillie_psw_accepts_large_primes(p):
    assert _is_strong_lucas_probable_prime(p)
    assert _is_probable_prime(p)


@pytest.mark.parametrize("a,n", [(2, 15), (5, 21), (2, 9)], ids=["3-mod-4", "1-mod-4", "square"])
def test_sqrt_mod_refuses_a_composite_whose_jacobi_symbol_says_residue(a, n):
    # (2/15) = (5/21) = (2/9) = 1, yet none is a square: a root that does not
    # square back, a Tonelli-Shanks loop that runs out of powers of two, or a
    # modulus with no Jacobi symbol -1 for Tonelli-Shanks's non-residue
    assert _jacobi(a, n) == 1 and all(y * y % n != a for y in range(n))
    with pytest.raises(CurveError, match=f"modulus {n} is not prime"):
        sqrt_mod(a, n)


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


def _generic_select(curve, used_points, rng_seed):
    """select_unique_point as every curve but the standard one runs it:
    the same draws, with sqrt_mod for the root."""
    rng = random.Random(rng_seed)
    p = curve.p
    for _ in range(curves.MAX_SELECT_TRIES):
        x = rng.randrange(p)
        t = sqrt_mod(curve.rhs_completed_square(x), p)
        if t is None:
            continue
        if rng.getrandbits(1):
            t = (-t) % p
        y = (t - curve.a1 * x - curve.a3) * ((p + 1) // 2) % p
        if (x, y) not in used_points:
            return CurvePoint(x, y)
    raise GroupFullError("reference ran out of tries")


@given(seed=st.integers(0, 2 ** 64), taken=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_standard_curve_points_equal_the_generic_loop(seed, taken):
    # the first points the seed yields are taken, so each forces one more
    # draw past a used point
    curve = standard_curve()
    used: set[tuple[int, int]] = set()
    for _ in range(taken):
        used.add(_generic_select(curve, used, seed))
    point = select_unique_point(curve, used, rng_seed=seed)
    assert point == _generic_select(curve, used, seed)
    assert point not in used and is_on_curve(curve, point)


def test_the_ec_module_loads_on_the_first_standard_curve_selection():
    # the CLI's import floor leaves OpenSSL's EC module out, and so does a
    # selection on any other curve
    probe = (
        "import sys, edgevault.cli\n"
        "from edgevault.curves import select_unique_point, standard_curve, tiny_curve\n"
        "ec = lambda: any(m.startswith('cryptography.hazmat.primitives.asymmetric') for m in sys.modules)\n"
        "print(ec())\n"
        "select_unique_point(tiny_curve(), set(), 1)\n"
        "print(ec())\n"
        "select_unique_point(standard_curve(), set(), 1)\n"
        "print(ec(), 'cryptography.hazmat.primitives.asymmetric.ec' in sys.modules)\n"
    )
    src = str(Path(curves.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout.split("\n")
    assert out[:3] == ["False", "False", "True True"]


def test_is_probable_prime_matches_a_sieve_below_5000():
    # 43 * 43 = 1849 is the first composite that every small-prime trial division misses
    assert [n for n in range(5000) if _is_probable_prime(n)] == _primes_below(5000)


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
