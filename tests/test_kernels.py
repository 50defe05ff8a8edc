"""The kernels must agree with slow, independent oracles."""

import numpy as np
import pytest

from edgevault import kernels
from edgevault.quasigroup import generate_quasigroup

def latin_oracle(table):
    """Set-based brute force, independent of the kernels."""
    n = len(table)
    full = set(range(n))
    rows_ok = all(set(int(v) for v in row) == full for row in table)
    cols_ok = all(set(int(table[i][j]) for i in range(n)) == full for j in range(n))
    return rows_ok and cols_ok


def division_by_search(table, n):
    """Left/right division found by scanning the raw table (oracle)."""

    def ldiv(x, y):
        return next(z for z in range(n) if table[x][z] == y)

    def rdiv(y, x):
        return next(z for z in range(n) if table[z][x] == y)

    return ldiv, rdiv


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (8, 5), (16, 9), (31, 2)])
def test_latin_square_kernels_match_oracle(n, seed):
    q = generate_quasigroup(n, seed)
    assert latin_oracle(q.table.tolist())
    assert kernels.latin_square_ok(q.table)

    bad = q.table.copy()
    bad[0, 0] = bad[0, 1]  # duplicate in row 0
    assert not latin_oracle(bad.tolist())
    assert not kernels.latin_square_ok(bad)


@pytest.mark.parametrize("n,seed", [(4, 3), (9, 4), (16, 7)])
def test_identity_kernels_match_bruteforce(n, seed):
    q = generate_quasigroup(n, seed)
    table = q.table.tolist()
    ldiv, rdiv = division_by_search(table, n)

    xs = np.repeat(np.arange(n, dtype=np.uint16), n)
    ys = np.tile(np.arange(n, dtype=np.uint16), n)
    out = kernels.identity_violations(q.table, q.left_div, q.right_div, xs, ys)
    assert out.shape == (6, n * n)
    assert not out.any()

    # spot-check the oracle itself agrees on all six identities
    for x in range(n):
        for y in range(n):
            assert table[x][ldiv(x, y)] == y
            assert table[rdiv(y, x)][x] == y
            assert ldiv(x, table[x][y]) == y
            assert rdiv(table[y][x], x) == y
            assert rdiv(x, ldiv(y, x)) == y
            assert ldiv(rdiv(x, y), x) == y


def test_identity_kernel_reports_violations():
    # break the derived tables on purpose: wrong left-division table
    q = generate_quasigroup(8, 1)
    wrong_ldiv = np.roll(q.left_div, 1, axis=1).copy()
    xs = np.repeat(np.arange(8, dtype=np.uint16), 8)
    ys = np.tile(np.arange(8, dtype=np.uint16), 8)
    out = kernels.identity_violations(q.table, wrong_ldiv, q.right_div, xs, ys)
    assert out[0].any()  # identity 1 uses ldiv directly


def test_pair_lookup_matches_oracle(rng):
    q = generate_quasigroup(256, 11)
    a = rng.integers(0, 256, size=10_000, dtype=np.uint16)
    b = rng.integers(0, 256, size=10_000, dtype=np.uint16)
    out = kernels.pair_lookup(q.table, a, b)
    expected = np.array([q.table[int(x), int(y)] for x, y in zip(a[:50], b[:50])])
    assert np.array_equal(out[:50], expected)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("length", [1, 2, 5, 64, 1031])
def test_pack_unpack_roundtrip_both_backends(width, length, rng):
    data = rng.integers(0, 256, size=length, dtype=np.uint8)
    count = -(-length * 8 // width)
    packed = kernels.pack_pow2(data, width, count)
    assert packed.max(initial=0) < (1 << width)
    assert np.array_equal(kernels.unpack_pow2(packed, width, length), data)


def test_pack_matches_bigint_oracle(rng):
    # digits must equal the base-2^width big-endian expansion of the buffer
    data = rng.integers(0, 256, size=17, dtype=np.uint8)
    for width in (1, 3, 4, 8):
        count = -(-17 * 8 // width)
        value = int.from_bytes(data.tobytes(), "big")
        expected = []
        for _ in range(count):
            value, r = divmod(value, 1 << width)
            expected.append(r)
        expected.reverse()
        got = kernels.pack_pow2(data, width, count)
        assert got.tolist() == expected
