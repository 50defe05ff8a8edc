"""The kernels must agree with slow, independent oracles."""

import numpy as np
import pytest

from edgevault import kernels
from edgevault.quasigroup import Quasigroup, generate_quasigroup

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
    # the closed-form isotope and the table-backed form of the same quasigroup
    for form in (q, Quasigroup(q.table)):
        out = kernels.identity_violations(
            form.multiply_many, form.left_divide_many, form.right_divide_many, xs, ys
        )
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
    # break left division on purpose: x \\ y answers what x \\ (y - 1) should
    q = generate_quasigroup(8, 1)
    xs = np.repeat(np.arange(8, dtype=np.uint16), 8)
    ys = np.tile(np.arange(8, dtype=np.uint16), 8)
    for form in (q, Quasigroup(q.table)):

        def wrong_ldiv(a, b, form=form):
            return form.left_divide_many(a, ((b.astype(np.intp) - 1) % 8).astype(np.uint16))

        out = kernels.identity_violations(
            form.multiply_many, wrong_ldiv, form.right_divide_many, xs, ys
        )
        assert out[0].any()  # identity 1 uses ldiv directly


def test_pair_lookup_matches_oracle(rng):
    q = generate_quasigroup(256, 11)
    a = rng.integers(0, 256, size=10_000, dtype=np.uint16)
    b = rng.integers(0, 256, size=10_000, dtype=np.uint16)
    out = kernels.pair_lookup(q.table, a, b)
    expected = np.array([q.table[int(x), int(y)] for x, y in zip(a[:50], b[:50])])
    assert np.array_equal(out[:50], expected)
