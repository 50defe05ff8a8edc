import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgevault.errors import InvalidElementError, InvalidOrderError, MalformedTableError
from edgevault.kernels import latin_square_ok
from edgevault.quasigroup import (
    IdentityReport,
    IsotopeQuasigroup,
    Quasigroup,
    generate_quasigroup,
    verify_parastroph_identities,
)

ADD_MOD_3 = [[(x + y) % 3 for y in range(3)] for x in range(3)]
SUB_MOD_3 = [[(x - y) % 3 for y in range(3)] for x in range(3)]


# --- generation ------------------------------------------------------------

def test_order_2_tables_are_the_two_latin_squares():
    for seed in range(20):
        q = generate_quasigroup(2, seed)
        assert sorted(q.table[0].tolist()) == [0, 1]
        assert sorted(q.table[1].tolist()) == [0, 1]
        assert q.table.tolist() in ([[0, 1], [1, 0]], [[1, 0], [0, 1]])


def test_generation_is_deterministic():
    a = generate_quasigroup(3, 42)
    b = generate_quasigroup(3, 42)
    assert np.array_equal(a.table, b.table)
    c = generate_quasigroup(3, 43)
    assert not np.array_equal(a.table, c.table) or a.order == 3  # different seed may collide at n=3


def test_generated_order_16_is_latin():
    q = generate_quasigroup(16, 7)
    assert latin_square_ok(q.table)


def test_invalid_order_rejected():
    with pytest.raises(InvalidOrderError):
        generate_quasigroup(1, 0)
    with pytest.raises(InvalidOrderError):
        generate_quasigroup(0, 0)


def test_an_order_above_65535_is_refused_by_each_constructor():
    with pytest.raises(InvalidOrderError):
        generate_quasigroup(65536, 0)
    identity = np.arange(65536)
    with pytest.raises(InvalidOrderError):
        IsotopeQuasigroup(identity, identity, identity)
    # a zero-copy view of 2^32 entries, refused before they are scanned
    table = np.broadcast_to(np.uint16(0), (65536, 65536))
    with pytest.raises(InvalidOrderError):
        Quasigroup(table)


@given(order=st.integers(2, 64), seed=st.integers(0, 2 ** 63))
@settings(max_examples=60, deadline=None)
def test_generated_tables_always_latin(order, seed):
    assert latin_square_ok(generate_quasigroup(order, seed).table)


@given(order=st.integers(2, 1024) | st.just(0xFFFF), seed=st.integers(0, 2 ** 64 - 1))
@example(order=0xFFFF, seed=0)
@example(order=2, seed=2 ** 64 - 1)
@settings(max_examples=80, deadline=None)
def test_generation_holds_three_successive_permutation_draws(order, seed):
    """The one ``permuted`` draw gives exactly the permutations the frozen
    table bytes were pinned from: three ``permutation(order)`` in turn."""
    q = generate_quasigroup(order, seed)
    rng = np.random.default_rng(seed)
    for name in ("sigma", "pi", "rho"):
        assert np.array_equal(getattr(q, name), rng.permutation(order)), name


def test_every_order_up_to_256_generates_latin():
    for order in range(2, 257):
        for seed in (0, 1, 2):
            assert latin_square_ok(generate_quasigroup(order, seed).table), (order, seed)


def test_hundred_seeds_at_spot_orders():
    for order in (2, 16, 256):
        for seed in range(100):
            assert latin_square_ok(generate_quasigroup(order, seed).table)


# --- the Latin-square check of a table ---------------------------------------

def test_is_latin_square_basic():
    assert Quasigroup([[0, 1], [1, 0]]).order == 2
    assert not latin_square_ok(np.array([[0, 1], [0, 1]]))
    with pytest.raises(MalformedTableError, match="not a Latin square"):
        Quasigroup([[0, 1], [0, 1]])
    mod5 = [[(x + y) % 5 for y in range(5)] for x in range(5)]
    assert latin_square_ok(np.array(mod5))
    assert Quasigroup(mod5).order == 5


def test_is_latin_square_malformed_inputs():
    with pytest.raises(MalformedTableError):
        Quasigroup([[0, 1, 2], [1, 2, 0]])  # non-square
    with pytest.raises(MalformedTableError):
        Quasigroup([[0, 5], [5, 0]])  # out of range
    with pytest.raises(MalformedTableError):
        Quasigroup([[0, -1], [-1, 0]])
    with pytest.raises(MalformedTableError):
        Quasigroup([[0.0, 1.0], [1.0, 0.0]])  # floats, even whole ones


# --- the three operations ----------------------------------------------------

def test_multiply_examples_addition_mod_3():
    q = Quasigroup(ADD_MOD_3)
    assert q.multiply(1, 2) == 0
    assert q.multiply(0, 2) == 2
    assert q.multiply(2, 2) == 1


def test_left_divide_examples_addition_mod_3():
    q = Quasigroup(ADD_MOD_3)
    assert q.left_divide(1, 2) == 1  # 1 * 1 = 2
    for x in range(3):
        assert q.left_divide(x, x) == 0  # x * 0 = x under addition
    assert q.left_divide(2, 0) == 1


def test_right_divide_examples_subtraction_mod_3():
    q = Quasigroup(SUB_MOD_3)
    assert q.right_divide(1, 2) == 0  # (0 - 2) % 3 = 1
    assert q.right_divide(0, 0) == 0
    assert q.right_divide(2, 1) == 0


def test_element_range_checked():
    q = Quasigroup(ADD_MOD_3)
    with pytest.raises(InvalidElementError):
        q.multiply(3, 0)
    with pytest.raises(InvalidElementError):
        q.left_divide(0, -1)
    with pytest.raises(InvalidElementError):
        q.right_divide(5, 1)


def test_divisions_are_permutations():
    q = generate_quasigroup(17, 3)
    for x in range(17):
        left = {q.left_divide(x, y) for y in range(17)}
        right = {q.right_divide(y, x) for y in range(17)}
        assert left == set(range(17))
        assert right == set(range(17))


def test_division_inverts_multiplication():
    q = generate_quasigroup(12, 8)
    for x in range(12):
        for y in range(12):
            assert q.multiply(x, q.left_divide(x, y)) == y
            assert q.multiply(q.right_divide(y, x), x) == y


# --- identity verification -----------------------------------------------------

def test_all_six_identities_brute_force_addition_mod_3():
    # independent oracle: scalar search-based division over the raw table
    table = ADD_MOD_3
    n = 3

    def ldiv(x, y):
        return next(z for z in range(n) if table[x][z] == y)

    def rdiv(y, x):
        return next(z for z in range(n) if table[z][x] == y)

    for x in range(n):
        for y in range(n):
            assert table[x][ldiv(x, y)] == y
            assert table[rdiv(y, x)][x] == y
            assert ldiv(x, table[x][y]) == y
            assert rdiv(table[y][x], x) == y
            assert rdiv(x, ldiv(y, x)) == y
            assert ldiv(rdiv(x, y), x) == y

    report = verify_parastroph_identities(Quasigroup(table), mode="exhaustive")
    assert report.passed
    assert report.checked_pairs == 9
    assert report.failures == []


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_generated_tables_pass_exhaustive_identities(n):
    for seed in (0, 1, 99):
        report = verify_parastroph_identities(generate_quasigroup(n, seed))
        assert report.passed, report.failures[:5]


def test_an_identity_report_is_true_exactly_when_it_passed():
    report = verify_parastroph_identities(Quasigroup(ADD_MOD_3))
    assert report and report.passed
    assert not IdentityReport(passed=False, mode="exhaustive", checked_pairs=9)


class _WrongProduct(Quasigroup):
    """Addition mod 3 whose product of 1 and 1 reads 0 instead of 2."""

    def multiply_many(self, a, b):
        out = super().multiply_many(a, b).copy()
        out[(np.asarray(a) == 1) & (np.asarray(b) == 1)] = 0
        return out


def test_a_wrong_operation_is_reported_with_its_failing_pairs():
    report = verify_parastroph_identities(_WrongProduct(ADD_MOD_3))
    assert not report.passed
    # identity 1, x * (x \\ y) = y, fails where x \\ y is 1 for x = 1: y = 2
    assert (1, 1, 2) in report.failures
    assert all(1 <= ident <= 6 and 0 <= x < 3 and 0 <= y < 3
               for ident, x, y in report.failures)


def test_verify_refuses_an_unknown_mode():
    with pytest.raises(ValueError):
        verify_parastroph_identities(Quasigroup(ADD_MOD_3), mode="random")


def test_verify_rejects_malformed_table():
    with pytest.raises(MalformedTableError):
        verify_parastroph_identities([[0, 1], [0, 1]])


def test_sampled_mode_deterministic():
    q = generate_quasigroup(64, 5)
    a = verify_parastroph_identities(q, mode="sampled", k=32, seed=9)
    b = verify_parastroph_identities(q, mode="sampled", k=32, seed=9)
    assert a.passed and b.passed
    assert a.checked_pairs == b.checked_pairs == 32


# --- serialization ---------------------------------------------------------------

def test_canonical_bytes_roundtrip():
    q = generate_quasigroup(16, 21)
    blob = q.to_bytes()
    assert len(blob) == 4 + 2 * 16 * 16
    assert blob[:4] == (16).to_bytes(4, "big")
    q2 = Quasigroup.from_bytes(blob)
    assert q2 == q
    assert np.array_equal(q2.left_div, q.left_div)


def test_canonical_bytes_layout():
    q = Quasigroup(ADD_MOD_3)
    blob = q.to_bytes()
    # order u32 BE, then row-major u16 BE entries
    assert blob == bytes([0, 0, 0, 3]) + b"".join(
        v.to_bytes(2, "big") for row in ADD_MOD_3 for v in row
    )


def test_from_bytes_rejects_garbage():
    with pytest.raises(MalformedTableError):
        Quasigroup.from_bytes(b"\x00\x00\x00\x03" + b"\x00" * 5)


@pytest.mark.parametrize(
    "kind,n",
    [("generated", 2), ("generated", 3), ("generated", 251), ("generated", 256),
     ("xor", 8), ("xor", 16), ("xor-from-bytes", 8), ("xor-from-bytes", 16)],
)
def test_division_tables_match_argsort_oracle(kind, n):
    if kind == "generated":
        q = generate_quasigroup(n, 9)
    else:
        # x ^ y is Latin but, at n = 8 and 16, no isotope of the cyclic group,
        # so it yields division tables generate_quasigroup never makes
        q = Quasigroup(np.bitwise_xor.outer(np.arange(n), np.arange(n)))
        if kind == "xor-from-bytes":
            q = Quasigroup.from_bytes(q.to_bytes())
    assert np.array_equal(q.left_div, np.argsort(q.table, axis=1))
    assert np.array_equal(q.right_div, np.argsort(q.table, axis=0))


# --- the isotope form -------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 16, 251, 256])
def test_isotope_closed_forms_match_table_lookups(n):
    q = generate_quasigroup(n, 5)
    assert isinstance(q, IsotopeQuasigroup)
    # table-backed oracle: its table comes from the canonical bytes (pinned in
    # test_golden), its divisions by scatter
    oracle = Quasigroup.from_bytes(q.to_bytes())
    assert oracle == Quasigroup(q.table)
    xs = np.repeat(np.arange(n, dtype=np.uint16), n)
    ys = np.tile(np.arange(n, dtype=np.uint16), n)
    assert np.array_equal(q.multiply_many(xs, ys), oracle.table[xs, ys])
    assert np.array_equal(q.left_divide_many(xs, ys), oracle.left_div[xs, ys])
    assert np.array_equal(q.right_divide_many(xs, ys), oracle.right_div[xs, ys])
    table, left_div, right_div = (t.tolist() for t in (oracle.table, oracle.left_div,
                                                        oracle.right_div))
    for x in range(n):
        for y in range(n):
            assert q.multiply(x, y) == table[x][y]
            assert q.left_divide(x, y) == left_div[x][y]
            assert q.right_divide(x, y) == right_div[x][y]


PERMS_4 = {"sigma": [2, 0, 1, 3], "pi": [1, 2, 3, 0], "rho": [0, 3, 2, 1]}


@pytest.mark.parametrize("bad", ["sigma", "pi", "rho"])
def test_isotope_rejects_non_permutation(bad):
    for broken in (
        [0, 1, 1, 3],  # a duplicate entry
        [0, 1, 2, 4],  # an entry out of range
        [0, -1, 2, 3],
        [0, 1, 2],  # a short array
        [0.0, 1.0, 2.0, 3.0],  # floats, even whole ones
    ):
        # a short array is reported with the three lengths, not blamed on another row
        lengths = [len(broken) if name == bad else 4 for name in ("sigma", "pi", "rho")]
        expected = ("^sigma, pi and rho differ in length: {}, {} and {}$".format(*lengths)
                    if len(broken) < 4 else rf"^{bad} ")
        with pytest.raises(MalformedTableError, match=expected):
            IsotopeQuasigroup(**{**PERMS_4, bad: broken})
        rows = [{**PERMS_4, bad: broken}[name] for name in ("sigma", "pi", "rho")]
        if len(broken) == 4 and all(isinstance(v, int) for v in broken):
            # the stack constructor gates the same rows, and blames the same one
            with pytest.raises(MalformedTableError, match=rf"^{bad} "):
                IsotopeQuasigroup.from_stack(np.array(rows, dtype=np.intp))
        else:
            # rows that stack as no (3, 4) intp array are refused as a whole
            with pytest.raises(MalformedTableError, match="^sigma, pi and rho must stack as"):
                IsotopeQuasigroup.from_stack(np.array(rows, dtype=object))
    assert IsotopeQuasigroup(**PERMS_4).order == 4
    stack = np.array([PERMS_4[name] for name in ("sigma", "pi", "rho")], dtype=np.intp)
    q = IsotopeQuasigroup.from_stack(stack)
    # the stack is kept, not copied, and frozen: no caller can change a checked row
    assert q == IsotopeQuasigroup(**PERMS_4)
    assert not stack.flags.writeable
    assert np.shares_memory(q.pi, stack) and np.shares_memory(q.rho, stack)
    with pytest.raises(ValueError):
        stack[1, 0] = 99
    # a view of a writable array is refused too: freezing it would not freeze its base
    wider = np.array([[*PERMS_4[name], 0] for name in ("sigma", "pi", "rho")], dtype=np.intp)
    for wrong in (stack.astype(np.int32), stack[:2], stack.ravel(), wider[:, :4]):
        with pytest.raises(MalformedTableError, match="^sigma, pi and rho must stack as"):
            IsotopeQuasigroup.from_stack(wrong)


def test_isotope_gate_keeps_the_rows_it_checked():
    sigma, pi, rho = (np.array(PERMS_4[name]) for name in ("sigma", "pi", "rho"))
    # uint64 beside int64 has no common integer dtype; the rows still check
    q = IsotopeQuasigroup(sigma.astype(np.uint64), pi, rho)
    assert q == IsotopeQuasigroup(sigma, pi, rho)
    assert (q.sigma.dtype, q.pi.dtype, q.rho.dtype) == (np.uint16, np.intp, np.intp)
    assert not any(a.flags.writeable for a in (q.sigma, q.pi, q.rho))
    with pytest.raises(MalformedTableError, match="^sigma "):
        IsotopeQuasigroup(np.array([0, 2**63, 1, 2], dtype=np.uint64), pi, rho)
    pi[0] = 99  # a copy was checked and kept, not the caller's array
    assert q.pi.tolist() == PERMS_4["pi"]


def test_isotope_of_order_1_is_malformed():
    with pytest.raises(MalformedTableError):
        IsotopeQuasigroup([0], [0], [0])


def test_tables_immutable():
    q = generate_quasigroup(4, 0)
    with pytest.raises(ValueError):
        q.table[0, 0] = 1
