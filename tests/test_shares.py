import itertools
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevault.crypto import AeadRecord, NonceSequence, aead_cipher, sha256
from edgevault.errors import (
    ChecksumMismatchError,
    DecryptFailureError,
    EmptySecretError,
    InvalidElementError,
    InvalidOrderError,
    MalformedTableError,
    TagMismatchError,
    UnknownKeyError,
    UnsupportedOrderError,
)
from edgevault.quasigroup import Quasigroup, generate_quasigroup
from edgevault.shares import (
    PlainShare,
    SealedShare,
    SplitRecord,
    combine_and_verify,
    decode_secret,
    encode_secret,
    seal_share,
    split,
    unseal_share,
)

KEY = aead_cipher(bytes(range(32)))
CTX = bytes(32)


def _sealed_pair(secret=b"attack at dawn..", order=16, qg_seed=77, mask_seed=5):
    s1, s2, record = split(secret, order, qg_seed, CTX, rng_seed=mask_seed)
    nonces = NonceSequence(123)
    return (
        seal_share(s1, KEY, CTX, nonces),
        seal_share(s2, KEY, CTX, nonces),
        record,
    )


# --- encoding ----------------------------------------------------------------

def test_encode_examples():
    assert encode_secret(b"\xff", 16).tolist() == [15, 15]
    assert encode_secret(b"\x00", 2).tolist() == [0] * 8
    assert encode_secret(b"\xab\xcd", 16).tolist() == [10, 11, 12, 13]


def test_encode_rejects_bad_input():
    with pytest.raises(EmptySecretError):
        encode_secret(b"", 16)
    with pytest.raises(InvalidOrderError):
        encode_secret(b"x", 1)
    with pytest.raises(UnsupportedOrderError):
        encode_secret(b"abcd", 1024)  # 4 digits of 10 bits hold 5 bytes


def test_encode_matches_bigint_at_every_order():
    # 39 bytes span several uint64 words of digits at every order
    for secret, order in itertools.product([b"\x01\x02\x03", bytes(range(1, 40))],
                                           [2, 3, 5, 10, 16, 100, 251, 256, 65535]):
        digits = encode_secret(secret, order).tolist()
        assert max(digits) < order
        value = 0
        for d in digits:
            value = value * order + d
        assert value == int.from_bytes(secret, "big")
        assert decode_secret(np.array(digits, dtype=np.uint16), order) == secret


@given(secret=st.binary(min_size=1, max_size=300), order=st.sampled_from([2, 4, 8, 16, 64, 128, 256]))
@settings(max_examples=80, deadline=None)
def test_encode_decode_roundtrip(secret, order):
    digits = encode_secret(secret, order)
    assert int(digits.max()) < order
    assert decode_secret(digits, order) == secret


@pytest.mark.parametrize("order,digits", [(8, [7, 7, 7]), (16, [1, 0, 0]), (251, [1, 5])])
def test_decode_refuses_digits_wider_than_the_byte_length(order, digits):
    # the digits are worth 256 or more but imply one byte; at a power of two
    # the excess sits in the padding bits
    with pytest.raises(ValueError):
        decode_secret(np.array(digits, dtype=np.uint16), order)


def test_decode_refuses_an_order_below_2():
    with pytest.raises(InvalidOrderError):
        decode_secret(np.zeros(8, dtype=np.uint16), 1)


def test_decode_refuses_what_encode_never_emits():
    # [0, 300] would read as the canonical [1, 44] of b"\x01,": one secret, two digit strings
    with pytest.raises(InvalidElementError):
        decode_secret(np.array([0, 300], dtype=np.uint16), 256)
    with pytest.raises(InvalidElementError):
        decode_secret(np.array([-1, 3]), 256)
    with pytest.raises(InvalidElementError):
        decode_secret(np.array([1.0, 2.0]), 256)
    # encode_secret refuses this order, so decode does too
    with pytest.raises(InvalidOrderError):
        decode_secret(np.array([1, 2], dtype=np.uint16), 70000)


@given(secret=st.binary(min_size=1, max_size=80), order=st.integers(2, 0xFFFF),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_decode_inverts_encode_and_refuses_a_digit_at_or_above_the_order(secret, order, data):
    try:
        digits = encode_secret(secret, order)
    except UnsupportedOrderError:
        # above order 511 some lengths have no reversible digit count; one byte has
        secret = secret[:1]
        digits = encode_secret(secret, order)
    assert decode_secret(digits, order) == secret
    position = data.draw(st.integers(0, digits.shape[0] - 1))
    digits[position] = data.draw(st.integers(order, 0xFFFF))
    with pytest.raises(InvalidElementError):
        decode_secret(digits, order)


def test_encode_digit_count_rule():
    # count = ceil(len*8 / floor(log2 n))
    assert encode_secret(b"\xff", 8).shape[0] == 3  # ceil(8/3)
    assert encode_secret(b"ab", 2).shape[0] == 16
    assert encode_secret(b"abcde", 256).shape[0] == 5


# --- split -------------------------------------------------------------------

def test_split_digit_identity_addition_mod_3():
    # s = 2, r = 1 under addition mod 3: share2 digit = 1 because 1 * 1 = 2
    q = Quasigroup([[(x + y) % 3 for y in range(3)] for x in range(3)])
    r, s = 1, 2
    share2_digit = q.left_divide(r, s)
    assert share2_digit == 1
    assert q.multiply(r, share2_digit) == s


def test_split_reconstruction_identity_holds_for_every_digit():
    q = generate_quasigroup(16, 3)
    secret = bytes(range(1, 33))
    s1, s2, _ = split(secret, 16, 3, CTX, rng_seed=8)
    digits = encode_secret(secret, 16)
    rebuilt = q.multiply_many(s1.digits, s2.digits)
    assert np.array_equal(rebuilt, digits)


def test_split_refuses_a_context_id_that_is_not_32_bytes():
    # the same refusal, and the same type, as SecureZone.split_and_distribute
    with pytest.raises(UnknownKeyError):
        split(b"secret", 16, 3, CTX[:5], rng_seed=0)


def test_per_digit_hiding_bruteforce():
    # For a fixed share-1 digit a, reconstructing against every possible
    # share-2 value must yield every secret digit exactly once (n <= 16).
    for n in (2, 4, 16):
        q = generate_quasigroup(n, 5)
        for a in range(n):
            outcomes = [q.multiply(a, b) for b in range(n)]
            assert sorted(outcomes) == list(range(n))


def test_share1_distribution_independent_of_secret():
    # same mask seed, two different secrets -> identical share-1 digits
    s1a, _, _ = split(b"\x00" * 20, 16, 9, CTX, rng_seed=4)
    s1b, _, _ = split(b"\xff" * 20, 16, 9, CTX, rng_seed=4)
    assert np.array_equal(s1a.digits, s1b.digits)


# --- canonical share bytes -----------------------------------------------------

def test_plain_share_canonical_layout():
    share = PlainShare(index=1, order=16, digits=np.array([1, 2, 3], dtype=np.uint16))
    blob = share.to_bytes()
    assert blob == b"\x01" + (16).to_bytes(2, "big") + (3).to_bytes(4, "big") + \
        b"\x00\x01\x00\x02\x00\x03"


def test_plain_share_roundtrip():
    s1, s2, _ = split(b"some secret bytes here", 256, 11, CTX, rng_seed=2)
    for share in (s1, s2):
        back = PlainShare.from_bytes(share.to_bytes())
        assert back == share
        # the parsed digits are a read-only view of the bytes, not a copy
        assert not back.digits.flags.writeable and back.digits.base is not None
        assert back.to_bytes() == share.to_bytes()


@st.composite
def _share_like_bytes(draw):
    """The canonical bytes of a drawn share, or those bytes with one field
    redrawn, one digit set to the order, or a byte cut off or added."""
    order = draw(st.sampled_from([2, 3, 16, 251, 256, 65535]) | st.integers(2, 0xFFFF))
    digits = draw(st.lists(st.integers(0, order - 1), max_size=40))
    header = [draw(st.sampled_from([1, 2])), order, len(digits)]
    change = draw(st.sampled_from(["none", "index", "order", "count", "digit", "cut", "add"]))
    if change in ("index", "order", "count"):
        which = ("index", "order", "count").index(change)
        header[which] = draw(st.integers(0, (0xFF, 0xFFFF, 42)[which]))
    if change == "digit" and digits:
        digits[draw(st.integers(0, len(digits) - 1))] = order
    data = struct.pack(">BHI", *header) + b"".join(d.to_bytes(2, "big") for d in digits)
    return {"cut": data[:-1], "add": data + b"\x00"}.get(change, data)


@given(st.binary(max_size=24) | _share_like_bytes())
@settings(max_examples=300, deadline=None)
def test_every_share_from_bytes_accepts_is_canonical(data):
    # combine hashes its binding tags over the decrypted bytes and split over
    # to_bytes(), so the tags agree only if a share has one byte form
    try:
        share = PlainShare.from_bytes(data)
    except MalformedTableError:
        return
    assert share.to_bytes() == data


# --- sealing -----------------------------------------------------------------

def test_seal_unseal_roundtrip():
    sealed1, _, _ = _sealed_pair()
    plain, share = unseal_share(sealed1, KEY, CTX)
    assert share.index == 1
    assert plain == share.to_bytes()


def test_unseal_wrong_key_fails():
    from edgevault.errors import AuthenticationFailure

    sealed1, _, _ = _sealed_pair()
    with pytest.raises(AuthenticationFailure):
        unseal_share(sealed1, aead_cipher(bytes(32)), CTX)


def test_reseal_changes_ciphertext_not_binding_tag():
    s1, _, _ = split(b"stable", 16, 7, CTX, rng_seed=1)
    nonces = NonceSequence(55)
    a = seal_share(s1, KEY, CTX, nonces)
    b = seal_share(s1, KEY, CTX, nonces)
    assert a.record.ciphertext != b.record.ciphertext or a.record.nonce != b.record.nonce
    assert a.binding_tag == b.binding_tag


def test_sealed_share_json_roundtrip():
    sealed1, _, _ = _sealed_pair()
    assert SealedShare.from_json(sealed1.to_json()) == sealed1
    d = sealed1.to_json_dict()
    assert set(d) == {"index", "nonce", "ciphertext", "tag", "binding_tag"}


# --- combine_and_verify ---------------------------------------------------------

def test_combine_roundtrip():
    secret = b"attack at dawn.."
    s1, s2, record = _sealed_pair(secret)
    assert combine_and_verify(s1, s2, record, KEY) == secret


def test_combine_roundtrip_many_orders():
    rng = np.random.default_rng(0)
    for order in (2, 4, 16, 256):
        for trial in range(5):
            secret = rng.bytes(int(rng.integers(1, 200)))
            qg_seed = int(rng.integers(0, 2 ** 32))
            s1, s2, record = split(secret, order, qg_seed, CTX,
                                   rng_seed=int(rng.integers(0, 2 ** 32)))
            nonces = NonceSequence(trial)
            sealed = (seal_share(s1, KEY, CTX, nonces), seal_share(s2, KEY, CTX, nonces))
            assert combine_and_verify(sealed[0], sealed[1], record, KEY) == secret


def test_combine_detects_stale_tag_after_digit_tamper():
    # alter one digit before sealing with the correct key: AEAD passes,
    # binding tag catches the impersonation
    secret = b"attack at dawn.."
    s1, s2, record = split(secret, 16, 77, CTX, rng_seed=5)
    s2.digits = s2.digits.copy()
    s2.digits[0] = (int(s2.digits[0]) + 1) % 16
    nonces = NonceSequence(9)
    sealed1 = seal_share(s1, KEY, CTX, nonces)
    sealed2 = seal_share(s2, KEY, CTX, nonces)
    with pytest.raises(TagMismatchError):
        combine_and_verify(sealed1, sealed2, record, KEY)


def test_combine_rejects_random_blob_share():
    rng = np.random.default_rng(3)
    s1, s2, record = _sealed_pair()
    forged = SealedShare(
        index=2,
        record=AeadRecord(rng.bytes(12), rng.bytes(len(s2.record.ciphertext)), rng.bytes(16)),
        binding_tag=rng.bytes(32),
    )
    with pytest.raises(DecryptFailureError):
        combine_and_verify(s1, forged, record, KEY)


def test_combine_rejects_checksum_mismatch():
    s1, s2, record = _sealed_pair()
    record.secret_checksum = sha256(b"wrong")
    with pytest.raises(ChecksumMismatchError):
        combine_and_verify(s1, s2, record, KEY)


def test_combine_rejects_swapped_indices():
    s1, s2, record = _sealed_pair()
    with pytest.raises(TagMismatchError):
        combine_and_verify(s2, s1, record, KEY)


def test_every_single_bit_flip_rejected_16_byte_secret():
    # full sealed-share surface: index byte ‖ AEAD record ‖ binding tag
    secret = bytes(range(16))
    s1, s2, record = _sealed_pair(secret, order=256)
    baseline = combine_and_verify(s1, s2, record, KEY)
    assert baseline == secret
    for target in (1, 2):
        sealed = s1 if target == 1 else s2
        blob = bytes([sealed.index]) + sealed.record.to_bytes() + sealed.binding_tag
        for bit in range(len(blob) * 8):
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            bad = SealedShare(
                index=mutated[0],
                record=AeadRecord.from_bytes(bytes(mutated[1:-32])),
                binding_tag=bytes(mutated[-32:]),
            )
            pair = (bad, s2) if target == 1 else (s1, bad)
            with pytest.raises((DecryptFailureError, TagMismatchError)):
                combine_and_verify(pair[0], pair[1], record, KEY)


def test_binding_tag_bit_flip_rejected():
    s1, s2, record = _sealed_pair()
    record.expected_tags = (
        record.expected_tags[0],
        bytes([record.expected_tags[1][0] ^ 1]) + record.expected_tags[1][1:],
    )
    with pytest.raises(TagMismatchError):
        combine_and_verify(s1, s2, record, KEY)


def test_combine_under_50ms_for_32_byte_secret_order_256():
    secret = bytes(range(32))
    s1, s2, record = split(secret, 256, 1, CTX, rng_seed=1)
    nonces = NonceSequence(1)
    sealed = (seal_share(s1, KEY, CTX, nonces), seal_share(s2, KEY, CTX, nonces))
    combine_and_verify(*sealed, record, KEY)  # warm-up: first-call imports and allocations
    start = time.perf_counter()
    combine_and_verify(*sealed, record, KEY)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.050, f"combine took {elapsed * 1000:.1f} ms"


def test_split_record_state_roundtrip():
    _, _, record = _sealed_pair()
    assert SplitRecord.from_state_dict(record.to_state_dict()) == record
