import numpy as np
import pytest

from edgevault.crypto import (
    AeadRecord,
    NonceSequence,
    Timestamp,
    TimestampAuthority,
    aead_cipher,
    aead_decrypt,
    aead_encrypt,
    derive_seed,
    sha256,
    verify_freshness,
)
from edgevault.errors import AuthenticationFailure, ClockError, EncryptionError

KEY = aead_cipher(bytes(range(32)))

# FIPS 180-2 test vectors
SHA_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_sha256_official_vectors():
    assert sha256(b"").hex() == SHA_EMPTY
    assert sha256(b"abc").hex() == SHA_ABC
    assert len(sha256(b"x" * 1000)) == 32


def test_sha256_avalanche():
    # one-bit input change flips roughly half the output bits
    rng = np.random.default_rng(7)
    distances = []
    for _ in range(1000):
        data = bytearray(rng.bytes(32))
        base = int.from_bytes(sha256(bytes(data)), "big")
        bit = int(rng.integers(0, 256))
        data[bit // 8] ^= 1 << (bit % 8)
        other = int.from_bytes(sha256(bytes(data)), "big")
        distances.append(bin(base ^ other).count("1"))
    assert all(80 <= d <= 176 for d in distances), (min(distances), max(distances))


def test_no_collisions_among_million_random_inputs():
    # testable surrogate for collision resistance at desk scale
    rng = np.random.default_rng(11)
    slab = rng.bytes(16 * 1_000_000)
    seen = {sha256(slab[i:i + 16]) for i in range(0, len(slab), 16)}
    assert len(seen) == 1_000_000


# --- AEAD -------------------------------------------------------------------

def test_aead_roundtrip():
    rec = aead_encrypt(KEY, b"p" * 32, b"ad", NonceSequence(1))
    assert aead_decrypt(KEY, rec, b"ad") == b"p" * 32
    assert len(rec.nonce) == 12 and len(rec.tag) == 16
    assert len(rec.ciphertext) == 32


def test_aead_tag_bitflip_detected():
    rec = aead_encrypt(KEY, b"hello", b"", NonceSequence(2))
    bad = AeadRecord(rec.nonce, rec.ciphertext, bytes([rec.tag[0] ^ 1]) + rec.tag[1:])
    with pytest.raises(AuthenticationFailure):
        aead_decrypt(KEY, bad, b"")


def test_aead_wrong_key_and_wrong_ad():
    rec = aead_encrypt(KEY, b"hello", b"context", NonceSequence(3))
    with pytest.raises(AuthenticationFailure):
        aead_decrypt(aead_cipher(bytes(32)), rec, b"context")
    with pytest.raises(AuthenticationFailure):
        aead_decrypt(KEY, rec, b"other")


def test_aead_distinct_nonces_distinct_ciphertexts():
    nonces = NonceSequence(4)
    a = aead_encrypt(KEY, b"same plaintext", b"", nonces)
    b = aead_encrypt(KEY, b"same plaintext", b"", nonces)
    assert a.nonce != b.nonce
    assert a.ciphertext != b.ciphertext


def test_aead_exhaustive_single_bit_flips():
    # 100% tamper detection over every bit of a 64-byte record
    rec = aead_encrypt(KEY, bytes(64 - 12 - 16), b"ad", NonceSequence(5))
    blob = rec.to_bytes()
    assert len(blob) == 64
    for bit in range(64 * 8):
        tampered = bytearray(blob)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthenticationFailure):
            aead_decrypt(KEY, AeadRecord.from_bytes(bytes(tampered)), b"ad")


def test_aead_key_length_enforced():
    with pytest.raises(EncryptionError):
        aead_cipher(b"short")
    with pytest.raises(EncryptionError):
        aead_cipher(bytes(range(16)))


def test_record_binary_and_json_roundtrip():
    rec = aead_encrypt(KEY, b"payload", b"", NonceSequence(6))
    assert AeadRecord.from_bytes(rec.to_bytes()) == rec
    assert AeadRecord.from_json_dict(rec.to_json_dict()) == rec


def test_nonce_sequence_layout_and_resume():
    seq = NonceSequence(9)
    first = seq.next_nonce()
    second = seq.next_nonce()
    assert first[:4] == second[:4]  # same stream tag
    assert int.from_bytes(second[4:], "big") == int.from_bytes(first[4:], "big") + 1
    resumed = NonceSequence(9, counter=2)
    assert resumed.next_nonce() != first
    assert resumed.next_nonce()[:4] == first[:4]


def test_derive_seed_stable():
    assert derive_seed(1, b"a") == derive_seed(1, b"a")
    assert derive_seed(1, b"a") != derive_seed(1, b"b")
    assert derive_seed(1, b"a") != derive_seed(2, b"a")


# --- timestamps ---------------------------------------------------------------

def test_timestamp_byte_form():
    ts = Timestamp(epoch_seconds=1234, issuer="t", sequence=7)
    assert ts.to_bytes() == (1234).to_bytes(8, "big") + (7).to_bytes(8, "big")
    assert len(ts.to_bytes()) == 16


def test_issue_is_strictly_monotonic(tsa, clock):
    a = tsa.issue()
    b = tsa.issue()
    assert b.sequence == a.sequence + 1
    clock.advance(5)
    c = tsa.issue()
    assert c.epoch_seconds >= b.epoch_seconds
    assert c.sequence == b.sequence + 1


def test_clock_regression_raises(clock):
    tsa = TimestampAuthority(issuer="x", clock=clock)
    clock.advance(10)
    tsa.issue()
    clock.now = 3
    with pytest.raises(ClockError):
        tsa.issue()


def test_verify_freshness_replay(tsa):
    first = tsa.issue()
    second = tsa.issue()
    assert verify_freshness(tsa, first, last_seen=None)  # first ever seen
    assert verify_freshness(tsa, second, last_seen=first)
    assert not verify_freshness(tsa, first, last_seen=first)  # exact replay
    assert not verify_freshness(tsa, first, last_seen=second)  # stale


def test_verify_freshness_rejects_unissued(tsa):
    ts = tsa.issue()
    forged = Timestamp(epoch_seconds=ts.epoch_seconds, issuer="test-tsa", sequence=10_000)
    assert not verify_freshness(tsa, forged, last_seen=None)
    alien = Timestamp(epoch_seconds=0, issuer="other", sequence=1)
    assert not verify_freshness(tsa, alien, last_seen=None)


def test_tsa_state_roundtrip(clock):
    tsa = TimestampAuthority(issuer="t", clock=clock)
    tsa.issue()
    tsa.issue()
    restored = TimestampAuthority.from_state_dict(tsa.state_dict(), clock=clock)
    nxt = restored.issue()
    assert nxt.sequence == 3
    assert (restored.issuer, restored.sequence) == ("t", 3)
