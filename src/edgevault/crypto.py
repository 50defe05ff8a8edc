"""Primitive contracts shared by every module: SHA-256, AES-256-GCM records,
deterministic nonce sequences, and monotonic timestamp issuance/verification.

All byte layouts here are frozen; they feed hash chains and must stay
bit-identical across platforms.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass
from typing import Callable, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthenticationFailure, ClockError, EncryptionError, StateError, parses

__all__ = [
    "sha256",
    "derive_seed",
    "AeadRecord",
    "NonceSequence",
    "aead_cipher",
    "aead_encrypt",
    "aead_decrypt",
    "Timestamp",
    "TimestampAuthority",
    "verify_freshness",
]

NONCE_LEN = 12
TAG_LEN = 16
KEY_LEN = 32
#: nonce counters, TSA counters, timestamps and seeds are unsigned 64-bit
U64_LIMIT = 1 << 64


def sha256(data: bytes) -> bytes:
    """32-byte SHA-256 digest."""
    return hashlib.sha256(data).digest()


def derive_seed(seed, label: bytes) -> int:
    """Deterministic, platform-independent child seed (64-bit)."""
    return int.from_bytes(sha256(b"edgevault.seed" + _seed_to_bytes(seed) + label)[:8], "big")


def _seed_to_bytes(seed) -> bytes:
    if isinstance(seed, bytes):
        return seed
    return int(seed).to_bytes(8, "big", signed=False)


class NonceSequence:
    """Deterministic 96-bit nonce stream: 4-byte stream tag ‖ 8-byte BE counter.

    One sequence per key; the caller must not reuse a (key, sequence) pair.
    The counter state is serializable so CLI state files can resume safely.
    """

    __slots__ = ("tag", "counter")

    def __init__(self, seed, counter: int = 0):
        if not 0 <= counter < U64_LIMIT:
            raise ValueError(f"nonce counter {counter} outside [0, 2^64)")
        self.tag = sha256(b"edgevault.nonce" + _seed_to_bytes(seed))[:4]
        self.counter = counter

    def next_nonce(self) -> bytes:
        nonce = self.tag + struct.pack(">Q", self.counter)
        self.counter += 1
        return nonce


@dataclass(frozen=True)
class AeadRecord:
    """An AES-256-GCM record: 12-byte nonce, ciphertext, 16-byte tag."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes

    def __post_init__(self):
        if len(self.nonce) != NONCE_LEN or len(self.tag) != TAG_LEN:
            raise EncryptionError("malformed AEAD record field lengths")

    def to_bytes(self) -> bytes:
        """Binary form: nonce ‖ ciphertext ‖ tag."""
        return self.nonce + self.ciphertext + self.tag

    @classmethod
    def from_bytes(cls, data: bytes) -> "AeadRecord":
        if len(data) < NONCE_LEN + TAG_LEN:
            raise EncryptionError("AEAD record too short")
        return cls(data[:NONCE_LEN], data[NONCE_LEN:-TAG_LEN], data[-TAG_LEN:])

    def to_json_dict(self) -> dict:
        return {
            "nonce": self.nonce.hex(),
            "ciphertext": self.ciphertext.hex(),
            "tag": self.tag.hex(),
        }

    @classmethod
    @parses(StateError, "malformed AEAD record")
    def from_json_dict(cls, d: dict) -> "AeadRecord":
        return cls(
            bytes.fromhex(d["nonce"]),
            bytes.fromhex(d["ciphertext"]),
            bytes.fromhex(d["tag"]),
        )


def aead_cipher(key: bytes) -> AESGCM:
    """The AES-256-GCM cipher of a 32-byte key, which :func:`aead_encrypt`
    and :func:`aead_decrypt` seal and unseal under.  A caller that seals
    or unseals under one key many times builds its cipher once."""
    if len(key) != KEY_LEN:
        raise EncryptionError(f"key must be {KEY_LEN} bytes, got {len(key)}")
    return AESGCM(key)


def aead_encrypt(
    cipher: AESGCM, plaintext: bytes, associated_data: bytes, nonces: NonceSequence
) -> AeadRecord:
    """AES-256-GCM encryption under the next nonce of ``nonces``.

    The sequence is advanced by one, so repeated calls with the same
    sequence never reuse a nonce under the cipher's key.
    """
    nonce = nonces.next_nonce()
    blob = cipher.encrypt(nonce, plaintext, associated_data)
    return AeadRecord(nonce=nonce, ciphertext=blob[:-TAG_LEN], tag=blob[-TAG_LEN:])


def aead_decrypt(cipher: AESGCM, record: AeadRecord, associated_data: bytes) -> bytes:
    """Authenticated decryption; any bit flip in the record or AD fails."""
    try:
        return cipher.decrypt(record.nonce, record.ciphertext + record.tag, associated_data)
    except InvalidTag as exc:
        raise AuthenticationFailure("AEAD authentication failed") from exc


# ---------------------------------------------------------------------------
# Timestamps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Timestamp:
    """A TSA-issued timestamp; ``sequence`` is strictly monotonic per issuer."""

    epoch_seconds: int
    issuer: str
    sequence: int

    def to_bytes(self) -> bytes:
        """Frozen hash form: 8-byte BE epoch_seconds ‖ 8-byte BE sequence."""
        return struct.pack(">QQ", self.epoch_seconds, self.sequence)

    def to_json_dict(self) -> dict:
        return {
            "epoch_seconds": self.epoch_seconds,
            "issuer": self.issuer,
            "sequence": self.sequence,
        }

    @classmethod
    @parses(StateError, "not a timestamp")
    def from_json_dict(cls, d: dict) -> "Timestamp":
        ts = cls(int(d["epoch_seconds"]), str(d.get("issuer", "")), int(d["sequence"]))
        if not (0 <= ts.epoch_seconds < U64_LIMIT and 0 <= ts.sequence < U64_LIMIT):
            raise ValueError("timestamp fields must fit its 8-byte hash form")
        return ts


class TimestampAuthority:
    """Monotonic timestamp issuer.

    ``clock`` returns integer seconds; it defaults to wall time, and the
    simulator passes a logical tick counter instead.  Callers must serialize
    ``issue`` per instance (single-writer contract).
    """

    def __init__(
        self,
        issuer: str = "tsa",
        clock: Optional[Callable[[], int]] = None,
    ):
        self.issuer = issuer
        self._clock = clock if clock is not None else (lambda: int(time.time()))
        self.sequence = 0  # the last sequence issued
        self._last_epoch = 0

    def issue(self) -> Timestamp:
        now = int(self._clock())
        if now < self._last_epoch:
            raise ClockError(f"clock regressed: {now} < {self._last_epoch}")
        self._last_epoch = now
        self.sequence += 1
        return Timestamp(epoch_seconds=now, issuer=self.issuer, sequence=self.sequence)

    def state_dict(self) -> dict:
        return {"issuer": self.issuer, "sequence": self.sequence, "last_epoch": self._last_epoch}

    @classmethod
    @parses(StateError, "corrupted TSA state")
    def from_state_dict(cls, d: dict, clock: Optional[Callable[[], int]] = None):
        tsa = cls(issuer=d["issuer"], clock=clock)
        tsa.sequence = int(d["sequence"])
        tsa._last_epoch = int(d["last_epoch"])
        if not (0 <= tsa.sequence < U64_LIMIT and 0 <= tsa._last_epoch < U64_LIMIT):
            raise ValueError("TSA sequence and last_epoch must lie in [0, 2^64)")
        return tsa


def verify_freshness(
    tsa: TimestampAuthority, ts: Timestamp, last_seen: Optional[Timestamp] = None
) -> bool:
    """Replay check against the TSA and the last timestamp accepted.

    Rejects timestamps that the TSA never issued (wrong issuer or a sequence
    beyond its counter) and any sequence at or below ``last_seen`` (replay).
    First-ever timestamps (``last_seen is None``) are fresh.
    """
    if ts.issuer != tsa.issuer or ts.sequence > tsa.sequence:
        return False
    if last_seen is not None and ts.sequence <= last_seen.sequence:
        return False
    return ts.sequence > 0
