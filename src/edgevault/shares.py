"""Verifiable 2-of-2 splitting of byte secrets over a secret quasigroup.

A secret is encoded as the base-n digits of its big-endian integer value
(one conversion for every order n), masked digit-wise with fresh
randomness (share 1) and the left-division complement (share 2), so that
``multiply(r, share2) == secret digit`` reconstructs it.  Either share alone
is uniformly distributed per digit.  Shares travel sealed (AES-256-GCM) with
SHA-256 binding tags tied to a context identifier; combination re-verifies
everything: AEAD tags, binding tags, the rebuilt quasigroup's construction
check, and a whole-secret checksum.
"""

from __future__ import annotations

import functools
import hmac
import json
import struct
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import AeadRecord, NonceSequence, aead_decrypt, aead_encrypt, sha256
from .errors import (
    AuthenticationFailure,
    AlgebraFailureError,
    ChecksumMismatchError,
    DecryptFailureError,
    EmptySecretError,
    InvalidOrderError,
    MalformedTableError,
    StateError,
    TagMismatchError,
    UnknownKeyError,
    UnsupportedOrderError,
    parses,
)
from .quasigroup import generate_quasigroup

__all__ = [
    "PlainShare",
    "SealedShare",
    "SplitRecord",
    "encode_secret",
    "decode_secret",
    "split",
    "seal_share",
    "unseal_share",
    "combine_and_verify",
]

CONTEXT_LEN = 32


def _digit_width(order: int) -> int:
    """floor(log2(order)), in exact integer arithmetic."""
    return order.bit_length() - 1


def _digit_count(secret_len: int, order: int) -> int:
    width = _digit_width(order)
    count = -(-secret_len * 8 // width)  # ceil
    if (count * width) // 8 != secret_len:
        # Only reachable for order > 511: the count no longer determines the
        # byte length, so shares could not be parsed back unambiguously.
        raise UnsupportedOrderError(
            f"order {order} cannot encode {secret_len} bytes reversibly"
        )
    return count


@functools.lru_cache(maxsize=64)  # bounded: decode_secret takes any order >= 2
def _word(order: int) -> tuple[int, np.ndarray]:
    """A word of base-``order`` digits that fits a uint64: its base
    ``order**per`` and the place values of its ``per`` digits, least
    significant first, read-only, since every call for the order shares
    them."""
    places = order ** np.arange(64 // order.bit_length(), dtype=np.uint64)
    places.flags.writeable = False
    return order ** places.shape[0], places


def encode_secret(secret: bytes, order: int) -> np.ndarray:
    """Emit the secret as base-``order`` digits, most significant first.

    The digits are the secret's big-endian integer value in base ``order``,
    zero-padded at the most significant end to the count
    ``ceil(len*8 / floor(log2 n))``.  The big-integer loop cuts the value
    into words of digits, which numpy then splits.
    """
    if order < 2 or order > 0xFFFF:
        raise InvalidOrderError(f"order must be in [2, 65535], got {order}")
    if not secret:
        raise EmptySecretError("cannot encode an empty secret")
    count = _digit_count(len(secret), order)
    base, places = _word(order)
    value, words = int.from_bytes(secret, "big"), []  # least significant first
    while value:
        value, word = divmod(value, base)
        words.append(word)
    low = (np.array(words, dtype=np.uint64)[:, None] // places % order).ravel()[:count]
    digits = np.zeros(count, dtype=np.uint16)
    digits[count - low.shape[0]:] = low[::-1]
    return digits


def decode_secret(digits: np.ndarray, order: int) -> bytes:
    """Inverse of encode_secret; the byte length is implied by the digit count."""
    if order < 2:
        raise InvalidOrderError(f"order must be >= 2, got {order}")
    digits = np.asarray(digits, dtype=np.uint16)
    count = digits.shape[0]
    n_bytes = (count * _digit_width(order)) // 8
    base, places = _word(order)
    per = places.shape[0]
    # zero-padded at the most significant end to whole words
    padded = np.zeros(-(-count // per) * per, dtype=np.uint64)
    padded[padded.shape[0] - count:] = digits
    value = 0
    for word in (padded.reshape(-1, per) @ places[::-1]).tolist():
        value = value * base + word
    if value >> (8 * n_bytes):
        raise ValueError("digit string encodes a value wider than its byte length")
    return value.to_bytes(n_bytes, "big")


@dataclass
class PlainShare:
    """One of the two unencrypted shares: a digit sequence over [0, n)."""

    index: int  # 1 = edge, 2 = cloud
    order: int
    digits: np.ndarray

    def to_bytes(self) -> bytes:
        """Canonical form: index u8 ‖ order u16 BE ‖ digit count u32 BE ‖ digits u16 BE."""
        header = struct.pack(">BHI", self.index, self.order, self.digits.shape[0])
        return header + self.digits.astype(">u2").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PlainShare":
        if len(data) < 7:
            raise MalformedTableError("truncated share bytes")
        index, order, count = struct.unpack_from(">BHI", data)
        if index not in (1, 2) or order < 2 or len(data) != 7 + 2 * count:
            raise MalformedTableError("malformed canonical share bytes")
        secret_len = (count * _digit_width(order)) // 8
        if not secret_len or _digit_count(secret_len, order) != count:
            raise MalformedTableError(f"{count} digits of order {order} encode no whole secret")
        # at least one digit: a whole secret has a byte
        digits = np.frombuffer(data, dtype=">u2", offset=7).astype(np.uint16)
        if int(digits.max()) >= order:
            raise MalformedTableError("share digit outside [0, order)")
        return cls(index=index, order=order, digits=digits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlainShare)
            and self.index == other.index
            and self.order == other.order
            and np.array_equal(self.digits, other.digits)
        )


def _binding_tag(share_bytes: bytes, index: int, context_id: bytes) -> bytes:
    return sha256(share_bytes + bytes([index]) + context_id)


@dataclass
class SealedShare:
    """An encrypted, authenticated share ready to leave the secure zone."""

    index: int
    record: AeadRecord
    binding_tag: bytes  # SHA-256 over canonical share bytes ‖ index ‖ context id

    def to_json_dict(self) -> dict:
        d = {"index": self.index, "binding_tag": self.binding_tag.hex()}
        d.update(self.record.to_json_dict())
        return d

    @classmethod
    @parses(StateError, "not a sealed share")
    def from_json_dict(cls, d: dict) -> "SealedShare":
        index = int(d["index"])
        if index not in (1, 2):
            raise ValueError(f"share index must be 1 (edge) or 2 (cloud), got {index}")
        return cls(
            index=index,
            record=AeadRecord.from_json_dict(d),
            binding_tag=bytes.fromhex(d["binding_tag"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    @parses(StateError, "not a sealed share")
    def from_json(cls, text: str) -> "SealedShare":
        return cls.from_json_dict(json.loads(text))


@dataclass
class SplitRecord:
    """Edge-side verification record; never leaves the secure zone.

    Holds everything needed to rebuild the secret quasigroup and to verify a
    presented share pair: the (order, seed) generation parameters, the
    whole-secret checksum, and both expected binding tags.
    """

    context_id: bytes
    order: int
    qg_seed: int
    secret_checksum: bytes
    expected_tags: tuple[bytes, bytes]

    def to_state_dict(self) -> dict:
        return {
            "context_id": self.context_id.hex(),
            "order": self.order,
            "qg_seed": self.qg_seed,
            "secret_checksum": self.secret_checksum.hex(),
            "expected_tags": [t.hex() for t in self.expected_tags],
        }

    @classmethod
    @parses(StateError, "corrupted split record")
    def from_state_dict(cls, d: dict) -> "SplitRecord":
        record = cls(
            context_id=bytes.fromhex(d["context_id"]),
            order=int(d["order"]),
            qg_seed=int(d["qg_seed"]),
            secret_checksum=bytes.fromhex(d["secret_checksum"]),
            expected_tags=tuple(bytes.fromhex(t) for t in d["expected_tags"]),
        )
        digests = (record.context_id, record.secret_checksum, *record.expected_tags)
        if len(record.expected_tags) != 2 or any(len(x) != CONTEXT_LEN for x in digests):
            raise ValueError("need a 32-byte context id, checksum and two 32-byte tags")
        if not 2 <= record.order <= 0xFFFF:
            raise ValueError(f"order must be in [2, 65535], got {record.order}")
        return record


def split(
    secret: bytes, order: int, qg_seed: int, context_id: bytes, rng_seed: int
) -> tuple[PlainShare, PlainShare, SplitRecord]:
    """2-of-2 split of ``secret`` over the secret quasigroup of ``(order, qg_seed)``.

    Per digit s: draw r uniform in [0, n); share 1 keeps r, share 2 keeps
    r \\ s, so r * (r \\ s) = s reconstructs.  The quasigroup is built by the
    same ``generate_quasigroup(order, qg_seed)`` call that
    :func:`combine_and_verify` makes to rebuild it from the record.
    """
    if len(context_id) != CONTEXT_LEN:
        raise UnknownKeyError(f"a context id is {CONTEXT_LEN} bytes, not {len(context_id)}")
    q = generate_quasigroup(order, qg_seed)
    digits = encode_secret(secret, order)
    rng = np.random.default_rng(int(rng_seed) & 0xFFFFFFFFFFFFFFFF)
    r = rng.integers(0, order, size=digits.shape[0], dtype=np.uint16)
    complement = q.left_divide_many(r, digits)
    share1 = PlainShare(index=1, order=order, digits=r)
    share2 = PlainShare(index=2, order=order, digits=complement)
    record = SplitRecord(
        context_id=bytes(context_id),
        order=order,
        qg_seed=int(qg_seed),
        secret_checksum=sha256(secret),
        expected_tags=(
            _binding_tag(share1.to_bytes(), 1, context_id),
            _binding_tag(share2.to_bytes(), 2, context_id),
        ),
    )
    return share1, share2, record


def _share_ad(index: int, context_id: bytes) -> bytes:
    return bytes([index]) + context_id


def seal_share(share: PlainShare, cipher: AESGCM, context_id: bytes,
               nonces: NonceSequence) -> SealedShare:
    """Encrypt a share under ``cipher`` and attach its context binding tag."""
    plain = share.to_bytes()
    record = aead_encrypt(cipher, plain, _share_ad(share.index, context_id), nonces)
    return SealedShare(
        index=share.index,
        record=record,
        binding_tag=_binding_tag(plain, share.index, context_id),
    )


def unseal_share(sealed: SealedShare, cipher: AESGCM,
                 context_id: bytes) -> tuple[bytes, PlainShare]:
    """Decrypt and parse a sealed share under ``cipher``: the authenticated
    canonical bytes, and the share they encode.  Raises
    AuthenticationFailure on tamper."""
    plain = aead_decrypt(cipher, sealed.record, _share_ad(sealed.index, context_id))
    return plain, PlainShare.from_bytes(plain)


def combine_and_verify(s1: SealedShare, s2: SealedShare, record: SplitRecord,
                       cipher: AESGCM) -> bytes:
    """Reconstruct the secret, verifying every layer on the way.

    In order: (1) authenticated decryption of both shares under ``cipher``,
    (2) binding-tag comparison against the record, the tags hashed over the
    authenticated bytes each share decrypted to, which are the share's
    canonical bytes since :meth:`PlainShare.from_bytes` parses nothing
    else, (3) rebuild of the quasigroup, whose algebra gate (one O(n) check
    that sigma, pi and rho, stacked as a (3, n) array, each permute [0, n))
    proves all six parastroph identities over every pair, since an isotope
    of a group is a quasigroup, (4) digit-wise reconstruction, (5)
    whole-secret checksum.  The tags and the checksum are compared in
    constant time.  Each failure mode raises its own error type.
    """
    try:
        plain1, p1 = unseal_share(s1, cipher, record.context_id)
        plain2, p2 = unseal_share(s2, cipher, record.context_id)
    except (AuthenticationFailure, MalformedTableError) as exc:
        raise DecryptFailureError(f"share decryption failed: {exc}") from exc

    if p1.index != 1 or p2.index != 2:
        raise TagMismatchError("share indices do not form an (edge, cloud) pair")
    tags = (
        _binding_tag(plain1, 1, record.context_id),
        _binding_tag(plain2, 2, record.context_id),
    )
    # each tag digests a secret share: compare in constant time, both (``&``)
    if not (hmac.compare_digest(tags[0], record.expected_tags[0])
            & hmac.compare_digest(tags[1], record.expected_tags[1])):
        raise TagMismatchError("share binding tag mismatch (possible impersonation)")
    # the transported tags must match too, so every bit of a sealed share is
    # tamper-evident (index and record via AEAD, binding_tag here)
    if not (hmac.compare_digest(s1.binding_tag, tags[0])
            & hmac.compare_digest(s2.binding_tag, tags[1])):
        raise TagMismatchError("transported binding tag altered in flight")

    try:
        q = generate_quasigroup(record.order, record.qg_seed)
    except MalformedTableError as exc:
        raise AlgebraFailureError(f"rebuilt quasigroup is malformed: {exc}") from exc

    if p1.order != q.order or p2.order != q.order or p1.digits.shape != p2.digits.shape:
        raise TagMismatchError("share parameters disagree with the split record")
    secret_digits = q.multiply_many(p1.digits, p2.digits)
    try:
        secret = decode_secret(secret_digits, q.order)
    except ValueError as exc:
        # a wrong table can give digits worth more than the secret's bytes;
        # that is a wrong secret too
        raise ChecksumMismatchError(f"reconstructed secret is malformed: {exc}") from exc

    if not hmac.compare_digest(sha256(secret), record.secret_checksum):
        raise ChecksumMismatchError("reconstructed secret fails its checksum")
    return secret
