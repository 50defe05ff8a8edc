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
import hashlib
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
    InvalidElementError,
    InvalidOrderError,
    MalformedTableError,
    StateError,
    TagMismatchError,
    UnknownKeyError,
    UnsupportedOrderError,
    ValueRangeError,
    parses,
)
from .quasigroup import expand_seed, generate_quasigroup

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


def _is_seed(value) -> bool:
    """Whether ``value`` is a quasigroup seed: an int in [0, 2**64), not a bool."""
    return type(value) is int and 0 <= value <= 0xFFFFFFFFFFFFFFFF


@functools.lru_cache(maxsize=64)  # bounded: an order is any in [2, 65535]
def _word(order: int) -> tuple[int, int, np.ndarray]:
    """The digit layout of ``order``: the width floor(log2(order)) a digit
    carries, in exact integer arithmetic, and a word of base-``order``
    digits that fits a uint64: its base ``order**per`` and the place values
    of its ``per`` digits, most significant first, read-only, since every
    call for the order shares them."""
    per = 64 // order.bit_length()
    places = order ** np.arange(per - 1, -1, -1, dtype=np.uint64)
    places.flags.writeable = False
    return order.bit_length() - 1, order ** per, places


def encode_secret(secret: bytes, order: int) -> np.ndarray:
    """Emit the secret as base-``order`` digits, most significant first.

    The digits are the secret's big-endian integer value in base ``order``,
    zero-padded at the most significant end to the count
    ``ceil(len*8 / floor(log2 n))``.  At order 256 the digits are the
    bytes.  Otherwise the big-integer loop cuts the value into words of
    digits, which numpy then splits.
    """
    if order < 2 or order > 0xFFFF:
        raise InvalidOrderError(f"order must be in [2, 65535], got {order}")
    if not secret:
        raise EmptySecretError("cannot encode an empty secret")
    if order == 256:  # each digit is one byte of the value, as in _decode
        return np.frombuffer(secret, np.uint8).astype(np.uint16)
    width, base, places = _word(order)
    count = -(-len(secret) * 8 // width)  # ceil
    if (count * width) // 8 != len(secret):
        # Only reachable for order > 511: the count no longer determines the
        # byte length, so shares could not be parsed back unambiguously.
        raise UnsupportedOrderError(
            f"order {order} cannot encode {len(secret)} bytes reversibly"
        )
    value, words = int.from_bytes(secret, "big"), []
    while value:
        value, word = divmod(value, base)
        words.append(word)
    words.reverse()  # most significant first, like the digits
    high = (np.array(words, dtype=np.uint64)[:, None] // places % order).ravel()
    kept = min(count, high.shape[0])  # the top word may hold leading zeros
    digits = np.zeros(count, dtype=np.uint16)
    digits[count - kept:] = high[high.shape[0] - kept:]
    return digits


def decode_secret(digits: np.ndarray, order: int) -> bytes:
    """Inverse of encode_secret; the byte length is implied by the digit count.

    Refuses what encode_secret never emits: an order outside [2, 65535]
    (InvalidOrderError), a digit outside [0, order) (InvalidElementError),
    and digits worth more than their byte length holds (ValueError).
    """
    if not 2 <= order <= 0xFFFF:
        raise InvalidOrderError(f"order must be in [2, 65535], got {order}")
    digits = np.asarray(digits)
    if digits.dtype.kind not in "iu":
        raise InvalidElementError(f"digits must be integers, got {digits.dtype}")
    if digits.size and (digits.min() < 0 or digits.max() >= order):
        raise InvalidElementError(f"a digit lies outside [0, {order})")
    return _decode(digits, order)


def _decode(digits: np.ndarray, order: int) -> bytes:
    """decode_secret for digits known to lie in [0, order), as the digits
    combine rebuilds through sigma do."""
    if order == 256:  # each digit is one byte of the value, and nothing pads it
        return digits.astype(np.uint8).tobytes()
    width, base, places = _word(order)
    count, per = digits.shape[0], places.shape[0]
    # zero-padded at the most significant end to whole words
    padded = np.zeros((-(-count // per), per), dtype=np.uint64)
    padded.reshape(-1)[padded.size - count:] = digits
    value = 0
    for word in padded.dot(places).tolist():
        value = value * base + word
    n_bytes = (count * width) // 8
    if value >> (8 * n_bytes):
        raise ValueError("digit string encodes a value wider than its byte length")
    return value.to_bytes(n_bytes, "big")


#: a share's canonical header: index u8, order u16 BE, digit count u32 BE
_SHARE_HEADER = struct.Struct(">BHI")
_BIG_ENDIAN_U16 = np.dtype(">u2")


@dataclass
class PlainShare:
    """One of the two unencrypted shares: a digit sequence over [0, n).

    A share that :meth:`from_bytes` parsed keeps as its digits the
    read-only big-endian view of the bytes it range-checked; nothing is
    copied.  Write no share's digits in place.
    """

    index: int  # 1 = edge, 2 = cloud
    order: int
    digits: np.ndarray

    def to_bytes(self) -> bytes:
        """Canonical form: index u8 ‖ order u16 BE ‖ digit count u32 BE ‖ digits u16 BE."""
        header = _SHARE_HEADER.pack(self.index, self.order, self.digits.shape[0])
        return header + self.digits.astype(_BIG_ENDIAN_U16).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "PlainShare":
        if len(data) < _SHARE_HEADER.size:
            raise MalformedTableError("truncated share bytes")
        index, order, count = _SHARE_HEADER.unpack_from(data)
        if index not in (1, 2) or order < 2 or len(data) != _SHARE_HEADER.size + 2 * count:
            raise MalformedTableError("malformed canonical share bytes")
        width = _word(order)[0]
        secret_len = (count * width) // 8
        # the count encode_secret gives that byte length, or no whole secret
        if not secret_len or -(-secret_len * 8 // width) != count:
            raise MalformedTableError(f"{count} digits of order {order} encode no whole secret")
        # at least one digit, as a whole secret has a byte; a view of
        # immutable bytes (``bytes`` copies only a mutable buffer), so it is
        # read-only, built by the constructor ``np.frombuffer`` wraps
        digits = np.ndarray((count,), _BIG_ENDIAN_U16, bytes(data), _SHARE_HEADER.size)
        if np.maximum.reduce(digits) >= order:
            raise MalformedTableError("share digit outside [0, order)")
        # each field is checked, so the generated __init__ is skipped
        share = cls.__new__(cls)
        share.index, share.order, share.digits = index, order, digits
        return share

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PlainShare)
            and self.index == other.index
            and self.order == other.order
            and np.array_equal(self.digits, other.digits)
        )


def _binding_tag(share_bytes: bytes, index: int, context_id: bytes) -> bytes:
    return hashlib.sha256(share_bytes + bytes((index,)) + context_id).digest()


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

    It also keeps the PCG64 ``(state, inc)`` that ``qg_seed`` expands to
    (:func:`expand_seed`), tagged with the seed it came from, so each
    rebuild skips the expansion: :func:`split` hands its record the state
    it expanded for its own draw, and a parsed record expands on its first
    :meth:`expanded_seed`.  A changed ``qg_seed`` expands again.  The kept
    state is not a field: ``to_state_dict``, ``==`` and ``repr`` never see it.
    """

    context_id: bytes
    order: int
    qg_seed: int
    secret_checksum: bytes
    expected_tags: tuple[bytes, bytes]

    #: (seed, state, inc), set on the instance by expanded_seed
    _expansion = None

    def expanded_seed(self) -> tuple[int, int]:
        """The PCG64 ``(state, inc)`` that ``qg_seed`` expands to, kept."""
        kept = self._expansion
        if kept is None or kept[0] != self.qg_seed:
            kept = self._expansion = (self.qg_seed, *expand_seed(self.qg_seed))
        return kept[1:]

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
            order=d["order"],
            qg_seed=d["qg_seed"],
            secret_checksum=bytes.fromhex(d["secret_checksum"]),
            expected_tags=tuple(bytes.fromhex(t) for t in d["expected_tags"]),
        )
        digests = (record.context_id, record.secret_checksum, *record.expected_tags)
        if len(record.expected_tags) != 2 or any(len(x) != CONTEXT_LEN for x in digests):
            raise ValueError("need a 32-byte context id, checksum and two 32-byte tags")
        if type(record.order) is not int or not 2 <= record.order <= 0xFFFF:
            raise ValueError(f"order must be an int in [2, 65535], got {record.order!r}")
        if not _is_seed(record.qg_seed):
            raise ValueError(f"qg_seed must be an int in [0, 2**64), got {record.qg_seed!r}")
        return record


def split(
    secret: bytes, order: int, qg_seed: int, context_id: bytes, rng_seed: int
) -> tuple[PlainShare, PlainShare, SplitRecord]:
    """2-of-2 split of ``secret`` over the secret quasigroup of ``(order, qg_seed)``.

    Per digit s: draw r uniform in [0, n); share 1 keeps r, share 2 keeps
    r \\ s, so r * (r \\ s) = s reconstructs.  ``qg_seed`` is an int in
    [0, 2**64) (ValueRangeError otherwise), so a record's seed has one
    spelling.  The quasigroup is drawn from the seed's expanded state, which
    the record keeps, as :func:`combine_and_verify` draws it to rebuild.
    """
    if len(context_id) != CONTEXT_LEN:
        raise UnknownKeyError(f"a context id is {CONTEXT_LEN} bytes, not {len(context_id)}")
    if not _is_seed(qg_seed):
        raise ValueRangeError(f"qg_seed must be an int in [0, 2**64), got {qg_seed!r}")
    expanded = expand_seed(qg_seed)
    q = generate_quasigroup(order, qg_seed, expanded)
    digits = encode_secret(secret, order)
    rng = np.random.default_rng(int(rng_seed) & 0xFFFFFFFFFFFFFFFF)
    r = rng.integers(0, order, size=digits.shape[0], dtype=np.uint16)
    complement = q.left_divide_many(r, digits)
    share1 = PlainShare(index=1, order=order, digits=r)
    share2 = PlainShare(index=2, order=order, digits=complement)
    record = SplitRecord(
        context_id=bytes(context_id),
        order=order,
        qg_seed=qg_seed,
        secret_checksum=sha256(secret),
        expected_tags=(
            _binding_tag(share1.to_bytes(), 1, context_id),
            _binding_tag(share2.to_bytes(), 2, context_id),
        ),
    )
    record._expansion = (qg_seed, *expanded)
    return share1, share2, record


def seal_share(share: PlainShare, cipher: AESGCM, context_id: bytes,
               nonces: NonceSequence) -> SealedShare:
    """Encrypt a share under ``cipher`` and attach its context binding tag."""
    plain = share.to_bytes()
    record = aead_encrypt(cipher, plain, bytes((share.index,)) + context_id, nonces)
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
    plain = aead_decrypt(cipher, sealed.record, bytes((sealed.index,)) + context_id)
    return plain, PlainShare.from_bytes(plain)


def combine_and_verify(s1: SealedShare, s2: SealedShare, record: SplitRecord,
                       cipher: AESGCM) -> bytes:
    """Reconstruct the secret, verifying every layer on the way.

    In order: (1) authenticated decryption of both shares under ``cipher``,
    (2) binding-tag comparison against the record, the tags hashed over the
    authenticated bytes each share decrypted to, which are the share's
    canonical bytes since :meth:`PlainShare.from_bytes` parses nothing
    else, (3) rebuild of the quasigroup from the seed state the record keeps
    (:meth:`SplitRecord.expanded_seed`, expanded once per record), whose
    algebra gate (one O(n) check that sigma, pi and rho, stacked as a (3, n)
    array, each permute [0, n)) runs on every rebuild and proves all six
    parastroph identities over every pair, since an isotope of a group is a
    quasigroup, (4) digit-wise reconstruction, (5)
    whole-secret checksum.  The tags and the checksum are compared in
    constant time.  Each failure mode raises its own error type.
    """
    context_id = record.context_id
    try:
        plain1, p1 = unseal_share(s1, cipher, context_id)
        plain2, p2 = unseal_share(s2, cipher, context_id)
    except (AuthenticationFailure, MalformedTableError) as exc:
        raise DecryptFailureError(f"share decryption failed: {exc}") from exc

    if p1.index != 1 or p2.index != 2:
        raise TagMismatchError("share indices do not form an (edge, cloud) pair")
    tag1, tag2 = _binding_tag(plain1, 1, context_id), _binding_tag(plain2, 2, context_id)
    expected1, expected2 = record.expected_tags
    # each tag digests a secret share: compare in constant time, both (``&``)
    if not (hmac.compare_digest(tag1, expected1) & hmac.compare_digest(tag2, expected2)):
        raise TagMismatchError("share binding tag mismatch (possible impersonation)")
    # the transported tags must match too, so every bit of a sealed share is
    # tamper-evident (index and record via AEAD, binding_tag here)
    if not (hmac.compare_digest(s1.binding_tag, tag1)
            & hmac.compare_digest(s2.binding_tag, tag2)):
        raise TagMismatchError("transported binding tag altered in flight")

    try:
        q = generate_quasigroup(record.order, record.qg_seed, record.expanded_seed())
    except MalformedTableError as exc:
        raise AlgebraFailureError(f"rebuilt quasigroup is malformed: {exc}") from exc

    if p1.order != q.order or p2.order != q.order or p1.digits.shape != p2.digits.shape:
        raise TagMismatchError("share parameters disagree with the split record")
    try:
        # the digits come out of sigma, so they lie in [0, n): no range check
        secret = _decode(q.multiply_many(p1.digits, p2.digits), q.order)
    except ValueError as exc:
        # a wrong table can give digits worth more than the secret's bytes;
        # that is a wrong secret too
        raise ChecksumMismatchError(f"reconstructed secret is malformed: {exc}") from exc

    if not hmac.compare_digest(sha256(secret), record.secret_checksum):
        raise ChecksumMismatchError("reconstructed secret fails its checksum")
    return secret
