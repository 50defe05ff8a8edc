"""Software emulation of the edge HSM secure zone.

The zone is an API boundary, not hardware: raw key bytes and split records
live only in its two private maps, one record per key (metadata, material,
nonce counter) and one per distributed context (split record, edge share,
key id, last accepted timestamp).  Every mutating call is audit-logged, and
everything that leaves the zone is either an identifier, a sealed record, or
a snapshot with the secrets stripped.  The zone also hosts the identity
ledger, so the point key that seals each device's point, and the points the
ledger unseals with it to keep them unique, stay inside the boundary.

The state written from :meth:`SecureZone.state_dict` emulates the HSM's
internal tamper-proof storage; it is not an exported artifact and must be
treated as inside the boundary.  It holds the keys and the contexts as maps
from id to unit, and ``state_dict(whole=False)`` gives the same maps of what
changed.  A loaded zone decodes each key and context from its unit the first
time it is used.
"""

from __future__ import annotations

import hmac
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import (
    KEY_LEN,
    U64_LIMIT,
    NonceSequence,
    Timestamp,
    TimestampAuthority,
    aead_cipher,
    aead_decrypt,
    aead_encrypt,
    derive_seed,
    sha256,
    verify_freshness,
    AeadRecord,
)
from .errors import (
    AlreadySplitError,
    AuthenticationFailure,
    InvalidOrderError,
    KeyStateError,
    ShareVerificationError,
    StateError,
    UnknownKeyError,
    WrongPurposeError,
    parses,
)
from .ledger import IdentityLedger, LedgerEntry
from .shares import CONTEXT_LEN, SealedShare, SplitRecord, combine_and_verify, seal_share, split

__all__ = ["ManagedKey", "Decision", "DistributionResult", "SecureZone", "DEFAULT_BUDGET"]

DEFAULT_BUDGET = 2 ** 16

PURPOSES = ("data-encryption", "key-encryption", "point-sealing")
STATES = ("generated", "distributed", "retired")


@dataclass
class ManagedKey:
    """One key in the zone.  Its material and nonce sequence never leave the
    zone: they stay out of ``repr`` and :meth:`to_public_dict`.

    The key holds its AES-256-GCM cipher: :attr:`cipher` builds it from the
    material on the first seal or unseal and keeps it, so a key that never
    seals builds none.  The material is fixed for the key's life, and the
    cipher is not part of the key's state: it stays out of ``repr``,
    comparisons and every dict the key is written to.
    """

    key_id: bytes  # 16 bytes
    purpose: str
    state: str
    usage_budget: int
    uses: int
    created_at: Timestamp
    material: bytes = field(repr=False)
    nonces: NonceSequence = field(repr=False)

    @cached_property
    def cipher(self) -> AESGCM:
        """The AES-256-GCM cipher of the material, built on first use."""
        return aead_cipher(self.material)

    def to_public_dict(self) -> dict:
        return {
            "key_id": self.key_id.hex(),
            "purpose": self.purpose,
            "state": self.state,
            "usage_budget": self.usage_budget,
            "uses": self.uses,
            "created_at": self.created_at.to_json_dict(),
        }


@dataclass(frozen=True)
class Decision:
    """Outcome of a transaction authorization."""

    accepted: bool
    reason: Optional[str] = None  # replay | tag-mismatch | decrypt-failure |
    #                               algebra-failure | checksum-mismatch | budget-exhausted


#: every accepted transaction's decision; frozen, so one instance serves all
_ACCEPTED = Decision(accepted=True)


@dataclass(frozen=True)
class DistributionResult:
    edge_share: SealedShare
    cloud_share: SealedShare


@dataclass
class _Context:
    """One distributed context: what authorizing its transactions reads."""

    record: SplitRecord
    edge_share: SealedShare
    key_id: bytes
    last_seen: Optional[Timestamp] = None  # the last accepted timestamp


class _Units:
    """One kind of zone record by id, each decoded from its unit (a JSON
    object) the first time it is used.

    The unit is the only layout.  A zone loaded from a state holds that
    state's units as its base, a mapping by id that may decode each unit
    only when it is asked for it; :meth:`units` and :meth:`rewritten` give
    ``{id hex: unit}`` maps of every record or of every record whose unit
    changed.  A command therefore decodes only the records it reads, and a
    decoder is given the id its unit is stored under.
    """

    __slots__ = ("_base", "_live", "_decode", "_encode")

    def __init__(self, decode, encode, base=None):
        self._base = {} if base is None else base
        self._live: dict = {}
        self._decode, self._encode = decode, encode

    @parses(StateError, "corrupted zone units")
    def _unit(self, item_id: bytes) -> dict | None:
        return self._base.get(item_id)

    def get(self, item_id: bytes, default=None):
        item = self._live.get(item_id)
        if item is None:
            unit = self._unit(item_id)
            if unit is None:
                return default
            item = self._live[item_id] = self._decode(item_id, unit)
        return item

    def __getitem__(self, item_id: bytes):
        item = self.get(item_id)
        if item is None:
            raise KeyError(item_id)
        return item

    def __setitem__(self, item_id: bytes, item):
        self._live[item_id] = item

    def __contains__(self, item_id) -> bool:
        return item_id in self._live or item_id in self._base

    @parses(StateError, "corrupted zone units")
    def __iter__(self):
        ids = dict.fromkeys(self._base)
        ids.update(dict.fromkeys(self._live))
        return iter(list(ids))

    def values(self) -> list:
        return [self[i] for i in self]

    def _encoded(self, item_id: bytes) -> dict:
        item = self._live.get(item_id)
        return self._encode(item) if item is not None else self._unit(item_id)

    def units(self) -> dict[str, dict]:
        """Every record's unit: encoded again if it was decoded, else as stored."""
        return {i.hex(): self._encoded(i) for i in self}

    def rewritten(self) -> dict[str, dict]:
        """The unit of every record this command used that is new or whose
        unit differs from the stored one."""
        rewritten = {}
        for item_id, item in self._live.items():
            unit = self._encode(item)
            if unit != self._unit(item_id):
                rewritten[item_id.hex()] = unit
        return rewritten


@parses(StateError, "corrupted key")
def _decode_key(kid: bytes, kd: dict) -> ManagedKey:
    if bytes.fromhex(kd["key_id"]) != kid:
        raise ValueError(f"key {kid.hex()} holds the unit of another key")
    if kd["purpose"] not in PURPOSES or kd["state"] not in STATES:
        raise ValueError(f"key {kid.hex()} has an unknown purpose or state")
    material = bytes.fromhex(kd["material"])
    if len(material) != KEY_LEN:
        raise ValueError(f"key {kid.hex()} is not {KEY_LEN} bytes")
    return ManagedKey(
        key_id=kid,
        purpose=kd["purpose"],
        state=kd["state"],
        usage_budget=int(kd["usage_budget"]),
        uses=int(kd["uses"]),
        created_at=Timestamp.from_json_dict(kd["created_at"]),
        material=material,
        nonces=NonceSequence(kid, counter=int(kd["nonce_counter"])),
    )


def _encode_key(key: ManagedKey) -> dict:
    return {**key.to_public_dict(), "material": key.material.hex(),
            "nonce_counter": key.nonces.counter}


def _stored_key_id(keys: _Units, key_id_hex: str) -> bytes:
    """The id of a stored key, which is decoded when it is first used."""
    key_id = bytes.fromhex(key_id_hex)
    if key_id not in keys:
        raise KeyError(f"no key {key_id_hex}")
    return key_id


@parses(StateError, "corrupted context")
def _decode_context(keys: _Units, cid: bytes, unit: dict) -> _Context:
    record = SplitRecord.from_state_dict(unit["record"])
    if record.context_id != cid:
        raise ValueError(f"context {cid.hex()} holds the split record of another context")
    last_seen = unit["last_seen"]
    return _Context(
        record=record,
        edge_share=SealedShare.from_json_dict(unit["edge_share"]),
        key_id=_stored_key_id(keys, unit["key_id"]),
        last_seen=Timestamp.from_json_dict(last_seen) if last_seen is not None else None,
    )


def _encode_context(context: _Context) -> dict:
    last_seen = context.last_seen
    return {
        "record": context.record.to_state_dict(),
        "edge_share": context.edge_share.to_json_dict(),
        "key_id": context.key_id.hex(),
        "last_seen": last_seen.to_json_dict() if last_seen is not None else None,
    }


def _stored_units(units) -> Mapping:
    """A stored map of units by id: a dict by id hex is re-keyed by id, and
    each unit must be an object; any other mapping is taken as one by id
    already, which checks each unit when it is read."""
    if isinstance(units, dict):
        if not all(isinstance(unit, dict) for unit in units.values()):
            raise ValueError("a key or context unit must be an object")
        return {bytes.fromhex(item_id): unit for item_id, unit in units.items()}
    if not isinstance(units, Mapping):
        raise ValueError("keys and contexts must be maps of units")
    return units


def _audit_list(audit) -> Sequence:
    if isinstance(audit, str) or not isinstance(audit, Sequence):
        raise ValueError("audit entries must be a list")
    return audit


def _op_counter(value) -> int:
    value = int(value)
    if not 0 <= value < U64_LIMIT:
        raise ValueError("op_counter must lie in [0, 2^64)")
    return value


class SecureZone:
    """Single-writer key vault plus transaction verifier.

    All randomness is caller-seeded, so a zone replayed from the same seeds
    reproduces the same identifiers and records (test mode is just fixed
    seeds).  The usage budget counts authorized transactions per key; once
    exhausted the key must be retired and regenerated.
    """

    def __init__(self, zone_seed: int, tsa: TimestampAuthority):
        self._tsa = tsa
        self._keys = _Units(_decode_key, _encode_key)
        self._contexts = _Units(partial(_decode_context, self._keys), _encode_context)
        self._audit_base: Sequence = ()  # the audit of the state the zone was loaded from
        self._audit: list[dict] = []  # the entries after it
        self._op_counter = 0
        self.ledger: Optional[IdentityLedger] = None
        # infrastructure keys: one KEK and one share-sealing key per zone
        self._kek_id = self.generate_key("key-encryption", rng_seed=derive_seed(zone_seed, b"kek"))
        self._share_key_id = self.generate_key(
            "data-encryption", rng_seed=derive_seed(zone_seed, b"sharekey")
        )
        self._point_key_id = self.generate_key(
            "point-sealing", rng_seed=derive_seed(zone_seed, b"pointkey")
        )

    # --- audit -----------------------------------------------------------

    def _log(self, op: str, outcome: str, key_id: Optional[bytes] = None,
             context_id: Optional[bytes] = None, reason: Optional[str] = None):
        entry = {
            "sequence": len(self._audit_base) + len(self._audit),
            "op": op,
            "key_id": key_id.hex() if key_id else None,
            "context_id_hex": context_id.hex() if context_id else None,
            "outcome": outcome,
        }
        if reason:
            entry["reason"] = reason
        self._audit.append(entry)

    # --- key lifecycle ----------------------------------------------------

    def _require_key(self, key_id: bytes) -> ManagedKey:
        key = self._keys.get(key_id)
        if key is None:
            raise UnknownKeyError(f"no key {key_id.hex()}")
        return key

    def _require_user_key(self, key_id: bytes) -> ManagedKey:
        if key_id in (self._kek_id, self._share_key_id, self._point_key_id):
            raise KeyStateError(f"key {key_id.hex()} is the zone's KEK, share key or point key")
        return self._require_key(key_id)

    def generate_key(self, purpose: str, budget: int = DEFAULT_BUDGET,
                     rng_seed: int = 0) -> bytes:
        """Create a 32-byte key inside the zone; only the key id leaves."""
        if purpose not in PURPOSES:
            raise WrongPurposeError(f"unknown purpose {purpose!r}")
        material = sha256(
            b"edgevault.keymat"
            + int(rng_seed).to_bytes(8, "big", signed=False)
            + self._op_counter.to_bytes(8, "big")
            + purpose.encode()
        )
        self._op_counter += 1
        key_id = sha256(b"edgevault.keyid" + material)[:16]
        self._keys[key_id] = ManagedKey(
            key_id=key_id,
            purpose=purpose,
            state="generated",
            usage_budget=budget,
            uses=0,
            created_at=self._tsa.issue(),
            material=material,
            nonces=NonceSequence(key_id),
        )
        self._log("generate_key", "ok", key_id=key_id)
        return key_id

    def retire_key(self, key_id: bytes):
        key = self._require_user_key(key_id)
        key.state = "retired"
        self._log("retire_key", "ok", key_id=key_id)

    def wrap_key(self, kek_id: bytes, target_id: bytes) -> AeadRecord:
        """Encrypt the target key under a key-encryption key."""
        kek = self._require_key(kek_id)
        target = self._require_key(target_id)
        if kek.purpose != "key-encryption":
            raise WrongPurposeError(f"key {kek_id.hex()} is {kek.purpose}, not key-encryption")
        record = aead_encrypt(kek.cipher, target.material, b"wrap" + target_id, kek.nonces)
        self._log("wrap_key", "ok", key_id=target_id)
        return record

    def verify_wrapped(self, kek_id: bytes, target_id: bytes, record: AeadRecord) -> bool:
        """Check (inside the zone) that a wrap record restores the target key."""
        kek = self._require_key(kek_id)
        try:
            restored = aead_decrypt(kek.cipher, record, b"wrap" + target_id)
        except AuthenticationFailure:
            return False
        return hmac.compare_digest(restored, self._require_key(target_id).material)

    # --- splitting and distribution ----------------------------------------

    def split_and_distribute(
        self, key_id: bytes, context_id: bytes, q_order: int = 256, rng_seed: int = 0
    ) -> DistributionResult:
        """Wrap the key, 2-of-2 split the wrapped bytes, seal both shares.

        Share 1 stays in the zone (edge), share 2 is returned for transfer
        to the cloud; the split record never leaves.
        """
        key = self._require_user_key(key_id)
        if key.state != "generated":
            raise AlreadySplitError(f"key {key_id.hex()} is already {key.state}")
        # refused before the wrap below spends a KEK nonce and logs a split that never happens
        if len(context_id) != CONTEXT_LEN:
            raise UnknownKeyError(f"a context id is {CONTEXT_LEN} bytes, not {len(context_id)}")
        if not 2 <= q_order <= 65535:
            raise InvalidOrderError(f"order must be in [2, 65535], got {q_order}")
        if context_id in self._contexts:
            raise AlreadySplitError(f"context {context_id.hex()} already has a distribution")

        wrapped = self.wrap_key(self._kek_id, key_id).to_bytes()
        share1, share2, record = split(
            wrapped, q_order, derive_seed(rng_seed, b"qg" + context_id), context_id,
            derive_seed(rng_seed, b"mask" + context_id),
        )

        share_key = self._keys[self._share_key_id]
        sealed1 = seal_share(share1, share_key.cipher, context_id, share_key.nonces)
        sealed2 = seal_share(share2, share_key.cipher, context_id, share_key.nonces)

        self._contexts[context_id] = _Context(record, sealed1, key_id)
        key.state = "distributed"
        self._log("split_and_distribute", "ok", key_id=key_id, context_id=context_id)
        return DistributionResult(edge_share=sealed1, cloud_share=sealed2)

    # --- transaction authorization ------------------------------------------

    def authorize_transaction(
        self, context_id: bytes, presented_cloud_share: SealedShare, ts: Timestamp
    ) -> Decision:
        """Verify a cloud-initiated transaction end to end.

        Checks, in order: that the key is not retired, timestamp freshness
        against the TSA and the last accepted timestamp for this
        context, the key's usage budget, the share combination (AEAD,
        binding tags, quasigroup rebuild, checksum), then the wrap record.
        Every call is audit-logged.
        """
        context = self._contexts.get(context_id)
        if context is None:
            self._log("authorize_transaction", "error", context_id=context_id,
                      reason="unknown-context")
            raise UnknownKeyError(f"no split record for context {context_id.hex()}")
        key_id = context.key_id
        key = self._keys[key_id]
        if key.state == "retired":
            self._log("authorize_transaction", "error", key_id=key_id,
                      context_id=context_id, reason="key-retired")
            raise KeyStateError(f"key {key_id.hex()} is retired")

        def reject(reason: str) -> Decision:
            self._log("authorize_transaction", "rejected", key_id=key_id,
                      context_id=context_id, reason=reason)
            return Decision(accepted=False, reason=reason)

        if not verify_freshness(self._tsa, ts, context.last_seen):
            return reject("replay")
        if key.uses >= key.usage_budget:
            return reject("budget-exhausted")

        try:
            wrapped = combine_and_verify(context.edge_share, presented_cloud_share,
                                         context.record, self._keys[self._share_key_id].cipher)
        except ShareVerificationError as exc:
            return reject(exc.code)

        # Deep check: the reconstructed wrap record must restore the stored key.
        if not self.verify_wrapped(self._kek_id, key_id, AeadRecord.from_bytes(wrapped)):
            return reject("checksum-mismatch")

        key.uses += 1
        context.last_seen = ts
        self._log("authorize_transaction", "accepted", key_id=key_id, context_id=context_id)
        return _ACCEPTED

    # --- hosted identity ledger ----------------------------------------------

    def attach_ledger(self, ledger: IdentityLedger):
        self.ledger = ledger

    def register_device(self, device_label: str, rng_seed: int) -> LedgerEntry:
        """Register a device on the hosted ledger with the zone's point key."""
        if self.ledger is None:
            raise KeyStateError("no ledger attached to this zone")
        entry = self.ledger.register_device(
            device_label, self._tsa, self._keys[self._point_key_id].cipher, rng_seed
        )
        self._log("register_device", "ok", key_id=self._point_key_id,
                  context_id=entry.h2)
        return entry

    # --- exports and persistence ----------------------------------------------

    def state_dict(self, whole: bool = True) -> dict:
        """Full internal state for zone-internal persistence (see module doc).

        With ``whole=False``, only what differs from the state the zone was
        loaded from: the keys and contexts that are new or changed (whole
        units) and the audit entries after the loaded ones.
        """
        return {
            "op_counter": self._op_counter,
            "kek_id": self._kek_id.hex(),
            "share_key_id": self._share_key_id.hex(),
            "point_key_id": self._point_key_id.hex(),
            "keys": self._keys.units() if whole else self._keys.rewritten(),
            "contexts": self._contexts.units() if whole else self._contexts.rewritten(),
            "audit": [*self._audit_base, *self._audit] if whole else self._audit,
        }

    @classmethod
    def from_state_dict(cls, d: dict, tsa: TimestampAuthority) -> "SecureZone":
        """Parse a zone and every key and context in it."""
        zone = cls.lazy_from_state_dict(d, tsa)
        zone._contexts.values()  # decodes each context's key too
        zone._keys.values()
        return zone

    @classmethod
    @parses(StateError, "corrupted zone state")
    def lazy_from_state_dict(cls, d: dict, tsa: TimestampAuthority) -> "SecureZone":
        """A zone over its stored state that decodes each key and context the
        first time it is used; the three infrastructure keys must exist.

        The keys and contexts are maps from id hex to unit, or mappings from
        id to unit that decode a unit when it is asked for it; the audit is a
        list, or a sequence that decodes its entries on first use.
        """
        zone = cls.__new__(cls)
        zone._tsa = tsa
        zone._keys = _Units(_decode_key, _encode_key, _stored_units(d["keys"]))
        zone._contexts = _Units(partial(_decode_context, zone._keys), _encode_context,
                                _stored_units(d["contexts"]))
        zone._op_counter = _op_counter(d["op_counter"])
        zone._audit_base = _audit_list(d["audit"])
        zone._audit = []
        zone._kek_id = _stored_key_id(zone._keys, d["kek_id"])
        zone._share_key_id = _stored_key_id(zone._keys, d["share_key_id"])
        zone._point_key_id = _stored_key_id(zone._keys, d["point_key_id"])
        zone.ledger = None
        return zone
