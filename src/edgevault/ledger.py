"""Hash-chained device identity ledger.

Each registration selects a unique curve point, seals it under the zone's
point key, and chains two digests:

    h1 = SHA-256(sealed point bytes ‖ timestamp bytes)
    h2 = h1                       for the first entry
    h2 = SHA-256(prev h2 ‖ h1)    afterwards

h2 is the device's unique ID.  The chain is append-only; verification
recomputes every digest from the raw records and reports the earliest
mismatch.  The sealed entry is a point's only stored copy: the first
registration on a ledger unseals its entries, inside the secure zone, to
rebuild the set of points already taken in the group.  Snapshots carry
entries only, never key material or plaintext points, so a cloud replica
without the point key can verify but not mint identities.

A replica that holds ``count`` verified entries ending in ``tip_h2`` needs
only the entries after its tip: ``sync_delta`` returns those lines,
byte-identical to the ones in a full snapshot, after checking that the tip is
on this chain and that every line it sends chains from it.  An empty replica
(count 0, no tip) gets every line, which is the full snapshot's body, so the
first sync is a delta too.  The receiver parses the lines with
``parse_entry_lines`` (the parser ``import_snapshot`` uses for a snapshot
body) and re-chains them from its tip with ``verify_entries``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Optional

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import (
    AeadRecord, NonceSequence, Timestamp, TimestampAuthority, aead_decrypt, aead_encrypt, sha256,
)
from .curves import WeierstrassCurve, point_from_bytes, point_to_bytes, select_unique_point
from .errors import DuplicateDeviceError, RefuseSyncError, StateError, parses

__all__ = [
    "LedgerEntry", "ChainReport", "IdentityLedger",
    "snapshot_header", "parse_entry_lines", "verify_entries",
]


@dataclass(frozen=True)
class LedgerEntry:
    device_label: str
    ciphertext_record: AeadRecord
    timestamp: Timestamp
    h1: bytes
    h2: bytes

    def to_json_dict(self, index: int) -> dict:
        return {
            "index": index,
            "device_label": self.device_label,
            "nonce_hex": self.ciphertext_record.nonce.hex(),
            "ciphertext_hex": self.ciphertext_record.ciphertext.hex(),
            "tag_hex": self.ciphertext_record.tag.hex(),
            "epoch_seconds": self.timestamp.epoch_seconds,
            "sequence": self.timestamp.sequence,
            "h1_hex": self.h1.hex(),
            "h2_hex": self.h2.hex(),
        }

    @classmethod
    @parses(StateError, "malformed ledger entry")
    def from_json_dict(cls, d: dict) -> "LedgerEntry":
        return cls(
            device_label=str(d["device_label"]),
            ciphertext_record=AeadRecord(
                nonce=bytes.fromhex(d["nonce_hex"]),
                ciphertext=bytes.fromhex(d["ciphertext_hex"]),
                tag=bytes.fromhex(d["tag_hex"]),
            ),
            timestamp=Timestamp.from_json_dict(d),
            h1=bytes.fromhex(d["h1_hex"]),
            h2=bytes.fromhex(d["h2_hex"]),
        )


@dataclass
class ChainReport:
    valid: bool
    first_bad_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.valid


def _chain_digests(prev_h2: Optional[bytes], record: AeadRecord, ts: Timestamp) -> tuple[bytes, bytes]:
    h1 = sha256(record.to_bytes() + ts.to_bytes())
    h2 = h1 if prev_h2 is None else sha256(prev_h2 + h1)
    return h1, h2


def verify_entries(
    entries: Iterable[LedgerEntry], prev_h2: Optional[bytes] = None, start: int = 0
) -> ChainReport:
    """Recompute h1/h2 for the chain entries from index ``start`` on.

    ``prev_h2`` is the h2 of entry ``start - 1`` (None for the first entry).
    The earliest mismatch is reported by its absolute index.
    """
    for i, entry in enumerate(entries, start):
        h1, h2 = _chain_digests(prev_h2, entry.ciphertext_record, entry.timestamp)
        if h1 != entry.h1 or h2 != entry.h2:
            return ChainReport(valid=False, first_bad_index=i)
        prev_h2 = h2
    return ChainReport(valid=True)


def _entry_lines(entries: Iterable[LedgerEntry], start: int = 0) -> str:
    """Snapshot entry lines, each newline-terminated, numbered from ``start``."""
    return "".join(
        json.dumps(e.to_json_dict(i), sort_keys=True, separators=(",", ":")) + "\n"
        for i, e in enumerate(entries, start)
    )


def snapshot_header(group_id: str, curve: WeierstrassCurve, entry_count: int) -> bytes:
    """The first line of a snapshot, newline included."""
    header = {"group_id": group_id, "entry_count": entry_count, **curve.to_json_dict()}
    return (json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode()


@parses(StateError, "malformed entry line")
def parse_entry_lines(data: bytes, start: int = 0) -> list[LedgerEntry]:
    """Parse snapshot entry lines (a snapshot body or a delta).

    Line k must carry ``index`` ``start + k``; a malformed line or an index
    out of place raises ``StateError``.
    """
    entries = []
    for index, line in enumerate(data.decode().splitlines(), start):
        d = json.loads(line)
        entry = LedgerEntry.from_json_dict(d)
        if type(d["index"]) is not int or d["index"] != index:
            raise StateError(f"entry line {index} carries index {d['index']!r}")
        entries.append(entry)
    return entries


class IdentityLedger:
    """Append-only hash chain of device identities for one group.

    Single-writer.  Points are unique within the group; the set of used
    points is unsealed from the entries by the first registration and is
    never stored or sent.
    """

    def __init__(self, group_id: str, curve: WeierstrassCurve):
        self.group_id = group_id
        self.curve = curve
        # None until the stored entries are decoded, on first use
        self._entries: Optional[list[LedgerEntry]] = []
        self._labels: set[str] = set()
        # None until the first register_device unseals the entries
        self._used_points: Optional[set[tuple[int, int]]] = None
        # the entries (JSON) of the state the ledger was loaded from, a
        # sequence that may decode them on first use; None for a ledger never stored
        self._base: Optional[Sequence] = None

    @property
    def entries(self) -> list[LedgerEntry]:
        if self._entries is None:
            self._decode()
        return self._entries

    def __len__(self) -> int:
        return len(self.entries)

    def register_device(
        self,
        device_label: str,
        tsa: TimestampAuthority,
        point_key: AESGCM,
        rng_seed: int,
    ) -> LedgerEntry:
        """Select a unique point, seal it, chain the digests, append.

        ``point_key`` is the point key's cipher (``crypto.aead_cipher``).
        The first call unseals every entry under it to learn the points
        already taken; an entry that does not unseal is a corrupted state.
        Each nonce is a 4-byte tag derived from (group, label, seed)
        followed by a counter of 0, so only 32 bits vary between the nonces
        sealed under the one point key: by the birthday bound two devices
        share a nonce with probability about 1% at 9,300 devices and about
        50% at 77,000.
        """
        entries = self.entries
        if device_label in self._labels:
            raise DuplicateDeviceError(f"device {device_label!r} already registered")
        if self._used_points is None:
            self._used_points = self._unseal_points(point_key)
        point = select_unique_point(self.curve, self._used_points, rng_seed)
        nonce_seed = sha256(
            b"edgevault.point" + self.group_id.encode() + device_label.encode()
            + int(rng_seed).to_bytes(8, "big", signed=False)
        )
        record = aead_encrypt(point_key, point_to_bytes(self.curve, point),
                              b"point" + device_label.encode(), NonceSequence(nonce_seed))
        ts = tsa.issue()
        prev_h2 = entries[-1].h2 if entries else None
        h1, h2 = _chain_digests(prev_h2, record, ts)
        entry = LedgerEntry(device_label, record, ts, h1, h2)
        entries.append(entry)
        self._used_points.add(point)
        self._labels.add(device_label)
        return entry

    @parses(StateError, "corrupted ledger state")
    def _unseal_points(self, point_key: AESGCM) -> set[tuple[int, int]]:
        """The points sealed in the entries, unsealed under ``point_key``."""
        return {
            point_from_bytes(self.curve, aead_decrypt(
                point_key, entry.ciphertext_record, b"point" + entry.device_label.encode()))
            for entry in self.entries
        }

    def verify_chain(self, start: int = 0) -> ChainReport:
        """Recompute h1/h2 from entry ``start`` on, chained from the stored
        h2 of entry ``start - 1``; report the earliest mismatch."""
        prev_h2 = self.entries[start - 1].h2 if start else None
        return verify_entries(self.entries[start:], prev_h2, start)

    # --- snapshots -------------------------------------------------------

    def sync_to_cloud(self) -> bytes:
        """Serialized snapshot for the cloud replica (entries only, no keys).

        Refuses to sync a chain that does not verify.
        """
        header = snapshot_header(self.group_id, self.curve, len(self.entries))
        return header + self.sync_delta(0, None)

    def sync_delta(self, count: int, tip_h2: Optional[bytes]) -> bytes:
        """The snapshot lines after a replica of ``count`` entries ending in ``tip_h2``.

        Refuses a replica whose tip is not entry ``count - 1`` of this chain
        (an empty replica has count 0 and tip None), and any entry to be sent
        that does not chain from that tip.
        """
        if not 0 <= count <= len(self.entries) or tip_h2 != (
                self.entries[count - 1].h2 if count else None):
            raise RefuseSyncError(f"replica tip at {count} entries is not on this chain")
        report = self.verify_chain(start=count)
        if not report.valid:
            raise RefuseSyncError(f"chain invalid at index {report.first_bad_index}")
        return _entry_lines(self.entries[count:], count).encode()

    @classmethod
    @parses(StateError, "malformed snapshot")
    def import_snapshot(cls, data: bytes) -> "IdentityLedger":
        """Rebuild a replica from a snapshot.  It verifies; registering on it
        needs the point key its entries are sealed under.

        Imported timestamps carry an empty issuer (the snapshot's frozen hash
        form covers epoch and sequence only).
        """
        head, _, body = data.partition(b"\n")
        header = json.loads(head.decode())
        ledger = cls(str(header["group_id"]), WeierstrassCurve.from_json_dict(header))
        entry_count = int(header["entry_count"])
        ledger._entries = parse_entry_lines(body)
        ledger._labels = {entry.device_label for entry in ledger._entries}
        if len(ledger.entries) != entry_count:
            raise StateError("snapshot entry count mismatch")
        return ledger

    def export_jsonl(self) -> str:
        """Ledger export (same entry lines as the snapshot, no header)."""
        return _entry_lines(self.entries)

    # --- edge-side persistence (stays in the secure zone's state dir) -----

    def state_dict(self, whole: bool = True) -> dict:
        """Full edge-side state: the group, the curve and the entries.  With
        ``whole=False``, only the entries after those of the state the
        ledger was loaded from."""
        entries = []
        if whole or self._entries is not None:
            start = 0 if whole or self._base is None else len(self._base)
            entries = [e.to_json_dict(i) for i, e in enumerate(self.entries[start:], start)]
        return {"group_id": self.group_id, "curve": self.curve.to_json_dict(), "entries": entries}

    @classmethod
    def from_state_dict(cls, d: dict) -> "IdentityLedger":
        """Parse a ledger and every entry in it."""
        ledger = cls.lazy_from_state_dict(d)
        ledger._decode()
        return ledger

    @classmethod
    @parses(StateError, "corrupted ledger state")
    def lazy_from_state_dict(cls, d: dict) -> "IdentityLedger":
        """A ledger whose group and curve are parsed now and whose entries
        are decoded the first time they are used.  The entries are a list, or
        a sequence that decodes them on first use."""
        ledger = cls(str(d["group_id"]), WeierstrassCurve.from_json_dict(d["curve"]))
        entries = d["entries"]
        if isinstance(entries, str) or not isinstance(entries, Sequence):
            raise ValueError("entries must be a list")
        ledger._base = entries
        ledger._entries = None
        return ledger

    @parses(StateError, "corrupted ledger state")
    def _decode(self):
        entries = [LedgerEntry.from_json_dict(ed) for ed in self._base]
        self._labels = {entry.device_label for entry in entries}
        self._entries = entries

    def find_device(self, device_label: str) -> Optional[LedgerEntry]:
        for entry in self.entries:
            if entry.device_label == device_label:
                return entry
        return None
