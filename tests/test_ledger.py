import hashlib
import json

import pytest

from edgevault.crypto import AeadRecord, Timestamp, TimestampAuthority
from edgevault.curves import standard_curve, tiny_curve
from edgevault.errors import DuplicateDeviceError, GroupFullError, RefuseSyncError, StateError
from edgevault.ledger import IdentityLedger, LedgerEntry
from edgevault.securezone import SecureZone
from edgevault.shares import SealedShare

POINT_KEY = bytes(32)


def chain_oracle(raw_entries):
    """Independent recompute of the h1/h2 chain from raw record bytes."""
    out = []
    prev = None
    for record_bytes, ts_bytes in raw_entries:
        h1 = hashlib.sha256(record_bytes + ts_bytes).digest()
        h2 = h1 if prev is None else hashlib.sha256(prev + h1).digest()
        out.append((h1, h2))
        prev = h2
    return out


def _register_n(ledger, tsa, n, seed0=0):
    return [
        ledger.register_device(f"device-{i}", tsa, POINT_KEY, rng_seed=seed0 + i)
        for i in range(n)
    ]


def test_first_entry_h2_equals_h1(f5_ledger, tsa):
    entry = f5_ledger.register_device("first", tsa, POINT_KEY, rng_seed=1)
    assert entry.h2 == entry.h1


def test_second_entry_chains(f5_ledger, tsa):
    first = f5_ledger.register_device("a", tsa, POINT_KEY, rng_seed=1)
    second = f5_ledger.register_device("b", tsa, POINT_KEY, rng_seed=2)
    assert second.h2 == hashlib.sha256(first.h2 + second.h1).digest()
    assert second.h2 != second.h1


def test_chain_matches_independent_recompute(f5_ledger, tsa):
    entries = _register_n(f5_ledger, tsa, 8)
    raw = [(e.ciphertext_record.to_bytes(), e.timestamp.to_bytes()) for e in entries]
    for (h1, h2), entry in zip(chain_oracle(raw), entries):
        assert entry.h1 == h1
        assert entry.h2 == h2


def test_duplicate_label_rejected(f5_ledger, tsa):
    f5_ledger.register_device("dev", tsa, POINT_KEY, rng_seed=1)
    with pytest.raises(DuplicateDeviceError):
        f5_ledger.register_device("dev", tsa, POINT_KEY, rng_seed=2)


def test_group_full_on_tiny_curve(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 8)  # uses all 8 affine points
    with pytest.raises(GroupFullError):
        f5_ledger.register_device("ninth", tsa, POINT_KEY, rng_seed=99)


def test_point_uniqueness_within_group(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 8)
    assert len(f5_ledger.used_points) == 8


def test_verify_chain_valid(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 6)
    report = f5_ledger.verify_chain()
    assert report.valid and report.first_bad_index is None


def test_verify_flags_tampered_ciphertext(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 6)
    victim = f5_ledger.entries[3]
    ct = bytearray(victim.ciphertext_record.ciphertext)
    ct[0] ^= 1
    f5_ledger.entries[3] = LedgerEntry(
        device_label=victim.device_label,
        ciphertext_record=AeadRecord(
            victim.ciphertext_record.nonce, bytes(ct), victim.ciphertext_record.tag
        ),
        timestamp=victim.timestamp,
        h1=victim.h1,
        h2=victim.h2,
    )
    report = f5_ledger.verify_chain()
    assert not report.valid
    assert report.first_bad_index == 3


def test_truncation_keeps_prefix_valid(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 6)
    f5_ledger.entries.pop()
    assert f5_ledger.verify_chain().valid  # append-only semantics


def test_device_ids_unique(f5_ledger, tsa):
    entries = _register_n(f5_ledger, tsa, 8)
    assert len({e.h2 for e in entries}) == 8


# --- snapshots --------------------------------------------------------------

def test_empty_snapshot_header_only(f5_ledger):
    snap = f5_ledger.sync_to_cloud()
    lines = snap.decode().splitlines()
    assert len(lines) == 1
    header = json.loads(lines[0])
    assert header["entry_count"] == 0
    assert header["group_id"] == "test-group"
    assert set(header) >= {"p", "a1", "a2", "a3", "a4", "a6"}


def test_snapshot_import_verifies_at_cloud(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 5)
    snap = f5_ledger.sync_to_cloud()
    replica = IdentityLedger.import_snapshot(snap)
    assert replica.verify_chain().valid
    assert len(replica) == 5
    # replica equality is byte equality of snapshots
    assert replica.sync_to_cloud() == snap


def test_snapshot_omits_key_material(f5_ledger, tsa):
    point_key = bytes(range(32))
    f5_ledger.register_device("d", tsa, point_key, rng_seed=1)
    snap = f5_ledger.sync_to_cloud()
    assert point_key.hex().encode() not in snap
    assert point_key not in snap
    assert b"used_points" not in snap


def test_sync_refused_on_invalid_chain(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 3)
    e = f5_ledger.entries[1]
    f5_ledger.entries[1] = LedgerEntry(
        device_label=e.device_label,
        ciphertext_record=e.ciphertext_record,
        timestamp=e.timestamp,
        h1=e.h1,
        h2=bytes(32),
    )
    with pytest.raises(RefuseSyncError):
        f5_ledger.sync_to_cloud()


def test_import_rejects_garbage():
    with pytest.raises(StateError):
        IdentityLedger.import_snapshot(b"")
    with pytest.raises(StateError):
        IdentityLedger.import_snapshot(b'{"group_id": "x"}\n')


def test_export_jsonl_fields(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 2)
    lines = f5_ledger.export_jsonl().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[1])
    assert set(row) == {
        "index", "device_label", "nonce_hex", "ciphertext_hex", "tag_hex",
        "epoch_seconds", "sequence", "h1_hex", "h2_hex",
    }
    assert row["index"] == 1


def test_state_dict_roundtrip_preserves_used_points(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 4)
    restored = IdentityLedger.from_state_dict(f5_ledger.state_dict())
    assert restored.verify_chain().valid
    assert restored.used_points == f5_ledger.used_points
    assert len(restored) == 4
    # registrations continue without point reuse
    restored.register_device("fresh", tsa, POINT_KEY, rng_seed=50)
    assert len(restored.used_points) == 5


def test_registration_on_256_bit_curve(tsa):
    ledger = IdentityLedger(group_id="big", curve=standard_curve())
    entry = ledger.register_device("dev", tsa, POINT_KEY, rng_seed=1)
    assert len(entry.ciphertext_record.ciphertext) == 64  # two 32-byte coordinates
    assert ledger.verify_chain().valid


def test_recompute_chain_from_raw_records_10_devices(tsa):
    ledger = IdentityLedger(group_id="big", curve=standard_curve())
    entries = [
        ledger.register_device(f"n{i}", tsa, POINT_KEY, rng_seed=i) for i in range(10)
    ]
    raw = [(e.ciphertext_record.to_bytes(), e.timestamp.to_bytes()) for e in entries]
    assert [h2 for _, h2 in chain_oracle(raw)] == [e.h2 for e in entries]


def _snapshot_without_entry_count():
    header = {"group_id": "g", **tiny_curve().to_json_dict()}
    return json.dumps(header).encode() + b"\n"


def _load_zone(d):
    return SecureZone.from_state_dict(d, TimestampAuthority())


def _zone_state_list_shares():
    d = SecureZone(0, TimestampAuthority()).state_dict()
    d["edge_shares"] = []  # a JSON list where the parser expects an object
    return d


@pytest.mark.parametrize(
    "parse,payload",
    [
        (IdentityLedger.import_snapshot, _snapshot_without_entry_count()),
        (IdentityLedger.import_snapshot, b"\xff\xfe not utf-8\n"),
        (IdentityLedger.import_snapshot, b'["a header", "that is an array"]\n'),
        (SealedShare.from_json_dict, {"index": 1}),
        (Timestamp.from_json_dict, {}),
        (TimestampAuthority.from_state_dict, []),
        (_load_zone, {"zone_seed": 0}),
        (_load_zone, _zone_state_list_shares()),
        (IdentityLedger.from_state_dict, {"group_id": "g", "curve": {}, "entries": []}),
    ],
    ids=["missing-entry-count", "not-utf8", "array-header", "sealed-share-missing-fields",
         "timestamp-missing-fields", "tsa-array", "zone-missing-fields", "zone-list-for-mapping",
         "ledger-curve-missing-fields"],
)
def test_parsers_raise_state_error(parse, payload):
    with pytest.raises(StateError):
        parse(payload)
