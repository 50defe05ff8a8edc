import hashlib
import json

import pytest
from hypothesis import given, settings

from edgevault.crypto import AeadRecord, Timestamp, TimestampAuthority, aead_cipher, aead_decrypt
from edgevault.curves import is_on_curve, point_from_bytes, standard_curve, tiny_curve
from edgevault.errors import (
    DuplicateDeviceError,
    EdgeVaultError,
    GroupFullError,
    RefuseSyncError,
    StateError,
)
from edgevault.ledger import ChainReport, IdentityLedger, LedgerEntry, parse_entry_lines
from edgevault.securezone import SecureZone
from edgevault.shares import SealedShare
from edgevault.simnet import _Cloud

from mutation import mutants

POINT_KEY = aead_cipher(bytes(32))


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


def _unsealed_points(ledger, point_key=POINT_KEY):
    """Each entry's point, unsealed here with the AD ``register_device`` seals it under."""
    return [
        point_from_bytes(ledger.curve, aead_decrypt(
            point_key, e.ciphertext_record, b"point" + e.device_label.encode()))
        for e in ledger.entries
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
    points = _unsealed_points(f5_ledger)
    assert len(set(points)) == 8
    assert all(is_on_curve(f5_ledger.curve, point) for point in points)


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


def test_a_chain_report_is_true_exactly_when_the_chain_is_valid(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 2)
    assert f5_ledger.verify_chain()
    assert not ChainReport(valid=False, first_bad_index=0)


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
    material = bytes(range(32))
    f5_ledger.register_device("d", tsa, aead_cipher(material), rng_seed=1)
    snap = f5_ledger.sync_to_cloud()
    assert material.hex().encode() not in snap
    assert material not in snap
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


@pytest.mark.parametrize("off_by", [-1, 1])
def test_import_rejects_a_header_entry_count_off_by_one(f5_ledger, tsa, off_by):
    _register_n(f5_ledger, tsa, 3)
    head, _, body = f5_ledger.sync_to_cloud().partition(b"\n")
    header = json.loads(head)
    header["entry_count"] += off_by
    with pytest.raises(StateError, match="snapshot entry count mismatch"):
        IdentityLedger.import_snapshot(json.dumps(header).encode() + b"\n" + body)


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
    state = f5_ledger.state_dict()
    assert set(state) == {"group_id", "curve", "entries"}  # no plaintext point
    restored = IdentityLedger.from_state_dict(state)
    assert restored.verify_chain().valid
    assert len(restored) == 4
    # the used points are unsealed from the entries: registrations continue
    # without point reuse until the 8-point group is full
    for i in range(4):
        restored.register_device(f"late-{i}", tsa, POINT_KEY, rng_seed=50 + i)
    assert len(set(_unsealed_points(restored))) == 8
    with pytest.raises(GroupFullError):
        restored.register_device("ninth", tsa, POINT_KEY, rng_seed=99)


def test_used_points_read_first_decode_a_loaded_ledger(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 3)
    loaded = IdentityLedger.lazy_from_state_dict(f5_ledger.state_dict())
    # the first registration decodes the stored entries and unseals their points
    new = loaded.register_device("fresh", tsa, POINT_KEY, rng_seed=0)
    assert len(loaded) == 4
    assert len(set(_unsealed_points(loaded))) == 4
    assert loaded.state_dict(whole=False)["entries"] == [new.to_json_dict(3)]


def test_an_imported_replica_refuses_a_ninth_device_on_the_tiny_curve(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 8)
    replica = IdentityLedger.import_snapshot(f5_ledger.sync_to_cloud())
    with pytest.raises(GroupFullError):
        replica.register_device("ninth", tsa, POINT_KEY, rng_seed=99)
    # without the point key the replica cannot learn its used points at all
    with pytest.raises(StateError, match="AEAD authentication failed"):
        IdentityLedger.import_snapshot(f5_ledger.sync_to_cloud()).register_device(
            "ninth", tsa, aead_cipher(bytes(range(32))), rng_seed=99)


def test_an_entry_that_does_not_unseal_is_corrupted_state(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 3)
    state = f5_ledger.state_dict()
    ledger = IdentityLedger.from_state_dict(state)
    with pytest.raises(StateError) as info:
        ledger.register_device("d", tsa, aead_cipher(bytes(range(32))), 1)
    assert info.value.code == "corrupted-state"
    assert len(ledger) == 3  # the refused registration appended nothing
    # a point too short for the stored curve
    state["curve"] = standard_curve().to_json_dict()
    with pytest.raises(StateError, match="expected 64 point bytes, got 2"):
        IdentityLedger.from_state_dict(state).register_device("d", tsa, POINT_KEY, 1)


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


# --- delta sync -------------------------------------------------------------

def _tamper_ciphertext(ledger, index):
    e = ledger.entries[index]
    ct = bytes([e.ciphertext_record.ciphertext[0] ^ 1]) + e.ciphertext_record.ciphertext[1:]
    ledger.entries[index] = LedgerEntry(
        device_label=e.device_label,
        ciphertext_record=AeadRecord(e.ciphertext_record.nonce, ct, e.ciphertext_record.tag),
        timestamp=e.timestamp,
        h1=e.h1,
        h2=e.h2,
    )


def test_sync_delta_is_the_tail_of_the_full_snapshot(f5_ledger, tsa):
    entries = _register_n(f5_ledger, tsa, 5)
    body = f5_ledger.sync_to_cloud().partition(b"\n")[2].splitlines(keepends=True)
    for count in range(6):
        delta = f5_ledger.sync_delta(count, entries[count - 1].h2 if count else None)
        assert delta == b"".join(body[count:])
        parsed = parse_entry_lines(delta, start=count)
        assert [e.h2 for e in parsed] == [e.h2 for e in entries[count:]]


def test_sync_delta_refuses_a_tip_not_on_the_chain(f5_ledger, tsa):
    entries = _register_n(f5_ledger, tsa, 3)
    bad_tips = [
        (0, entries[0].h2),  # a replica with no entries has no tip
        (4, entries[2].h2),  # more entries than the edge holds
        (2, entries[0].h2),  # a tip that is not entry count-1
        (3, bytes(32)),
    ]
    for count, tip in bad_tips:
        with pytest.raises(RefuseSyncError):
            f5_ledger.sync_delta(count, tip)


def test_sync_delta_refuses_an_entry_that_does_not_chain(f5_ledger, tsa):
    entries = _register_n(f5_ledger, tsa, 4)
    _tamper_ciphertext(f5_ledger, 2)
    for count in (1, 2):
        with pytest.raises(RefuseSyncError, match="index 2"):
            f5_ledger.sync_delta(count, entries[count - 1].h2)
    # entries before the tip are the replica's, already verified when sent
    assert f5_ledger.sync_delta(3, entries[2].h2).count(b"\n") == 1


def test_verify_chain_from_start_reports_absolute_index(f5_ledger, tsa):
    _register_n(f5_ledger, tsa, 5)
    assert all(f5_ledger.verify_chain(start=k).valid for k in range(6))
    _tamper_ciphertext(f5_ledger, 3)
    assert f5_ledger.verify_chain().first_bad_index == 3
    assert f5_ledger.verify_chain(start=2).first_bad_index == 3
    # chained from the stored h2 of entry 3, so entry 4 still verifies
    assert f5_ledger.verify_chain(start=4).valid


def test_parse_entry_lines_requires_consecutive_indexes(f5_ledger, tsa):
    entries = _register_n(f5_ledger, tsa, 4)
    delta = f5_ledger.sync_delta(1, entries[0].h2)
    lines = delta.splitlines(keepends=True)
    for data, start in [
        (b"".join(lines[1:]), 1),  # a gap: index 2 where 1 belongs
        (delta, 2),
        (delta, 0),
        (lines[0] * 2, 1),  # a repeated line
    ]:
        with pytest.raises(StateError):
            parse_entry_lines(data, start=start)


def _tiny_ledger(n):
    ledger = IdentityLedger(group_id="g", curve=tiny_curve())
    tsa = TimestampAuthority(issuer="t", clock=lambda: 1_700_000_000)
    _register_n(ledger, tsa, n)
    return ledger


_LEDGER = _tiny_ledger(4)
SNAPSHOT = _LEDGER.sync_to_cloud()
DELTA = _LEDGER.sync_delta(2, _LEDGER.entries[1].h2)
DEEP = b"[" * 100_000 + b"\n"

@settings(max_examples=300, deadline=None)
@given(mutants(SNAPSHOT))
def test_mutated_snapshot_raises_only_edgevault_errors(payload):
    try:
        replica = IdentityLedger.import_snapshot(payload)
        replica.verify_chain()
        replica.sync_to_cloud()
    except EdgeVaultError:
        pass


@settings(max_examples=300, deadline=None)
@given(mutants(DELTA))
def test_mutated_delta_raises_only_edgevault_errors(payload):
    cloud = _Cloud("g", tiny_curve())
    cloud.sync(_tiny_ledger(2))
    try:
        if cloud.apply_delta(payload).valid:
            IdentityLedger.import_snapshot(cloud.replica).verify_chain()
    except EdgeVaultError:
        pass


def _ledger_state_with_infinite_epoch():
    d = _tiny_ledger(1).state_dict()
    d["entries"][0]["epoch_seconds"] = float("inf")
    return d


def _snapshot_without_entry_count():
    header = {"group_id": "g", **tiny_curve().to_json_dict()}
    return json.dumps(header).encode() + b"\n"


def _load_zone(d):
    return SecureZone.from_state_dict(d, TimestampAuthority())


def _zone_state_list_shares():
    d = SecureZone(0, TimestampAuthority()).state_dict()
    d["contexts"] = []  # a JSON list where the parser expects an object
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
        (IdentityLedger.import_snapshot, DEEP),
        (IdentityLedger.import_snapshot, SNAPSHOT + DEEP),
        (parse_entry_lines, DEEP),
        (IdentityLedger.import_snapshot, SNAPSHOT.replace(b'"index":0', b'"index":1', 1)),
        (IdentityLedger.import_snapshot,
         SNAPSHOT.replace(b'"epoch_seconds":1700000000', b'"epoch_seconds":-1', 1)),
        (IdentityLedger.import_snapshot,
         SNAPSHOT.replace(b'"epoch_seconds":1700000000', b'"epoch_seconds":1e999', 1)),
        (IdentityLedger.import_snapshot, SNAPSHOT.replace(b'"entry_count":4', b'"entry_count":1e999')),
        (IdentityLedger.from_state_dict, _ledger_state_with_infinite_epoch()),
        (Timestamp.from_json_dict, {"epoch_seconds": float("inf"), "sequence": 1}),
        (TimestampAuthority.from_state_dict,
         {"issuer": "t", "sequence": float("inf"), "last_epoch": 0}),
        (SealedShare.from_json_dict, {"index": float("inf")}),
    ],
    ids=["missing-entry-count", "not-utf8", "array-header", "sealed-share-missing-fields",
         "timestamp-missing-fields", "tsa-array", "zone-missing-fields", "zone-list-for-mapping",
         "ledger-curve-missing-fields", "deep-header", "deep-entry-line", "deep-delta-line",
         "entry-index-out-of-place", "negative-epoch", "infinite-epoch", "infinite-entry-count",
         "ledger-state-infinite-epoch", "timestamp-infinite-epoch", "tsa-infinite-sequence",
         "sealed-share-infinite-index"],
)
def test_parsers_raise_state_error(parse, payload):
    with pytest.raises(StateError):
        parse(payload)
