"""Hypothesis fuzz of the parsers on the authorize, CLI and simulator input paths.

Each byte parser gets 1-3 byte edits of a valid encoding plus arbitrary
bytes; each JSON parser gets 1-3 value edits of a valid document (a node
replaced by an arbitrary JSON value, dropped, or wrapped in a list).  Only
``EdgeVaultError`` may escape, and from a JSON parser only the error it
declares.  What parses must also survive the code that uses it.  Inputs that
once leaked something else are kept below as named cases.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevault.bloom import BloomFilter
from edgevault.cli import AppState
from edgevault.crypto import AeadRecord, NonceSequence, Timestamp, TimestampAuthority, aead_cipher
from edgevault.curves import WeierstrassCurve, standard_curve, tiny_curve
from edgevault.errors import (
    CurveError,
    EdgeVaultError,
    EncryptionError,
    FilterParameterError,
    KeyStateError,
    MalformedTableError,
    ScenarioConfigError,
    StateError,
)
from edgevault.ledger import IdentityLedger
from edgevault.quasigroup import Quasigroup, generate_quasigroup
from edgevault.securezone import Decision, SecureZone
from edgevault.shares import PlainShare, SealedShare, SplitRecord, seal_share, split
from edgevault.simnet import SimScenario, SimStep, run_scenario

from mutation import json_mutants, mutants, write_state

CTX = bytes(32)
_EDGE, _CLOUD, _RECORD = split(b"attack at dawn..", 16, 77, CTX, rng_seed=5)
_SEALED = seal_share(_CLOUD, aead_cipher(bytes(range(32))), CTX, NonceSequence(1))

PLAIN_SHARE = _EDGE.to_bytes()
AEAD_RECORD = _SEALED.record.to_bytes()
SEALED_JSON = _SEALED.to_json().encode()
TABLE = generate_quasigroup(5, 2).to_bytes()


def _filter_bytes():
    filt = BloomFilter.create(8, 0.01)
    for i in range(8):
        filt.insert(bytes([i]) * 32)
    return filt.to_bytes()


FILTER = _filter_bytes()

FUZZ = settings(max_examples=300, deadline=None)


@FUZZ
@given(mutants(PLAIN_SHARE))
def test_mutated_plain_share_raises_only_edgevault_errors(payload):
    try:
        share = PlainShare.from_bytes(payload)
    except EdgeVaultError:
        return
    assert share.to_bytes() == payload


@FUZZ
@given(mutants(AEAD_RECORD))
def test_mutated_aead_record_raises_only_edgevault_errors(payload):
    try:
        record = AeadRecord.from_bytes(payload)
    except EdgeVaultError:
        return
    assert record.to_bytes() == payload


@FUZZ
@given(mutants(SEALED_JSON))
def test_mutated_sealed_share_raises_only_edgevault_errors(payload):
    try:
        SealedShare.from_json(payload.decode("utf-8", "surrogateescape")).to_json()
    except EdgeVaultError:
        pass


@FUZZ
@given(mutants(TABLE))
def test_mutated_table_raises_only_edgevault_errors(payload):
    try:
        q = Quasigroup.from_bytes(payload)
    except EdgeVaultError:
        return
    assert q.to_bytes() == payload


@FUZZ
@given(mutants(FILTER))
def test_mutated_filter_raises_only_edgevault_errors(payload):
    try:
        filt = BloomFilter.from_bytes(payload)
    except EdgeVaultError:
        return
    filt.contains(CTX)
    assert filt.to_bytes() == payload


def test_deeply_nested_sealed_share_is_state_error():
    # json.loads raised a raw RecursionError through from_json
    with pytest.raises(StateError):
        SealedShare.from_json("[" * 100_000)


@pytest.mark.parametrize("m,k", [(1, 2), (8, (1 << 64) - 1)])
def test_filter_with_more_probes_than_bits_is_rejected(m, k):
    # a parsed k of 2^64 - 1 made every contains() loop for ever
    payload = BloomFilter(m, 1).to_bytes()
    payload = payload[:8] + k.to_bytes(8, "big") + payload[16:]
    with pytest.raises(FilterParameterError):
        BloomFilter.from_bytes(payload)


# --- JSON parsers ----------------------------------------------------------------


def _zone_fixture():
    """A zone with two distributed contexts, one used once; its cloud shares."""
    tsa = TimestampAuthority(issuer="t", clock=lambda: 1_700_000_000)
    zone = SecureZone(3, tsa)
    cloud = {}
    for i in range(2):
        context = bytes([i + 1]) * 32
        key_id = zone.generate_key("data-encryption", rng_seed=i)
        cloud[context] = zone.split_and_distribute(key_id, context, q_order=16,
                                                   rng_seed=i).cloud_share
    assert zone.authorize_transaction(context, cloud[context], tsa.issue()).accepted
    return zone.state_dict(), cloud


ZONE, CLOUD_SHARES = _zone_fixture()
TSA_STATE = TimestampAuthority.from_state_dict(
    {"issuer": "t", "sequence": 9, "last_epoch": 0}).state_dict()


def _ledger_state():
    ledger = IdentityLedger(group_id="g", curve=tiny_curve())
    tsa = TimestampAuthority(issuer="t", clock=lambda: 1_700_000_000)
    for i in range(2):
        ledger.register_device(f"d{i}", tsa, aead_cipher(bytes(32)), rng_seed=i)
    return ledger.state_dict()


LEDGER_STATE = _ledger_state()
DOCUMENT = {"seq": 0, "tsa": TSA_STATE, "zone": ZONE, "ledger": LEDGER_STATE}


def _load_document(doc):
    """``AppState.load_zone`` of a state dir whose ``zone.db`` holds ``doc``
    as its whole state, with every key, context and ledger entry decoded."""
    with tempfile.TemporaryDirectory() as root:
        state = AppState(Path(root), "json")
        write_state(root, doc)
        zone, tsa = state.load_zone()
        zone._contexts.values()  # decodes each context's key too
        zone._keys.values()
        if zone.ledger is not None:
            zone.ledger.entries
        return zone, tsa


def test_the_unmutated_state_document_loads():
    zone, tsa = _load_document(DOCUMENT)
    assert zone.state_dict() == ZONE
    assert zone.ledger.state_dict() == LEDGER_STATE
    assert tsa.state_dict() == TSA_STATE


SCENARIO = SimScenario(
    name="fuzz", seed=5, device_count=2, order=16, curve=tiny_curve(),
    script=[
        SimStep("register", device="a", expect="registered"),
        SimStep("register", device="b"),
        SimStep("transact", device="a", expect="accepted"),
        SimStep("attack", kind="replay", device="a"),
        SimStep("attack", kind="tamper-ledger-bit", entry=1, bit=3, expect="detected:1"),
    ],
).to_json_dict()


def _parses_or_raises(parse, payload, error):
    """``parse(payload)``, or None if it raised exactly ``error``."""
    try:
        return parse(payload)
    except EdgeVaultError as exc:
        assert type(exc) is error, repr(exc)
        return None


@pytest.mark.parametrize(
    "parse,valid,error",
    [
        (AeadRecord.from_json_dict, _SEALED.record.to_json_dict(), StateError),
        (SplitRecord.from_state_dict, _RECORD.to_state_dict(), StateError),
        (WeierstrassCurve.from_json_dict, standard_curve().to_json_dict(), CurveError),
        (Timestamp.from_json_dict, Timestamp(1_700_000_000, "t", 3).to_json_dict(), StateError),
        (TimestampAuthority.from_state_dict, TSA_STATE, StateError),
        (IdentityLedger.from_state_dict, LEDGER_STATE, StateError),
        (_load_document, DOCUMENT, StateError),
    ],
    ids=["aead-record", "split-record", "curve", "timestamp", "tsa", "ledger-state",
         "state-document"],
)
@FUZZ
@given(data=st.data())
def test_mutated_json_raises_only_the_parsers_error(parse, valid, error, data):
    _parses_or_raises(parse, data.draw(json_mutants(valid)), error)


@FUZZ
@given(json_mutants(ZONE))
def test_mutated_zone_state_parses_to_a_working_zone(payload):
    tsa = TimestampAuthority.from_state_dict({"issuer": "t", "sequence": 50, "last_epoch": 0},
                                             clock=lambda: 1_700_000_000)
    zone = _parses_or_raises(lambda d: SecureZone.from_state_dict(d, tsa), payload, StateError)
    if zone is None:
        return
    for context in zone._contexts:
        share = CLOUD_SHARES.get(context, _SEALED)
        assert isinstance(zone.authorize_transaction(context, share, tsa.issue()), Decision)
    own = (zone._kek_id, zone._share_key_id, zone._point_key_id)
    for key_id in zone._keys:
        if key_id in own:
            with pytest.raises(KeyStateError):
                zone.retire_key(key_id)
        else:
            zone.retire_key(key_id)


@FUZZ
@given(json_mutants(SCENARIO))
def test_mutated_scenario_parses_to_a_runnable_scenario(payload):
    text = json.dumps(payload)
    scenario = _parses_or_raises(SimScenario.from_json, text, ScenarioConfigError)
    if scenario is None:
        return
    try:
        run_scenario(scenario)
    except EdgeVaultError:
        pass


# --- named cases: inputs that once leaked a raw exception or the wrong code -----


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


def _load_zone(d):
    return SecureZone.from_state_dict(d, TimestampAuthority())


def _set_key_field(field, value):
    def edit(zone):
        list(zone["keys"].values())[-1][field] = value
    return edit


def _context(zone):
    """The zone's first context unit."""
    return next(iter(zone["contexts"].values()))


def _under_another_id(section, other_id):
    """Store a copy of the section's first unit under an id it does not name."""
    def edit(zone):
        zone[section][other_id] = next(iter(zone[section].values()))
    return edit


def _short_aead_field(field):
    return lambda d: d.update({field: "00"})


def _step(**fields):
    return _edited(SCENARIO, lambda d: d["script"][-1].update(fields))


@pytest.mark.parametrize(
    "parse,payload,error",
    [
        # authorize_transaction raised IndexError on the missing tag
        (_load_zone, _edited(ZONE, lambda d: _context(d)["record"]["expected_tags"].pop()),
         StateError),
        (SplitRecord.from_state_dict,
         _edited(_RECORD.to_state_dict(), lambda d: d.update(context_id="00")), StateError),
        (SplitRecord.from_state_dict,
         _edited(_RECORD.to_state_dict(), lambda d: d.update(secret_checksum="")), StateError),
        (SplitRecord.from_state_dict,
         _edited(_RECORD.to_state_dict(), lambda d: d["expected_tags"].append("00" * 32)),
         StateError),
        # authorize_transaction raised KeyError on the missing entries
        (_load_zone, _edited(ZONE, lambda d: _context(d).pop("key_id")), StateError),
        (_load_zone, _edited(ZONE, lambda d: _context(d).pop("edge_share")), StateError),
        # a unit under an id its record does not name loaded as an alias of that record
        (_load_zone, _edited(ZONE, _under_another_id("contexts", "ab" * 32)), StateError),
        (_load_zone, _edited(ZONE, _under_another_id("keys", "ab" * 16)), StateError),
        (_load_zone, _edited(ZONE, _set_key_field("state", "bogus")), StateError),
        (_load_zone, _edited(ZONE, _set_key_field("purpose", "bogus")), StateError),
        # the next nonce raised struct.error
        (_load_zone, _edited(ZONE, _set_key_field("nonce_counter", -1)), StateError),
        # authorize_transaction raised ValueError, InvalidOrderError, KeyError and
        # EncryptionError; generate_key raised OverflowError
        (_load_zone, _edited(ZONE, lambda d: _context(d)["edge_share"].update(index=300)),
         StateError),
        (_load_zone, _edited(ZONE, lambda d: _context(d)["record"].update(order=1)), StateError),
        (_load_zone, _edited(ZONE, lambda d: d.update(share_key_id="00" * 16)), StateError),
        (_load_zone, _edited(ZONE, _set_key_field("material", "00")), StateError),
        (_load_zone, dict(ZONE, op_counter=-1), StateError),
        (TimestampAuthority.from_state_dict, dict(TSA_STATE, sequence=-1), StateError),
        (TimestampAuthority.from_state_dict, dict(TSA_STATE, last_epoch=1 << 64), StateError),
        # a 1-byte AEAD tag or nonce gave encryption-failure, not corrupted-state
        (SealedShare.from_json_dict, _edited(_SEALED.to_json_dict(), _short_aead_field("tag")),
         StateError),
        (_load_zone, _edited(ZONE, lambda d: _short_aead_field("nonce")(
            _context(d)["edge_share"])), StateError),
        (IdentityLedger.from_state_dict,
         _edited(LEDGER_STATE, lambda d: d["entries"][0].update(tag_hex="00")), StateError),
        # run_scenario raised TypeError / AttributeError, from_json OverflowError
        (SimScenario.from_json_dict, _step(entry="1"), ScenarioConfigError),
        (SimScenario.from_json_dict, _step(bit=True), ScenarioConfigError),
        (SimScenario.from_json_dict, _step(bit=-1), ScenarioConfigError),
        (SimScenario.from_json_dict, _step(device=7), ScenarioConfigError),
        (SimScenario.from_json_dict, dict(SCENARIO, seed=-1), ScenarioConfigError),
        (SimScenario.from_json_dict, dict(SCENARIO, seed=1 << 64), ScenarioConfigError),
        # a share with no whole secret byte parsed
        (PlainShare.from_bytes, b"\x01\x00\x02\x00\x00\x00\x01\x00\x01", MalformedTableError),
        (PlainShare.from_bytes, PLAIN_SHARE[:3] + (33).to_bytes(4, "big") + PLAIN_SHARE[7:]
         + b"\x00\x00", MalformedTableError),
        # set padding bits after bit m decoded to the same filter as clear ones
        (BloomFilter.from_bytes, BloomFilter(9, 1).to_bytes()[:-1] + b"\x01",
         FilterParameterError),
        # refusals the fuzz above reaches by chance; a fixed input reaches each on every run
        (AeadRecord.from_bytes, AEAD_RECORD[:27], EncryptionError),
        (Quasigroup.from_bytes, TABLE[:3], MalformedTableError),
        (PlainShare.from_bytes, PLAIN_SHARE[:6], MalformedTableError),
        (PlainShare.from_bytes, b"\x03" + PLAIN_SHARE[1:], MalformedTableError),
        (PlainShare.from_bytes, PLAIN_SHARE[:7] + b"\x00\x10" + PLAIN_SHARE[9:],
         MalformedTableError),
        (BloomFilter.from_bytes, FILTER + b"\x00", FilterParameterError),
        (IdentityLedger.from_state_dict, dict(LEDGER_STATE, entries={}), StateError),
        (IdentityLedger.from_state_dict, dict(LEDGER_STATE, entries="e"), StateError),
        (_load_zone, dict(ZONE, keys=[]), StateError),
        # a null unit read as no unit, and values() raised KeyError
        (_load_zone, dict(ZONE, contexts={"": None}), StateError),
        (_load_zone, dict(ZONE, audit="entries"), StateError),
        (_load_document, _edited(DOCUMENT, lambda d: d["zone"]["keys"].update(
            {ZONE["kek_id"]: []})), StateError),
    ],
    ids=["zone-one-expected-tag", "split-record-short-context", "split-record-empty-checksum",
         "split-record-three-tags", "zone-no-context-key", "zone-no-edge-share",
         "zone-context-under-another-id", "zone-key-under-another-id",
         "zone-bogus-key-state", "zone-bogus-purpose", "zone-negative-nonce-counter",
         "zone-edge-share-index-300", "zone-record-order-1", "zone-unknown-share-key-id",
         "zone-short-key-material", "zone-negative-op-counter",
         "tsa-negative-sequence", "tsa-epoch-past-u64", "share-one-byte-tag",
         "zone-edge-share-one-byte-nonce", "ledger-state-one-byte-tag",
         "scenario-string-entry",
         "scenario-bool-bit", "scenario-negative-bit", "scenario-int-device",
         "scenario-negative-seed", "scenario-seed-past-u64", "plain-share-zero-length-secret",
         "plain-share-extra-digit", "filter-padding-bits", "aead-record-too-short",
         "table-truncated", "plain-share-truncated", "plain-share-index-3",
         "plain-share-digit-16-at-order-16", "filter-extra-byte", "ledger-state-entries-mapping",
         "ledger-state-entries-string", "zone-keys-list", "zone-null-context-unit",
         "zone-audit-string",
         "record-0-key-unit-list"],
)
def test_named_malformed_input_raises_the_parsers_error(parse, payload, error):
    with pytest.raises(EdgeVaultError) as info:
        parse(payload)
    assert type(info.value) is error, repr(info.value)
