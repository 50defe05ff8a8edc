import json
from collections import Counter

import numpy as np
import pytest

import edgevault.crypto
import edgevault.shares
from edgevault.crypto import AeadRecord, Timestamp, TimestampAuthority
from edgevault.curves import tiny_curve
from edgevault.errors import (
    AlgebraFailureError,
    AlreadySplitError,
    InvalidOrderError,
    KeyStateError,
    StateError,
    UnknownKeyError,
    WrongPurposeError,
)
from edgevault.ledger import IdentityLedger
from edgevault.quasigroup import IsotopeQuasigroup, generate_quasigroup
from edgevault.securezone import DEFAULT_BUDGET, Decision, SecureZone
from edgevault.shares import SealedShare, combine_and_verify
from edgevault.statefile import StateDir

from mutation import stored_rows

CTX = bytes(range(32))


def _distributed(zone, budget=DEFAULT_BUDGET, order=16):
    key_id = zone.generate_key("data-encryption", budget=budget, rng_seed=7)
    result = zone.split_and_distribute(key_id, CTX, q_order=order, rng_seed=8)
    return key_id, result


# --- key generation -----------------------------------------------------------

def test_distinct_key_ids(zone):
    a = zone.generate_key("data-encryption", rng_seed=1)
    b = zone.generate_key("data-encryption", rng_seed=1)
    assert a != b  # same seed, distinct ids (internal op counter)
    assert len(a) == 16


def test_generation_deterministic_for_fresh_zone(tsa, clock):
    z1 = SecureZone(zone_seed=5, tsa=TimestampAuthority(issuer="t", clock=clock))
    z2 = SecureZone(zone_seed=5, tsa=TimestampAuthority(issuer="t", clock=clock))
    assert z1.generate_key("data-encryption", rng_seed=3) == z2.generate_key(
        "data-encryption", rng_seed=3
    )


def test_exported_state_contains_no_raw_key_bytes(zone):
    # what leaves the zone: a key's public dict and the two sealed shares
    key_id, result = _distributed(zone)
    key = zone._keys[key_id]
    exported = json.dumps([key.to_public_dict(), result.edge_share.to_json_dict(),
                           result.cloud_share.to_json_dict()])
    assert key.material.hex() not in exported
    assert key_id.hex() in exported


def test_stored_key_repr_hides_its_material(zone):
    key = zone._keys[zone.generate_key("data-encryption", rng_seed=1)]
    shown = repr(key)
    assert repr(key.key_id) in shown
    assert key.material.hex() not in shown
    assert repr(key.material) not in shown
    assert "nonces" not in shown


def test_a_key_keeps_its_cipher_inside_itself(zone, tsa, tmp_path):
    """A key builds its cipher on its first seal and keeps it, but writes it
    nowhere: not to ``repr``, the public dict, the state's units or the rows
    of ``zone.db``; a key loaded from ``zone.db`` opens what it sealed
    before it was written."""
    _, result = _distributed(zone)
    share_key = zone._keys[zone._share_key_id]
    cipher = share_key.cipher
    assert cipher is share_key.cipher  # built once, on the split's first seal
    shown = repr(share_key)
    assert "cipher" not in shown and "AESGCM" not in shown
    assert cipher not in share_key.to_public_dict().values()
    units = zone.state_dict()["keys"]
    assert set(units[zone._share_key_id.hex()]) == {
        *share_key.to_public_dict(), "material", "nonce_counter"}
    json.dumps(zone.state_dict())  # a cipher in any unit would not serialize

    StateDir(tmp_path / "state").save_zone(zone, tsa)
    rows = stored_rows(tmp_path / "state")
    assert not any(b"AESGCM" in body or b"object at" in body for body, _ in rows.values())
    assert {unit_id.hex(): set(json.loads(body)) for (kind, unit_id), (body, _) in rows.items()
            if kind == "k"} == {key_id: set(unit) for key_id, unit in units.items()}

    loaded, loaded_tsa = StateDir(tmp_path / "state").load_zone()
    reloaded_key = loaded._keys[loaded._share_key_id]
    assert reloaded_key.cipher is not cipher
    assert loaded.authorize_transaction(CTX, result.cloud_share, loaded_tsa.issue()).accepted


def test_a_warm_authorize_builds_no_cipher_and_one_generator(zone, tsa, monkeypatch):
    """Counted by wrapping the constructors the modules look up: the zone's
    KEK and share key each build their cipher once, on the first split,
    and an authorize or a later split builds none; an authorize draws one
    numpy Generator, for the rebuild of its quasigroup."""
    built = Counter()

    def counting(name, constructor):
        def construct(*args, **kwargs):
            built[name] += 1
            return constructor(*args, **kwargs)
        return construct

    monkeypatch.setattr(edgevault.crypto, "AESGCM",
                        counting("cipher", edgevault.crypto.AESGCM))
    monkeypatch.setattr(np.random, "default_rng", counting("generator", np.random.default_rng))

    _, result = _distributed(zone, order=256)
    assert built == Counter(cipher=2, generator=2)  # the KEK, the share key; rebuild and mask
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    built.clear()
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    assert built == Counter(generator=1)

    built.clear()
    key_id = zone.generate_key("data-encryption", rng_seed=9)
    zone.split_and_distribute(key_id, bytes(32), q_order=256, rng_seed=9)
    assert built == Counter(generator=2)


def test_unknown_purpose_rejected(zone):
    with pytest.raises(WrongPurposeError):
        zone.generate_key("signing", rng_seed=0)


# --- wrapping -------------------------------------------------------------------

def test_wrap_unwrap_roundtrip(zone):
    kek = zone.generate_key("key-encryption", rng_seed=1)
    target = zone.generate_key("data-encryption", rng_seed=2)
    record = zone.wrap_key(kek, target)
    assert zone.verify_wrapped(kek, target, record)


def test_wrap_with_wrong_purpose_rejected(zone):
    not_kek = zone.generate_key("data-encryption", rng_seed=1)
    target = zone.generate_key("data-encryption", rng_seed=2)
    with pytest.raises(WrongPurposeError):
        zone.wrap_key(not_kek, target)


def test_wrap_unknown_key(zone):
    kek = zone.generate_key("key-encryption", rng_seed=1)
    with pytest.raises(UnknownKeyError):
        zone.wrap_key(kek, bytes(16))


def test_tampered_wrap_record_fails(zone):
    kek = zone.generate_key("key-encryption", rng_seed=1)
    target = zone.generate_key("data-encryption", rng_seed=2)
    record = zone.wrap_key(kek, target)
    bad = AeadRecord(record.nonce, record.ciphertext, bytes([record.tag[0] ^ 1]) + record.tag[1:])
    assert not zone.verify_wrapped(kek, target, bad)


def test_verify_wrapped_with_an_unknown_kek_is_unknown_key(zone):
    # a fault, not a wrap record that fails to restore the key
    kek = zone.generate_key("key-encryption", rng_seed=1)
    target = zone.generate_key("data-encryption", rng_seed=2)
    record = zone.wrap_key(kek, target)
    with pytest.raises(UnknownKeyError):
        zone.verify_wrapped(bytes(16), target, record)


# --- split and distribute ----------------------------------------------------------

def test_split_roles_edge_1_cloud_2(zone):
    _, result = _distributed(zone)
    assert result.edge_share.index == 1
    assert result.cloud_share.index == 2


def test_split_moves_state_to_distributed(zone):
    key_id, _ = _distributed(zone)
    assert zone._keys[key_id].state == "distributed"


def test_double_split_rejected(zone):
    key_id, _ = _distributed(zone)
    with pytest.raises(AlreadySplitError):
        zone.split_and_distribute(key_id, bytes(32), rng_seed=9)


def test_context_reuse_rejected(zone):
    _distributed(zone)
    other = zone.generate_key("data-encryption", rng_seed=11)
    with pytest.raises(AlreadySplitError):
        zone.split_and_distribute(other, CTX, rng_seed=12)


def test_honest_transaction_roundtrip(zone, tsa):
    _, result = _distributed(zone)
    decision = zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert decision.accepted and decision.reason is None


def test_cloud_share_alone_reveals_nothing_per_digit(zone):
    # hiding: for any fixed cloud digit b, table[a, b] over all a covers
    # every value (column permutation), so the key digit stays undetermined
    from edgevault.quasigroup import generate_quasigroup

    q = generate_quasigroup(16, 123)
    for b in range(16):
        outcomes = sorted(q.multiply(a, b) for a in range(16))
        assert outcomes == list(range(16))


# --- authorization ------------------------------------------------------------------

def test_replay_rejected(zone, tsa):
    _, result = _distributed(zone)
    ts = tsa.issue()
    assert zone.authorize_transaction(CTX, result.cloud_share, ts).accepted
    decision = zone.authorize_transaction(CTX, result.cloud_share, ts)
    assert not decision.accepted
    assert decision.reason == "replay"


def test_stale_timestamp_rejected(zone, tsa):
    _, result = _distributed(zone)
    old = tsa.issue()
    newer = tsa.issue()
    assert zone.authorize_transaction(CTX, result.cloud_share, newer).accepted
    decision = zone.authorize_transaction(CTX, result.cloud_share, old)
    assert decision.reason == "replay"


def test_sequence_zero_rejected_for_a_context_with_no_accepted_timestamp(zone, tsa):
    """The TSA never issues sequence 0, so it is not fresh even where nothing
    was accepted yet."""
    _, result = _distributed(zone)
    tsa.issue()
    never_issued = Timestamp(epoch_seconds=0, issuer=tsa.issuer, sequence=0)
    decision = zone.authorize_transaction(CTX, result.cloud_share, never_issued)
    assert decision.reason == "replay"
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted


def test_forged_share_rejected(zone, tsa, rng):
    _, result = _distributed(zone)
    forged = SealedShare(
        index=2,
        record=AeadRecord(rng.bytes(12), rng.bytes(len(result.cloud_share.record.ciphertext)),
                          rng.bytes(16)),
        binding_tag=rng.bytes(32),
    )
    decision = zone.authorize_transaction(CTX, forged, tsa.issue())
    assert not decision.accepted
    assert decision.reason in ("decrypt-failure", "tag-mismatch")


def test_malformed_rebuild_is_an_algebra_failure(zone, tsa, monkeypatch):
    # the rebuild's permutation check is the only algebra gate at combine
    # time, so a sigma that repeats an entry must reject, not reconstruct
    key_id, result = _distributed(zone)

    def broken_rebuild(order, seed):
        good = generate_quasigroup(order, seed)
        sigma = good.sigma.copy()
        sigma[1] = sigma[0]
        return IsotopeQuasigroup(sigma, good.pi, good.rho)

    monkeypatch.setattr(edgevault.shares, "generate_quasigroup", broken_rebuild)
    record = zone._contexts[CTX].record
    edge_share = zone._contexts[CTX].edge_share
    share_key = zone._keys[zone._share_key_id].cipher
    with pytest.raises(AlgebraFailureError):
        combine_and_verify(edge_share, result.cloud_share, record, share_key)

    decision = zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert decision == Decision(accepted=False, reason="algebra-failure")
    assert zone._keys[key_id].uses == 0


def test_wrong_table_at_a_non_power_of_two_order_is_a_checksum_mismatch(zone, tsa):
    # a record whose seed no longer matches rebuilds another table; at order
    # 251 its digits can encode more than the secret's bytes, which must
    # reject like any other wrong secret
    key_id, result = _distributed(zone, order=251)
    zone._contexts[CTX].record.qg_seed += 1
    decision = zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert decision == Decision(accepted=False, reason="checksum-mismatch")
    assert zone._keys[key_id].uses == 0


def test_wrong_table_setting_padding_bits_is_a_checksum_mismatch(zone, tsa):
    # 69 digits of 7 bits at order 128 carry 3 padding bits over the 60-byte
    # wrap record; another table's digits can set them, and that rejects
    # like any other wrong secret
    key_id, result = _distributed(zone, order=128)
    zone._contexts[CTX].record.qg_seed += 1
    decision = zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert decision == Decision(accepted=False, reason="checksum-mismatch")
    assert zone._keys[key_id].uses == 0


def test_edited_edge_tag_in_the_split_record_is_a_tag_mismatch(zone, tsa):
    # the edge share's transported tag still matches the share, so only the
    # comparison against the record's first expected tag can catch this
    key_id, result = _distributed(zone)
    record = zone._contexts[CTX].record
    edge_tag, cloud_tag = record.expected_tags
    record.expected_tags = (bytes([edge_tag[0] ^ 1]) + edge_tag[1:], cloud_tag)
    decision = zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert decision == Decision(accepted=False, reason="tag-mismatch")
    assert zone._keys[key_id].uses == 0


def test_edge_share_presented_as_the_cloud_share_is_a_tag_mismatch(zone, tsa):
    # the index check and the binding tag both reject it: the tag's preimage
    # starts with the share's index byte
    key_id, result = _distributed(zone)
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    key, context = zone._keys[key_id], zone._contexts[CTX]
    last_seen = context.last_seen
    decision = zone.authorize_transaction(CTX, result.edge_share, tsa.issue())
    assert decision == Decision(accepted=False, reason="tag-mismatch")
    assert key.uses == 1
    assert context.last_seen == last_seen


def test_replaced_key_material_is_a_checksum_mismatch(zone, tsa):
    # the shares still combine to the wrap record made at split time; only
    # the deep check, which unwraps it and compares, sees the stored key changed
    key_id, result = _distributed(zone)
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    key, context = zone._keys[key_id], zone._contexts[CTX]
    last_seen = context.last_seen
    key.material = bytes(range(32))
    decision = zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert decision == Decision(accepted=False, reason="checksum-mismatch")
    assert key.uses == 1
    assert context.last_seen == last_seen


def test_unknown_context_raises(zone, tsa):
    with pytest.raises(UnknownKeyError):
        zone.authorize_transaction(bytes(32), SealedShare(
            index=2, record=AeadRecord(bytes(12), b"", bytes(16)), binding_tag=bytes(32)
        ), tsa.issue())


def test_a_retired_key_no_longer_authorizes(zone, tsa):
    key_id, result = _distributed(zone)
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    zone.retire_key(key_id)
    key, context = zone._keys[key_id], zone._contexts[CTX]
    last_seen = context.last_seen
    with pytest.raises(KeyStateError) as info:
        zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert info.value.code == "key-state"
    assert key.uses == 1
    assert context.last_seen == last_seen is not None
    last = zone.state_dict()["audit"][-1]
    assert (last["op"], last["outcome"], last["reason"]) == (
        "authorize_transaction", "error", "key-retired")
    assert last["key_id"] == key_id.hex() and last["context_id_hex"] == CTX.hex()


def test_the_zone_s_own_keys_cannot_be_retired_or_split(zone, tsa):
    own = (zone._kek_id, zone._share_key_id, zone._point_key_id)
    state = zone.state_dict()
    for key_id in own:
        with pytest.raises(KeyStateError) as info:
            zone.retire_key(key_id)
        assert info.value.code == "key-state"
        with pytest.raises(KeyStateError) as info:
            zone.split_and_distribute(key_id, CTX, q_order=16, rng_seed=8)
        assert info.value.code == "key-state"
    assert zone.state_dict() == state
    _, result = _distributed(zone)
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted


@pytest.mark.parametrize("context,order,error", [
    (bytes(5), 16, UnknownKeyError),
    (bytes(33), 16, UnknownKeyError),
    (CTX, 1, InvalidOrderError),
    (CTX, 70000, InvalidOrderError),
], ids=["5-byte-context", "33-byte-context", "order-1", "order-70000"])
def test_a_bad_split_is_refused_before_the_key_is_wrapped(zone, context, order, error):
    """No KEK nonce is spent and no audit entry is written for a split
    that does not happen; the key can still be split."""
    key_id = zone.generate_key("data-encryption", rng_seed=7)
    state = zone.state_dict()
    with pytest.raises(error):
        zone.split_and_distribute(key_id, context, q_order=order, rng_seed=8)
    assert zone.state_dict() == state
    zone.split_and_distribute(key_id, CTX, q_order=16, rng_seed=8)


def test_budget_exhaustion(zone, tsa):
    _, result = _distributed(zone, budget=3)
    for _ in range(3):
        assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    decision = zone.authorize_transaction(CTX, result.cloud_share, tsa.issue())
    assert decision.reason == "budget-exhausted"


def test_fuzzed_forgeries_never_accepted(zone, tsa, rng):
    _, result = _distributed(zone)
    genuine = result.cloud_share
    for _ in range(500):
        forged = SealedShare(
            index=2,
            record=AeadRecord(
                rng.bytes(12),
                rng.bytes(int(rng.integers(1, len(genuine.record.ciphertext) + 20))),
                rng.bytes(16),
            ),
            binding_tag=rng.bytes(32),
        )
        assert not zone.authorize_transaction(CTX, forged, tsa.issue()).accepted


# --- audit log -----------------------------------------------------------------------

def test_audit_log_counts_mutations(zone, tsa):
    base = len(zone.state_dict()["audit"])  # zone init creates 3 infrastructure keys
    key_id = zone.generate_key("data-encryption", rng_seed=1)
    result = zone.split_and_distribute(key_id, CTX, rng_seed=2)  # logs wrap + split
    zone.authorize_transaction(CTX, result.edge_share, tsa.issue())
    log = zone.state_dict()["audit"]
    assert len(log) == base + 4
    assert [e["sequence"] for e in log] == list(range(len(log)))
    assert all({"sequence", "op", "outcome"} <= set(e) for e in log)


def test_audit_logs_rejections(zone, tsa, rng):
    _, result = _distributed(zone)
    forged = SealedShare(
        index=2, record=AeadRecord(rng.bytes(12), rng.bytes(8), rng.bytes(16)),
        binding_tag=rng.bytes(32),
    )
    zone.authorize_transaction(CTX, forged, tsa.issue())
    last = zone.state_dict()["audit"][-1]
    assert last["op"] == "authorize_transaction"
    assert last["outcome"] == "rejected"
    assert last["reason"] in ("decrypt-failure", "tag-mismatch")


# --- state machine / persistence -------------------------------------------------------

def test_state_transitions_only_forward(zone):
    key_id = zone.generate_key("data-encryption", rng_seed=1)
    zone.retire_key(key_id)
    assert zone._keys[key_id].state == "retired"
    with pytest.raises(AlreadySplitError):
        zone.split_and_distribute(key_id, bytes(32), rng_seed=1)


def test_zone_state_roundtrip(zone, tsa):
    _, result = _distributed(zone)
    assert zone.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    restored = SecureZone.from_state_dict(zone.state_dict(), tsa)
    assert restored.state_dict() == zone.state_dict()
    # replay of the consumed timestamp still rejected after reload
    consumed = zone._contexts[CTX].last_seen
    old_ts_seq = consumed.sequence
    decision = restored.authorize_transaction(CTX, result.cloud_share, consumed)
    assert decision.reason == "replay"
    # a fresh transaction succeeds
    assert restored.authorize_transaction(CTX, result.cloud_share, tsa.issue()).accepted
    assert restored._contexts[CTX].last_seen.sequence > old_ts_seq


def test_a_stored_zone_seed_is_ignored(zone, tsa):
    """Older states carry the zone seed; it is read by nothing, so it loads
    and is not written back."""
    state = zone.state_dict()
    assert "zone_seed" not in state
    restored = SecureZone.from_state_dict({**state, "zone_seed": "not even a number"}, tsa)
    assert restored.state_dict() == state


def test_an_audit_that_is_not_a_list_is_corrupted(zone, tsa):
    with pytest.raises(StateError):
        SecureZone.from_state_dict({**zone.state_dict(), "audit": {}}, tsa)


@pytest.mark.parametrize("section,other_id", [("keys", "ab" * 16), ("contexts", "ab" * 32)],
                         ids=["key", "context"])
def test_changes_that_store_a_unit_under_another_id_are_corrupted(zone, tsa, section, other_id):
    """A unit a commit stored under an id it does not name is refused when
    used, not kept as an alias."""
    _distributed(zone)
    state = zone.state_dict()
    state[section][other_id] = next(reversed(state[section].values()))
    loaded = SecureZone.lazy_from_state_dict(state, tsa)
    units = loaded._keys if section == "keys" else loaded._contexts
    with pytest.raises(StateError):
        units[bytes.fromhex(other_id)]
    assert loaded._contexts[CTX].record.context_id == CTX


def test_zone_hosts_ledger(zone, tsa):
    ledger = IdentityLedger(group_id="g", curve=tiny_curve())
    zone.attach_ledger(ledger)
    entry = zone.register_device("dev-1", rng_seed=4)
    assert ledger.verify_chain().valid
    last = zone.state_dict()["audit"][-1]
    assert last["op"] == "register_device"
    assert entry.h2.hex() == last["context_id_hex"]


def test_register_without_ledger_raises(zone):
    with pytest.raises(KeyStateError):
        zone.register_device("dev", rng_seed=0)
