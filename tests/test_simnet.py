import hashlib
import json
from types import SimpleNamespace

import pytest

from edgevault import simnet
from edgevault.crypto import AeadRecord, TimestampAuthority, aead_cipher
from edgevault.curves import tiny_curve
from edgevault.errors import ClassificationError, ScenarioConfigError, StateError
from edgevault.ledger import ChainReport, IdentityLedger
from edgevault.securezone import Decision
from edgevault.simnet import (
    _Cloud,
    _Runner,
    _flip,
    SimScenario,
    SimStep,
    Verdict,
    builtin_scenarios,
    edge_data_split,
    events_to_jsonl,
    run_scenario,
)


def _scenario(script, seed=7, devices=3, name="t"):
    return SimScenario(name=name, seed=seed, device_count=devices, script=script,
                       curve=tiny_curve(), order=16)


# --- happy path -----------------------------------------------------------------

def test_happy_path_all_accepted():
    script = [SimStep("register", device=f"d{i}", expect="registered") for i in range(5)]
    script += [SimStep("transact", device=f"d{i % 5}", expect="accepted") for i in range(10)]
    events, verdict = run_scenario(_scenario(script, devices=5))
    assert verdict.passed, verdict.diffs
    outcomes = [e.outcome for e in events if e.kind == "transaction"]
    assert outcomes == ["accepted"] * 10
    finals = [e for e in events if e.kind == "final-verify"]
    assert {e.outcome for e in finals} == {"chain-valid"}
    assert {e.actor for e in finals} == {"edge", "cloud"}


def test_replica_byte_equality_after_sync():
    script = [SimStep("register", device="a"), SimStep("register", device="b")]
    events, verdict = run_scenario(_scenario(script))
    assert verdict.passed
    cloud_final = next(e for e in events if e.kind == "final-verify" and e.actor == "cloud")
    assert cloud_final.summary["replica_matches_edge"] is True


# --- cloud delta sync ----------------------------------------------------------------

def _edge():
    ledger = IdentityLedger(group_id="g", curve=tiny_curve())
    tsa = TimestampAuthority(issuer="t", clock=lambda: 9)
    point_key = aead_cipher(bytes(32))

    def register(i):
        return ledger.register_device(f"d{i}", tsa, point_key, rng_seed=i)

    return ledger, register


def test_cloud_replica_equals_full_snapshot_after_each_registration():
    edge, register = _edge()
    cloud = _Cloud("g", tiny_curve())
    for i in range(8):  # every point of the tiny curve
        register(i)
        assert cloud.sync(edge).valid
        assert cloud.count == i + 1
        assert cloud.replica == edge.sync_to_cloud()
        assert cloud.lines_digest.digest() == hashlib.sha256(cloud.lines).digest()


class _CountingSha256:
    """``hashlib.sha256`` that counts the bytes it is fed."""

    def __init__(self, data=b""):
        self._digest = hashlib.sha256()
        self.fed = 0
        self.update(data)

    def update(self, data):
        self.fed += len(data)
        self._digest.update(data)

    def digest(self):
        return self._digest.digest()

    def hexdigest(self):
        return self._digest.hexdigest()


def test_a_run_hashes_each_replica_line_once(monkeypatch):
    """Over 60 registrations the cloud feeds its digests each delta once, so
    the bytes hashed equal the replica's lines, not the sum of its sizes."""
    digests = []

    def sha256(data=b""):
        digests.append(_CountingSha256(data))
        return digests[-1]

    monkeypatch.setattr(simnet, "hashlib", SimpleNamespace(sha256=sha256))
    script = [SimStep("register", device=f"d{i}", expect="registered") for i in range(60)]
    runner = _Runner(SimScenario(name="t", seed=7, device_count=60, script=script, order=16))
    events, verdict = runner.run()
    assert verdict.passed, verdict.diffs
    cloud = runner.cloud
    assert cloud.count == 60
    assert sum(d.fed for d in digests) == len(cloud.lines)
    assert cloud.lines_digest.digest() == hashlib.sha256(cloud.lines).digest()
    syncs = [e for e in events if e.kind == "ledger-sync"]
    assert [e.summary["entries"] for e in syncs] == list(range(1, 61))
    assert syncs[-1].summary["replica_lines_sha256"] == hashlib.sha256(cloud.lines).hexdigest()
    assert all("replica_sha256" not in e.summary for e in syncs)


def _cloud_behind_edge(synced, total):
    edge, register = _edge()
    cloud = _Cloud("g", tiny_curve())
    for i in range(total):
        register(i)
        if i + 1 == synced:
            assert cloud.sync(edge).valid
    return edge, cloud


def test_cloud_reports_a_tampered_delta_at_its_absolute_index():
    edge, cloud = _cloud_behind_edge(2, 6)
    lines = edge.sync_delta(2, cloud.tip).splitlines(keepends=True)
    before, digest_before = cloud.replica, cloud.lines_digest.digest()
    for k in range(2, 6):
        row = json.loads(lines[k - 2])
        ct = bytearray.fromhex(row["ciphertext_hex"])
        ct[-1] ^= 0x10  # one bit
        row["ciphertext_hex"] = ct.hex()
        tampered = list(lines)
        tampered[k - 2] = (json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n").encode()
        report = cloud.apply_delta(b"".join(tampered))
        assert not report.valid
        assert report.first_bad_index == k
        assert cloud.replica == before  # nothing unverified is appended
        assert cloud.lines_digest.digest() == digest_before  # nor hashed


def test_cloud_rejects_an_index_gap():
    edge, cloud = _cloud_behind_edge(2, 5)
    lines = edge.sync_delta(2, cloud.tip).splitlines(keepends=True)
    for delta in (b"".join(lines[1:]), lines[0] + lines[2], lines[0] + lines[0]):
        with pytest.raises(StateError):
            cloud.apply_delta(delta)
    with pytest.raises(StateError):
        cloud.apply_delta(lines[0].rstrip(b"\n"))  # a line cut short
    assert cloud.apply_delta(b"".join(lines)).valid
    assert cloud.replica == edge.sync_to_cloud()


# --- attacks ---------------------------------------------------------------------

def test_forge_share_detected():
    script = [
        SimStep("register", device="a"),
        SimStep("attack", kind="forge-share", device="a", expect="rejected:decrypt-failure"),
    ]
    events, verdict = run_scenario(_scenario(script))
    assert verdict.passed, verdict.diffs
    attack = next(e for e in events if e.actor == "adversary")
    assert attack.outcome == "rejected:decrypt-failure"


def test_tamper_share_detected():
    script = [
        SimStep("register", device="a"),
        SimStep("attack", kind="tamper-share", device="a", expect="rejected:decrypt-failure"),
    ]
    _, verdict = run_scenario(_scenario(script))
    assert verdict.passed, verdict.diffs


def test_replay_detected():
    script = [
        SimStep("register", device="a"),
        SimStep("transact", device="a", expect="accepted"),
        SimStep("attack", kind="replay", expect="rejected:replay"),
    ]
    _, verdict = run_scenario(_scenario(script))
    assert verdict.passed, verdict.diffs


def test_ledger_tamper_reports_exact_index():
    script = [SimStep("register", device=f"d{i}") for i in range(3)]
    script += [SimStep("attack", kind="tamper-ledger-bit", entry=1, expect="detected:1")]
    events, verdict = run_scenario(_scenario(script))
    assert verdict.passed, verdict.diffs
    attack = next(e for e in events if e.actor == "adversary")
    assert attack.outcome == "detected:1"
    assert attack.summary["entry"] == 1


def test_a_ledger_bit_past_the_ciphertext_wraps_into_it():
    script = [SimStep("register", device=f"d{i}") for i in range(3)]
    script += [SimStep("attack", kind="tamper-ledger-bit", entry=2, bit=10_000,
                       expect="detected:2")]
    events, verdict = run_scenario(_scenario(script))
    assert verdict.passed, verdict.diffs
    attack = next(e for e in events if e.actor == "adversary")
    assert attack.summary == {"entry": 2, "bit": 10_000}
    record = AeadRecord(bytes(12), bytes(7), bytes(16))
    assert _flip(record, 10_003) == _flip(record, 10_003 % 56)
    assert _flip(record, 10_003).ciphertext == bytes([0, 0, 0, 0, 8, 0, 0])


def test_ledger_tamper_with_no_entry_picks_one_and_reports_it():
    script = [SimStep("register", device="d0"),
              SimStep("attack", kind="tamper-ledger-bit", expect="detected:0")]
    events, verdict = run_scenario(_scenario(script))
    assert verdict.passed, verdict.diffs
    attack = next(e for e in events if e.actor == "adversary")
    assert attack.summary["entry"] == 0


def test_a_step_with_no_device_acts_for_the_first_registered_one():
    script = [SimStep("register", device="d0"), SimStep("register", device="d1"),
              SimStep("transact", expect="accepted")]
    events, verdict = run_scenario(_scenario(script))
    assert verdict.passed, verdict.diffs
    transaction = next(e for e in events if e.kind == "transaction")
    assert transaction.summary["context"] == events[0].summary["device_id"]


def test_every_adversary_action_logs_detection():
    _, verdict = run_scenario(builtin_scenarios()["attack-suite"])
    assert verdict.passed
    events, _ = run_scenario(builtin_scenarios()["attack-suite"])
    for event in events:
        if event.actor == "adversary":
            assert event.outcome.startswith(("rejected:", "detected:"))


def test_expectation_mismatch_fails_verdict():
    script = [
        SimStep("register", device="a"),
        SimStep("transact", device="a", expect="rejected:replay"),  # wrong expectation
    ]
    _, verdict = run_scenario(_scenario(script))
    assert not verdict.passed
    assert any("expected" in d for d in verdict.diffs)


def test_a_verdict_is_true_exactly_when_it_passed():
    _, verdict = run_scenario(_scenario([SimStep("register", device="a")]))
    assert verdict and verdict.passed
    assert not Verdict(passed=False, diffs=["x"])


def _replica_chain_invalid(monkeypatch, runner):
    real = IdentityLedger.import_snapshot

    def import_snapshot(cls, data):
        ledger = real(data)
        ledger.verify_chain = lambda: ChainReport(valid=False, first_bad_index=0)
        return ledger

    monkeypatch.setattr(IdentityLedger, "import_snapshot", classmethod(import_snapshot))


def _edge_chain_invalid_at_run_end(monkeypatch, runner):
    """A sync verifies from its replica's tip; run end verifies the whole chain."""
    ledger = runner.zone.ledger
    real = ledger.verify_chain

    def verify_chain(**kwargs):
        return real(**kwargs) if kwargs else ChainReport(valid=False, first_bad_index=0)

    monkeypatch.setattr(ledger, "verify_chain", verify_chain)


_RUN_END_FAILURES = {
    "cloud replica diverged from edge ledger":
        lambda mp, runner: mp.setattr(runner.zone.ledger, "sync_to_cloud", lambda: b""),
    "cloud replica chain invalid at run end": _replica_chain_invalid,
    "edge chain invalid at run end": _edge_chain_invalid_at_run_end,
    "attack succeeded: attack-forge-share at tick 2":
        lambda mp, runner: mp.setattr(runner.zone, "authorize_transaction",
                                      lambda *args: Decision(accepted=True)),
}


@pytest.mark.parametrize("diff", list(_RUN_END_FAILURES),
                         ids=["replica-diverged", "replica-invalid", "edge-invalid", "attack"])
def test_each_run_end_failure_fails_the_verdict_with_its_diff(monkeypatch, diff):
    runner = _Runner(_scenario([SimStep("register", device="a"),
                                SimStep("attack", kind="forge-share", device="a")]))
    _RUN_END_FAILURES[diff](monkeypatch, runner)
    verdict = runner.run().verdict
    assert not verdict.passed
    assert verdict.diffs == [diff]


def test_replay_without_prior_transaction_is_config_error():
    script = [SimStep("register", device="a"),
              SimStep("attack", kind="replay")]
    with pytest.raises(ScenarioConfigError):
        run_scenario(_scenario(script))


def test_unknown_action_rejected():
    with pytest.raises(ScenarioConfigError):
        run_scenario(_scenario([SimStep("explode")]))


def test_unknown_attack_kind_rejected():
    with pytest.raises(ScenarioConfigError):
        run_scenario(_scenario([SimStep("attack", kind="quantum")]))


def test_zero_attacks_succeed_across_1000_seeded_runs():
    # detection completeness: the full attack repertoire, 1000 fresh seeds
    script = [
        SimStep("register", device="a"),
        SimStep("transact", device="a", expect="accepted"),
        SimStep("attack", kind="replay", expect="rejected:replay"),
        SimStep("attack", kind="forge-share", device="a"),
        SimStep("attack", kind="tamper-share", device="a"),
        SimStep("attack", kind="tamper-ledger-bit", entry=0),
    ]
    succeeded = 0
    for seed in range(1000):
        events, verdict = run_scenario(_scenario(script, seed=seed, devices=1))
        assert verdict.passed, (seed, verdict.diffs)
        for event in events:
            if event.actor == "adversary" and not event.outcome.startswith(
                ("rejected:", "detected:")
            ):
                succeeded += 1
    assert succeeded == 0


# --- determinism ------------------------------------------------------------------

def _replays_identically(scenario):
    """Whether two runs of the scenario log byte-identical events."""
    first = events_to_jsonl(scenario, run_scenario(scenario).events)
    return first == events_to_jsonl(scenario, run_scenario(scenario).events)


def test_replay_determinism_builtin_scenarios():
    for name, scenario in builtin_scenarios().items():
        assert _replays_identically(scenario), name


def test_different_seeds_differ():
    script = [SimStep("register", device="a"), SimStep("transact", device="a")]
    a = events_to_jsonl(_scenario(script, seed=1), run_scenario(_scenario(script, seed=1)).events)
    b = events_to_jsonl(_scenario(script, seed=2), run_scenario(_scenario(script, seed=2)).events)
    assert a != b


def test_empty_scenario_deterministic():
    scenario = _scenario([])
    assert _replays_identically(scenario)
    events, verdict = run_scenario(scenario)
    assert verdict.passed
    assert all(e.kind == "final-verify" for e in events)


def test_log_header_carries_config_hash():
    scenario = builtin_scenarios()["happy-path"]
    blob = events_to_jsonl(scenario, run_scenario(scenario).events)
    header = json.loads(blob.decode().splitlines()[0])
    assert header["log_version"] == 2
    assert header["config_sha256"] == scenario.config_digest()
    assert header["seed"] == scenario.seed


def test_ticks_non_decreasing():
    events, _ = run_scenario(builtin_scenarios()["attack-suite"])
    ticks = [e.tick for e in events]
    assert ticks == sorted(ticks)


# --- scenario (de)serialization -----------------------------------------------------

def test_scenario_json_roundtrip():
    scenario = builtin_scenarios()["attack-suite"]
    back = SimScenario.from_json(scenario.to_json())
    assert back.to_json_dict() == scenario.to_json_dict()
    assert back.config_digest() == scenario.config_digest()


def test_scenario_json_roundtrip_with_curve():
    scenario = _scenario([SimStep("register", device="a")])
    back = SimScenario.from_json(scenario.to_json())
    assert back.curve == scenario.curve
    assert back.order == 16
    assert _replays_identically(back)


def test_scenario_rejects_malformed_json():
    with pytest.raises(ScenarioConfigError):
        SimScenario.from_json("not json at all {")
    with pytest.raises(ScenarioConfigError):
        SimScenario.from_json(json.dumps({"name": "x"}))
    with pytest.raises(ScenarioConfigError):
        SimScenario.from_json(b"[" * 100_000)
    with pytest.raises(ScenarioConfigError):
        SimScenario.from_json(b'{"name": "x", "seed": 1e999, "device_count": 1, "script": []}')


# --- edge data split -------------------------------------------------------------------

def test_data_split_by_age():
    records = [{"id": i, "age": i * 10} for i in range(10)]
    timely, historical = edge_data_split(records, {"max_age": 45})
    assert [r["id"] for r in timely] == [0, 1, 2, 3, 4]
    assert [r["id"] for r in historical] == [5, 6, 7, 8, 9]


def test_data_split_all_young():
    records = [{"age": 1}, {"age": 2}]
    timely, historical = edge_data_split(records, {"max_age": 100})
    assert len(timely) == 2 and historical == []


def test_data_split_by_category():
    records = [{"category": "timely", "v": 1}, {"category": "historical", "v": 2}]
    timely, historical = edge_data_split(records, {"by": "category"})
    assert timely[0]["v"] == 1 and historical[0]["v"] == 2


def test_data_split_partition_property(rng):
    records = [{"id": i, "age": float(rng.integers(0, 1000))} for i in range(1000)]
    timely, historical = edge_data_split(records, {"max_age": 500})
    assert len(timely) + len(historical) == 1000
    ids = {r["id"] for r in timely} | {r["id"] for r in historical}
    assert ids == set(range(1000))
    assert not ({r["id"] for r in timely} & {r["id"] for r in historical})


def test_data_split_untagged_rejected():
    with pytest.raises(ClassificationError):
        edge_data_split([{"id": 1}], {"max_age": 10})
    with pytest.raises(ClassificationError):
        edge_data_split([{"category": "other"}], {"by": "category"})
    with pytest.raises(ClassificationError):
        edge_data_split([{"age": 1}], {})
