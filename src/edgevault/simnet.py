"""Deterministic single-process simulation of the two-level hierarchy.

One edge node (secure zone + identity ledger) talks to
one cloud node (ledger replica + cloud-held key shares) over an in-process
channel.  A scripted adversary can tamper with shares in flight, forge
shares, replay transactions, or flip bits in the cloud's ledger replica.
Each attack builds its input and returns a summary and its detection
outcome; one path logs every attack as an ``attack-<kind>`` event and checks
the step's expectation.

The cloud keeps its replica by delta sync.  It knows the group and curve
from the start and holds only what it has verified (entry count, tip h2 and
one buffer of the received entry lines).  At each registration it asks the
edge for the lines after its tip (every line, the first time, from the empty
replica), then parses them and re-chains them from that tip.  Each entry is
thus verified once on each side, and onboarding N devices costs O(N) ledger
work.  The replica bytes (header, then that buffer) are built only when
read, and run end still verifies the full chain at both nodes and compares
the replica with a fresh full snapshot.

Each registration's ``ledger-sync`` event commits to the replica with
``replica_lines_sha256``: a running SHA-256 of the entry lines, fed each
delta once as it is accepted, so a registration hashes only its delta and
onboarding N devices hashes O(N) bytes.  The snapshot header is left out:
group and curve are fixed for the run, and the event logs the entry count.
A log whose header line carries ``"log_version": 2`` is in this form; a
log with no version is version 1, whose ``replica_sha256`` covers header
and lines.

Time is a logical tick counter and all randomness derives from the scenario
seed, so replaying a scenario yields a byte-identical event log.  The log
header echoes a hash of the scenario config as a code-integrity stand-in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .crypto import U64_LIMIT, AeadRecord, TimestampAuthority, Timestamp, derive_seed, sha256
from .curves import WeierstrassCurve, standard_curve
from .errors import ClassificationError, ScenarioConfigError, StateError, parses
from .ledger import ChainReport, IdentityLedger, parse_entry_lines, snapshot_header, verify_entries
from .securezone import SecureZone
from .shares import SealedShare

__all__ = [
    "SimStep",
    "SimScenario",
    "SimEvent",
    "Verdict",
    "RunResult",
    "run_scenario",
    "events_to_jsonl",
    "edge_data_split",
    "DataSplit",
    "builtin_scenarios",
]

@dataclass
class SimStep:
    action: str  # register | transact | attack
    device: Optional[str] = None
    kind: Optional[str] = None  # attack kind
    expect: Optional[str] = None
    entry: Optional[int] = None  # tamper-ledger-bit target entry
    bit: Optional[int] = None  # tamper-ledger-bit target bit

    def to_json_dict(self) -> dict:
        d = {"action": self.action}
        for key in ("device", "kind", "expect", "entry", "bit"):
            v = getattr(self, key)
            if v is not None:
                d[key] = v
        return d

    @classmethod
    @parses(ScenarioConfigError, "malformed scenario step")
    def from_json_dict(cls, d: dict) -> "SimStep":
        known = {k: d[k] for k in ("action", "device", "kind", "expect", "entry", "bit") if k in d}
        for key, value in known.items():
            if key in ("entry", "bit"):
                if type(value) is not int or value < 0:
                    raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
            elif not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
        return cls(**known)


@dataclass
class SimScenario:
    name: str
    seed: int
    device_count: int
    script: list[SimStep]
    order: int = 256
    curve: Optional[WeierstrassCurve] = None

    def to_json_dict(self) -> dict:
        d = {
            "name": self.name,
            "seed": self.seed,
            "device_count": self.device_count,
            "order": self.order,
            "script": [s.to_json_dict() for s in self.script],
        }
        if self.curve is not None:
            d["curve"] = self.curve.to_json_dict()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @classmethod
    @parses(ScenarioConfigError, "malformed scenario")
    def from_json_dict(cls, d: dict) -> "SimScenario":
        scenario = cls(
            name=str(d["name"]),
            seed=int(d["seed"]),
            device_count=int(d["device_count"]),
            order=int(d.get("order", 256)),
            curve=WeierstrassCurve.from_json_dict(d["curve"]) if "curve" in d else None,
            script=[SimStep.from_json_dict(s) for s in d["script"]],
        )
        if not 0 <= scenario.seed < U64_LIMIT:
            raise ValueError(f"seed must lie in [0, 2^64), got {scenario.seed}")
        return scenario

    @classmethod
    @parses(ScenarioConfigError, "malformed scenario")
    def from_json(cls, text: str | bytes) -> "SimScenario":
        return cls.from_json_dict(json.loads(text))

    def config_digest(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hex()


@dataclass
class SimEvent:
    tick: int
    actor: str  # edge | cloud | adversary | tsa
    kind: str
    summary: dict
    outcome: str

    def to_json_dict(self) -> dict:
        return {
            "tick": self.tick,
            "actor": self.actor,
            "kind": self.kind,
            "summary": self.summary,
            "outcome": self.outcome,
        }


@dataclass
class Verdict:
    passed: bool
    diffs: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


class RunResult(NamedTuple):
    events: list[SimEvent]
    verdict: Verdict


class DataSplit(NamedTuple):
    timely: list
    historical: list


def edge_data_split(records: list[dict], policy: dict) -> DataSplit:
    """Partition records into edge-resident (timely) and cloud-bound
    (historical) disjoint segments: the paper's split of data between the
    edge and the main cloud, kept as library API with no CLI command.

    ``policy`` is either ``{"max_age": t}`` (records need an ``age`` tag;
    older than t goes to the cloud) or ``{"by": "category"}`` (records carry
    ``category`` of ``timely`` or ``historical``).  Untagged records raise.
    """
    timely: list = []
    historical: list = []
    if "max_age" in policy:
        limit = float(policy["max_age"])
        for rec in records:
            if "age" not in rec:
                raise ClassificationError(f"record lacks an 'age' tag: {rec!r}")
            (timely if float(rec["age"]) <= limit else historical).append(rec)
    elif policy.get("by") == "category":
        for rec in records:
            cat = rec.get("category")
            if cat == "timely":
                timely.append(rec)
            elif cat == "historical":
                historical.append(rec)
            else:
                raise ClassificationError(f"record lacks a valid 'category' tag: {rec!r}")
    else:
        raise ClassificationError(f"policy must set 'max_age' or 'by': {policy!r}")
    return DataSplit(timely=timely, historical=historical)


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

class _Cloud:
    """The cloud node: its ledger replica plus its half of every key.

    The replica is held as the verified state only: group and curve, entry
    count, tip h2, one buffer of the entry lines received so far and a
    running SHA-256 of that buffer.
    """

    def __init__(self, group_id: str, curve: WeierstrassCurve):
        self.group_id = group_id
        self.curve = curve
        self.count = 0
        self.tip: Optional[bytes] = None
        self.lines = bytearray()
        self.lines_digest = hashlib.sha256()
        self.shares: dict[bytes, SealedShare] = {}

    @property
    def replica(self) -> Optional[bytes]:
        """The replica's snapshot bytes, header then lines; None while it holds no entry."""
        if self.tip is None:
            return None
        return snapshot_header(self.group_id, self.curve, self.count) + self.lines

    def sync(self, edge: IdentityLedger) -> ChainReport:
        """Bring the replica up to the edge ledger: the lines after the
        verified tip, every line the first time."""
        return self.apply_delta(edge.sync_delta(self.count, self.tip))

    def apply_delta(self, delta: bytes) -> ChainReport:
        """Verify the entry lines after the tip and append them if they chain.

        A malformed line or an index other than the next one raises
        ``StateError``; a line that fails to chain is reported by its
        absolute index and nothing is appended.
        """
        if delta and not delta.endswith(b"\n"):
            raise StateError("a delta must be whole newline-terminated lines")
        entries = parse_entry_lines(delta, start=self.count)
        report = verify_entries(entries, self.tip, self.count)
        if report.valid and entries:
            self.lines += delta
            self.lines_digest.update(delta)
            self.count += len(entries)
            self.tip = entries[-1].h2
        return report


class _LogicalClock:
    """The run's tick counter.  The TSA reads it through this object rather
    than through the runner, so a finished run holds no reference cycle and
    is freed as soon as it is dropped."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


class _Runner:
    """Walks a scenario's script once, one tick per step, dispatching each
    step through ``_ACTIONS``; ``do_attack`` is the one place that logs and
    checks an attack, whatever its kind in ``_ATTACKS``."""

    def __init__(self, scenario: SimScenario):
        if scenario.device_count < 0:
            raise ScenarioConfigError("device_count must be >= 0")
        for step in scenario.script:
            if step.action not in _ACTIONS:
                raise ScenarioConfigError(f"unknown action {step.action!r}")
            if step.action == "attack" and step.kind not in _ATTACKS:
                raise ScenarioConfigError(f"unknown attack kind {step.kind!r}")
        self.scenario = scenario
        self.clock = _LogicalClock()
        self.events: list[SimEvent] = []
        self.diffs: list[str] = []

        seed = scenario.seed
        self.tsa = TimestampAuthority(issuer="sim-tsa", clock=self.clock)
        self.zone = SecureZone(derive_seed(seed, b"zone"), self.tsa)
        curve = scenario.curve if scenario.curve is not None else standard_curve()
        self.zone.attach_ledger(IdentityLedger(group_id=scenario.name, curve=curve))
        self.cloud = _Cloud(scenario.name, curve)
        self.adversary_rng = np.random.default_rng(derive_seed(seed, b"adversary"))
        self.contexts: dict[str, bytes] = {}  # device label -> h2
        self.last_transaction: Optional[tuple[bytes, SealedShare, Timestamp]] = None

    def _emit(self, actor: str, kind: str, summary: dict, outcome: str):
        self.events.append(SimEvent(self.clock.now, actor, kind, summary, outcome))

    def _expect(self, step: SimStep, actual: str):
        if step.expect is not None and step.expect != actual:
            self.diffs.append(
                f"step {step.to_json_dict()}: expected {step.expect!r}, got {actual!r}"
            )

    # --- actions ---------------------------------------------------------

    def do_register(self, step: SimStep):
        label = step.device or f"device-{len(self.contexts)}"
        seed = self.scenario.seed
        entry = self.zone.register_device(label, rng_seed=derive_seed(seed, b"reg:" + label.encode()))
        self.contexts[label] = entry.h2
        key_id = self.zone.generate_key(
            "data-encryption", rng_seed=derive_seed(seed, b"key:" + label.encode())
        )
        dist = self.zone.split_and_distribute(
            key_id, entry.h2, self.scenario.order,
            rng_seed=derive_seed(seed, b"split:" + label.encode()),
        )
        # channel: cloud share + the ledger lines the replica lacks travel to the cloud
        self.cloud.shares[entry.h2] = dist.cloud_share
        replica_ok = self.cloud.sync(self.zone.ledger)
        self._emit(
            "edge", "register",
            {"device": label, "device_id": entry.h2.hex(), "key_id": key_id.hex()},
            "registered",
        )
        self._emit(
            "cloud", "ledger-sync",
            {"entries": len(self.zone.ledger),
             "replica_lines_sha256": self.cloud.lines_digest.hexdigest()},
            "replica-verified" if replica_ok.valid else f"replica-invalid:{replica_ok.first_bad_index}",
        )
        self._expect(step, "registered")

    def _context_for(self, step: SimStep) -> bytes:
        label = step.device
        if label is None:
            if not self.contexts:
                raise ScenarioConfigError(f"step {step.to_json_dict()} needs a registered device")
            label = next(iter(self.contexts))
        if label not in self.contexts:
            raise ScenarioConfigError(f"device {label!r} is not registered")
        return self.contexts[label]

    def _authorize(self, context: bytes, share: SealedShare, ts: Timestamp) -> str:
        decision = self.zone.authorize_transaction(context, share, ts)
        return "accepted" if decision.accepted else f"rejected:{decision.reason}"

    def do_transact(self, step: SimStep):
        context = self._context_for(step)
        share = self.cloud.shares[context]
        ts = self.tsa.issue()
        outcome = self._authorize(context, share, ts)
        if outcome == "accepted":
            self.last_transaction = (context, share, ts)
        self._emit(
            "edge", "transaction",
            {"device": step.device, "context": context.hex(), "ts_sequence": ts.sequence},
            outcome,
        )
        self._expect(step, outcome)

    def do_attack(self, step: SimStep):
        summary, outcome = _ATTACKS[step.kind](self, step)
        self._emit("adversary", f"attack-{step.kind}", summary, outcome)
        self._expect(step, outcome)

    # --- attacks: each builds its input and returns (summary, outcome) -----

    def _attack_replay(self, step: SimStep) -> tuple[dict, str]:
        if self.last_transaction is None:
            raise ScenarioConfigError("replay attack needs a prior accepted transaction")
        context, share, ts = self.last_transaction
        outcome = self._authorize(context, share, ts)
        return {"context": context.hex(), "replayed_sequence": ts.sequence}, outcome

    def _attack_forge(self, step: SimStep) -> tuple[dict, str]:
        context = self._context_for(step)
        rng = self.adversary_rng
        genuine = self.cloud.shares[context]
        forged = SealedShare(
            index=2,
            record=AeadRecord(
                nonce=rng.bytes(12),
                ciphertext=rng.bytes(len(genuine.record.ciphertext)),
                tag=rng.bytes(16),
            ),
            binding_tag=rng.bytes(32),
        )
        outcome = self._authorize(context, forged, self.tsa.issue())
        return {"context": context.hex(), "forged_tag": forged.binding_tag.hex()[:16]}, outcome

    def _attack_tamper_share(self, step: SimStep) -> tuple[dict, str]:
        context = self._context_for(step)
        genuine = self.cloud.shares[context]
        bit = int(self.adversary_rng.integers(0, len(genuine.record.ciphertext) * 8))
        tampered = replace(genuine, record=_flip(genuine.record, bit))
        outcome = self._authorize(context, tampered, self.tsa.issue())
        return {"context": context.hex(), "flipped_bit": bit}, outcome

    def _attack_tamper_ledger(self, step: SimStep) -> tuple[dict, str]:
        snapshot = self.cloud.replica
        if snapshot is None:
            raise ScenarioConfigError("tamper-ledger-bit needs a synced replica")
        replica = IdentityLedger.import_snapshot(snapshot)
        idx = step.entry if step.entry is not None else int(
            self.adversary_rng.integers(0, len(replica.entries))
        )
        if not 0 <= idx < len(replica.entries):
            raise ScenarioConfigError(f"tamper-ledger-bit entry {idx} out of range")
        entry = replica.entries[idx]
        bit = step.bit if step.bit is not None else int(
            self.adversary_rng.integers(0, len(entry.ciphertext_record.ciphertext) * 8)
        )
        replica.entries[idx] = replace(entry, ciphertext_record=_flip(entry.ciphertext_record, bit))
        report = replica.verify_chain()
        outcome = f"detected:{report.first_bad_index}" if not report.valid else "undetected"
        return {"entry": idx, "bit": bit}, outcome

    # --- main loop ---------------------------------------------------------

    def run(self) -> RunResult:
        for step in self.scenario.script:
            self.clock.now += 1
            _ACTIONS[step.action](self, step)

        # closing health checks at both nodes
        self.clock.now += 1
        edge_report = self.zone.ledger.verify_chain()
        self._emit(
            "edge", "final-verify", {"entries": len(self.zone.ledger)},
            "chain-valid" if edge_report.valid else f"chain-invalid:{edge_report.first_bad_index}",
        )
        replica = self.cloud.replica
        if replica is not None:
            cloud_report = IdentityLedger.import_snapshot(replica).verify_chain()
            replica_matches = replica == self.zone.ledger.sync_to_cloud()
            self._emit(
                "cloud", "final-verify",
                {"replica_matches_edge": replica_matches},
                "chain-valid" if cloud_report.valid else f"chain-invalid:{cloud_report.first_bad_index}",
            )
            if not replica_matches:
                self.diffs.append("cloud replica diverged from edge ledger")
            if not cloud_report.valid:
                self.diffs.append("cloud replica chain invalid at run end")
        if not edge_report.valid:
            self.diffs.append("edge chain invalid at run end")

        for event in self.events:
            if event.actor == "adversary" and event.outcome == "accepted":
                self.diffs.append(f"attack succeeded: {event.kind} at tick {event.tick}")

        return RunResult(events=self.events, verdict=Verdict(passed=not self.diffs, diffs=self.diffs))


# The one list of step actions and the one list of attack kinds; an attack
# step logs as ``attack-<kind>``.
_ACTIONS = {"register": _Runner.do_register, "transact": _Runner.do_transact,
            "attack": _Runner.do_attack}
_ATTACKS = {"replay": _Runner._attack_replay, "forge-share": _Runner._attack_forge,
            "tamper-share": _Runner._attack_tamper_share,
            "tamper-ledger-bit": _Runner._attack_tamper_ledger}


def _flip(record: AeadRecord, bit: int) -> AeadRecord:
    """``record`` with bit ``bit % 8`` of ciphertext byte ``(bit // 8) % len`` flipped."""
    ct = bytearray(record.ciphertext)
    ct[(bit // 8) % len(ct)] ^= 1 << (bit % 8)
    return replace(record, ciphertext=bytes(ct))


def run_scenario(scenario: SimScenario) -> RunResult:
    """Execute a scenario; see the module docstring for the node model."""
    return _Runner(scenario).run()


def events_to_jsonl(scenario: SimScenario, events: list[SimEvent]) -> bytes:
    """Serialize a run deterministically: header line + one line per event."""
    header = {
        "log_version": 2,  # the module docstring says what version 2 changed
        "scenario": scenario.name,
        "seed": scenario.seed,
        "config_sha256": scenario.config_digest(),
    }
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines += [
        json.dumps(e.to_json_dict(), sort_keys=True, separators=(",", ":")) for e in events
    ]
    return ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def builtin_scenarios() -> dict[str, SimScenario]:
    """The shipped scenario suite; every attack must be detected."""
    happy_script = [SimStep(action="register", device=f"device-{i}", expect="registered")
                    for i in range(5)]
    happy_script += [
        SimStep(action="transact", device=f"device-{i % 5}", expect="accepted")
        for i in range(10)
    ]

    attack_script = [SimStep(action="register", device=f"device-{i}", expect="registered")
                     for i in range(3)]
    attack_script += [
        SimStep(action="transact", device="device-0", expect="accepted"),
        SimStep(action="attack", kind="replay", device="device-0", expect="rejected:replay"),
        SimStep(action="attack", kind="forge-share", device="device-1",
                expect="rejected:decrypt-failure"),
        SimStep(action="attack", kind="tamper-share", device="device-2",
                expect="rejected:decrypt-failure"),
        SimStep(action="attack", kind="tamper-ledger-bit", entry=1, expect="detected:1"),
        SimStep(action="transact", device="device-1", expect="accepted"),
    ]

    replay_script = [SimStep(action="register", device=f"device-{i}", expect="registered")
                     for i in range(2)]
    replay_script += [SimStep(action="transact", device="device-0", expect="accepted")]
    replay_script += [
        SimStep(action="attack", kind="replay", device="device-0", expect="rejected:replay")
        for _ in range(5)
    ]

    return {
        "happy-path": SimScenario(
            name="happy-path", seed=1001, device_count=5, script=happy_script
        ),
        "attack-suite": SimScenario(
            name="attack-suite", seed=2002, device_count=3, script=attack_script
        ),
        "replay-storm": SimScenario(
            name="replay-storm", seed=3003, device_count=2, script=replay_script
        ),
    }
