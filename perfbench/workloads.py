"""The benchmark's workloads.

One client drives each workload in a closed loop: the zone is a single
writer and every caller waits for its decision, so the next op is sent only
after the previous one returned.  Inputs derive from the workload seed
alone, and the library-built zones use a logical TSA clock.  The CLI loads
its own TSA, which reads wall time; no decision depends on it.

A workload provides:

* ``setup(seed, clock)``: build the zone, state dir or scenario, then warm
  caches; the state keeps ``clock`` (see speed.py), which times the ops and
  is ticked between them;
* ``warm(state)``: put the caches back into their post-setup state;
* ``prepare_round(state)``: untimed work before a round;
* ``run_round(state, index, tally)``: one round of ops, each checked
  against its expected outcome;
* ``teardown(state)``: remove what setup wrote to disk.

Every op carries its expected outcome: ``accepted`` or ``rejected:<reason>``.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

from edgevault import cli, simnet
from edgevault.crypto import AeadRecord, TimestampAuthority
from edgevault.curves import standard_curve
from edgevault.ledger import IdentityLedger
from edgevault.securezone import SecureZone
from edgevault.shares import SealedShare

ORDER = 256
#: the number of quasigroups shares.py keeps cached
QG_CACHE = 64

HONEST = "honest"
ATTACKS = ("replay", "forge", "tamper", "other-context")


def _seed_int(*parts) -> int:
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(b"edgevault-bench/" + text).digest()[:7], "big")


def _op_kind(index: int) -> str:
    """Every tenth op is an attack, cycling through the four kinds."""
    if index % 10 != 9:
        return HONEST
    return ATTACKS[(index // 10) % len(ATTACKS)]


def _forged_share(rng: random.Random, genuine: SealedShare) -> SealedShare:
    return SealedShare(
        index=2,
        record=AeadRecord(
            nonce=rng.randbytes(12),
            ciphertext=rng.randbytes(len(genuine.record.ciphertext)),
            tag=rng.randbytes(16),
        ),
        binding_tag=rng.randbytes(32),
    )


def _tampered_share(rng: random.Random, genuine: SealedShare) -> tuple[SealedShare, str]:
    """Flip one bit anywhere in the transported share; return it and the
    reason the zone must give."""
    rec = genuine.record
    raw = bytearray(rec.nonce + rec.ciphertext + rec.tag + genuine.binding_tag)
    bit = rng.randrange(len(raw) * 8)
    raw[bit // 8] ^= 1 << (bit % 8)
    n_ct = len(rec.ciphertext)
    tampered = SealedShare(
        index=genuine.index,
        record=AeadRecord(bytes(raw[:12]), bytes(raw[12:12 + n_ct]), bytes(raw[12 + n_ct:28 + n_ct])),
        binding_tag=bytes(raw[28 + n_ct:]),
    )
    in_binding_tag = bit // 8 >= 28 + n_ct
    return tampered, "rejected:tag-mismatch" if in_binding_tag else "rejected:decrypt-failure"


class Tally:
    """Latencies, in ns of the workload's clock, and outcome checks of one
    measured phase."""

    def __init__(self, head_ops: int):
        self.latencies_ns: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.false_accepts = 0
        self.mismatches: list[str] = []
        self.checks_failed: list[str] = []
        self.tracer = None
        self._head_ops = head_ops
        self._head = hashlib.sha256()
        self._all = hashlib.sha256()

    def add(self, latency_ns: float):
        """One op with no per-op outcome (simulator steps)."""
        self.latencies_ns.append(latency_ns)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted

    def record(self, latency_ns: float, subject: bytes, expected: str, actual: str):
        """One op on ``subject`` (its context id) and its checked outcome."""
        line = subject + actual.encode() + b"\n"
        if self.attempted < self._head_ops:
            self._head.update(line)
        self._all.update(line)
        if actual != expected:
            self.fail(f"op {self.attempted}: expected {expected}, got {actual}",
                      false_accept=actual == "accepted")
        self.add(latency_ns)

    def fail(self, message: str, false_accept: bool = False):
        self.failed += 1
        self.false_accepts += int(false_accept)
        if len(self.mismatches) < 5:
            self.mismatches.append(message)

    def note_log(self, digest: str):
        """A simulator event-log digest; every round must repeat it."""
        if self.attempted <= self._head_ops:
            self._head.update(digest.encode())
        self._all.update(digest.encode())

    @property
    def head_digest(self) -> str:
        """Digest of the first round's decisions, comparable across runs."""
        return self._head.hexdigest()

    @property
    def all_digest(self) -> str:
        return self._all.hexdigest()


# ---------------------------------------------------------------------------
# authorize-wide
# ---------------------------------------------------------------------------

@dataclass
class _AuthorizeState:
    clock: object
    zone: SecureZone
    tsa: TimestampAuthority
    contexts: list[bytes]
    cloud: list[SealedShare]
    ops: list[tuple]  # (context, share or None for replay, expected)
    warm_order: list[int]
    last_accepted: tuple = ()


@dataclass
class Authorize:
    """``SecureZone.authorize_transaction`` over N contexts, uniform access.

    Every tenth op is an attack: a replay of the last accepted timestamp, a
    forged random share, a one-bit-tampered share, or another context's
    share.  Ops run from a seeded cyclic stream; round ``i`` takes the next
    ``round_ops`` of it.
    """

    name: str
    contexts: int
    round_ops: int
    min_rounds: int
    trace_rounds: int
    stream_ops: int

    def setup(self, seed: int, clock) -> _AuthorizeState:
        rng = random.Random(_seed_int(self.name, seed))
        tsa = TimestampAuthority(issuer="bench-tsa", clock=itertools.count(1).__next__)
        zone = SecureZone(_seed_int(self.name, seed, "zone"), tsa)
        contexts, cloud = [], []
        for i in range(self.contexts):
            clock.tick()
            context = hashlib.sha256(f"context/{self.name}/{seed}/{i}".encode()).digest()
            key_id = zone.generate_key("data-encryption", rng_seed=rng.getrandbits(63))
            result = zone.split_and_distribute(key_id, context, ORDER, rng_seed=rng.getrandbits(63))
            contexts.append(context)
            cloud.append(result.cloud_share)

        ops = []
        for index in range(self.stream_ops):
            kind = _op_kind(index)
            target = rng.randrange(self.contexts)
            genuine = cloud[target]
            if kind == HONEST:
                ops.append((contexts[target], genuine, "accepted"))
            elif kind == "replay":
                ops.append((None, None, "rejected:replay"))
            elif kind == "forge":
                ops.append((contexts[target], _forged_share(rng, genuine), "rejected:decrypt-failure"))
            elif kind == "tamper":
                ops.append((contexts[target], *_tampered_share(rng, genuine)))
            else:
                other = (target + 1 + rng.randrange(self.contexts - 1)) % self.contexts
                ops.append((contexts[target], cloud[other], "rejected:decrypt-failure"))

        warm_order = rng.sample(range(self.contexts), min(QG_CACHE, self.contexts))
        state = _AuthorizeState(clock, zone, tsa, contexts, cloud, ops, warm_order)
        self.warm(state)
        return state

    def warm(self, state: _AuthorizeState):
        """Authorize once on each warm-up context, so the quasigroup cache
        holds exactly those, in that order."""
        for index in state.warm_order:
            state.clock.tick()
            context, share, ts = state.contexts[index], state.cloud[index], state.tsa.issue()
            decision = state.zone.authorize_transaction(context, share, ts)
            if not decision.accepted:
                raise RuntimeError(f"warm-up transaction rejected: {decision.reason}")
            state.last_accepted = (context, share, ts)

    def prepare_round(self, state):
        pass

    def run_round(self, state: _AuthorizeState, index: int, tally: Tally):
        zone, ops, issue = state.zone, state.ops, state.tsa.issue
        clock, tick = state.clock.now_ns, state.clock.tick
        first = index * self.round_ops
        for position in range(first, first + self.round_ops):
            tick()
            context, share, expected = ops[position % len(ops)]
            if share is None:
                context, share, ts = state.last_accepted
            else:
                ts = issue()
            start = clock()
            try:
                decision = zone.authorize_transaction(context, share, ts)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                latency = clock() - start
                actual = f"error:{type(exc).__name__}"
            else:
                latency = clock() - start
                if decision.accepted:
                    actual = "accepted"
                    state.last_accepted = (context, share, ts)
                else:
                    actual = f"rejected:{decision.reason}"
            tally.record(latency, context, expected, actual)

    def teardown(self, state):
        pass


# ---------------------------------------------------------------------------
# sim-onboard
# ---------------------------------------------------------------------------

class _TimedScript(list):
    """A scenario script that timestamps each step as the runner takes it.

    ``run_scenario`` walks the script once, in order, to execute it; the gap
    between handing out step i and step i+1 is step i's latency.  Other
    walks (validation, the config digest) are recorded too; the execution
    walk is the one that takes longest.  The clock is ticked before each
    step is handed out.
    """

    def __init__(self, steps, clock):
        super().__init__(steps)
        self.clock = clock
        self.walks: list[list[float]] = []
        self.tally = None

    def __iter__(self):
        marks: list[float] = []
        self.walks.append(marks)
        clock, tick = self.clock.now_ns, self.clock.tick
        for index, step in enumerate(list.__iter__(self)):
            if self.tally is not None and self.tally.tracer is not None:
                self.tally.tracer.op_id = index
            tick()
            marks.append(clock())
            yield step
        marks.append(clock())


def onboarding_script(devices: int, attack_every: int) -> list[simnet.SimStep]:
    """Each device registers then transacts; every ``attack_every`` devices
    the adversary replays the last transaction and tampers with a share."""
    Step = simnet.SimStep
    script = []
    for i in range(devices):
        device = f"device-{i}"
        script.append(Step(action="register", device=device, expect="registered"))
        script.append(Step(action="transact", device=device, expect="accepted"))
        if (i + 1) % attack_every == 0:
            script.append(Step(action="attack", kind="replay", device=device,
                               expect="rejected:replay"))
            script.append(Step(action="attack", kind="tamper-share", device=device,
                               expect="rejected:decrypt-failure"))
    return script


@dataclass
class _SimState:
    scenario: simnet.SimScenario
    logs: list[str] = field(default_factory=list)


@dataclass
class SimOnboard:
    """One ``simnet.run_scenario`` per round; an op is one scenario step."""

    name: str
    devices: int
    attack_every: int
    warm_devices: int
    min_rounds: int
    trace_rounds: int = 1

    @property
    def round_ops(self) -> int:
        return len(onboarding_script(self.devices, self.attack_every))

    def _scenario(self, seed: int, devices: int, clock) -> simnet.SimScenario:
        script = _TimedScript(onboarding_script(devices, self.attack_every), clock)
        return simnet.SimScenario(name=self.name, seed=seed, device_count=devices, script=script)

    def setup(self, seed: int, clock) -> _SimState:
        # a small scenario first finishes lazy set-up (RNGs, ciphers, encoders)
        warm = self._scenario(_seed_int(self.name, seed, "warm"), self.warm_devices, clock)
        if not simnet.run_scenario(warm).verdict.passed:
            raise RuntimeError("warm-up scenario failed")
        return _SimState(self._scenario(_seed_int(self.name, seed), self.devices, clock))

    def warm(self, state):
        pass

    def prepare_round(self, state):
        pass

    def run_round(self, state: _SimState, index: int, tally: Tally):
        script = state.scenario.script
        script.walks.clear()
        script.tally = tally
        start = script.clock.now_ns()
        result = simnet.run_scenario(state.scenario)
        wall = script.clock.now_ns() - start
        script.tally = None
        walks = [w for w in script.walks if len(w) == len(script) + 1]
        walk = max(walks, key=lambda w: w[-1] - w[0], default=None)
        if walk is None or walk[-1] - walk[0] < wall // 2:
            raise RuntimeError("run_scenario no longer walks scenario.script step by step; "
                               "per-step latency cannot be measured")
        for begin, end in zip(walk, walk[1:]):
            tally.add(end - begin)
        for diff in result.verdict.diffs:
            if diff.startswith("step "):
                tally.fail(diff, false_accept=diff.endswith("got 'accepted'"))
            else:
                tally.checks_failed.append(diff)
        log = hashlib.sha256(simnet.events_to_jsonl(state.scenario, result.events)).hexdigest()
        if state.logs and log != state.logs[0]:
            tally.checks_failed.append(f"event log {log} differs from round 0 ({state.logs[0]})")
        state.logs.append(log)
        tally.note_log(log)

    def teardown(self, state):
        pass


# ---------------------------------------------------------------------------
# cli-authorize
# ---------------------------------------------------------------------------

@dataclass
class _CliState:
    clock: object
    workdir: Path
    template: Path
    state_dir: Path
    runner: CliRunner
    ops: list[tuple[list[str], str, str]]  # (argv, context hex, expected)
    warm_ops: list[list[str]]


@dataclass
class CliAuthorize:
    """In-process ``edgevault keys authorize`` against a state dir of N
    registered, split devices, built through the library and
    ``AppState.save_zone``.  Each round restores the state dir and runs the
    same ``round_ops`` ops, so the audit list in the zone state grows exactly
    as much in every round."""

    name: str
    devices: int
    round_ops: int
    warm_invocations: int
    min_rounds: int
    out_dir: Path
    trace_rounds: int = 1

    def setup(self, seed: int, clock) -> _CliState:
        rng = random.Random(_seed_int(self.name, seed))
        tsa = TimestampAuthority(issuer="edgevault-tsa", clock=itertools.count(1).__next__)
        zone = SecureZone(_seed_int(self.name, seed, "zone"), tsa)
        zone.attach_ledger(IdentityLedger(group_id=f"bench-{seed}", curve=standard_curve()))
        workdir = Path(self.out_dir) / f"cli-{seed}"
        if workdir.exists():
            shutil.rmtree(workdir)
        shares_dir = workdir / "shares"
        shares_dir.mkdir(parents=True)

        contexts, cloud, share_paths = [], [], []
        for i in range(self.devices):
            clock.tick()
            entry = zone.register_device(f"device-{i}", rng_seed=rng.getrandbits(63))
            key_id = zone.generate_key("data-encryption", rng_seed=rng.getrandbits(63))
            share = zone.split_and_distribute(key_id, entry.h2, ORDER,
                                              rng_seed=rng.getrandbits(63)).cloud_share
            # one accepted transaction per context, so every context has a
            # last-seen timestamp for the replay ops to collide with
            if not zone.authorize_transaction(entry.h2, share, tsa.issue()).accepted:
                raise RuntimeError("set-up transaction rejected")
            path = shares_dir / f"device-{i}.json"
            path.write_text(share.to_json())
            contexts.append(entry.h2.hex())
            cloud.append(share)
            share_paths.append(path)
        template = workdir / "template"
        cli.AppState(template, "json").save_zone(zone, tsa)
        replay_ts = workdir / "replay-timestamp.json"
        replay_ts.write_text(json.dumps({"epoch_seconds": 1, "issuer": tsa.issuer, "sequence": 1}))

        state_dir = workdir / "state"
        ops = []
        for index in range(self.round_ops):
            kind = _op_kind(index)
            target = rng.randrange(self.devices)
            argv = ["--state-dir", str(state_dir), "keys", "authorize",
                    "--context", contexts[target], "--share"]
            if kind == HONEST:
                ops.append((argv + [str(share_paths[target])], contexts[target], "accepted"))
            elif kind == "replay":
                ops.append((argv + [str(share_paths[target]), "--timestamp", str(replay_ts)],
                            contexts[target], "rejected:replay"))
            elif kind == "other-context":
                other = (target + 1 + rng.randrange(self.devices - 1)) % self.devices
                ops.append((argv + [str(share_paths[other])], contexts[target],
                            "rejected:decrypt-failure"))
            else:
                if kind == "forge":
                    share, expected = _forged_share(rng, cloud[target]), "rejected:decrypt-failure"
                else:
                    share, expected = _tampered_share(rng, cloud[target])
                path = shares_dir / f"attack-{index}.json"
                path.write_text(share.to_json())
                ops.append((argv + [str(path)], contexts[target], expected))

        warm_ops = [argv for argv, _, expected in ops if expected == "accepted"]
        state = _CliState(clock, workdir, template, state_dir, CliRunner(), ops,
                          warm_ops[:self.warm_invocations])
        self.warm(state)
        return state

    def warm(self, state: _CliState):
        """A few honest invocations finish click's lazy set-up."""
        self.prepare_round(state)
        for argv in state.warm_ops:
            state.clock.tick()
            result = state.runner.invoke(cli.main, argv)
            if result.exit_code != cli.EXIT_OK:
                raise RuntimeError(f"warm-up invocation failed: {result.output}")

    def prepare_round(self, state: _CliState):
        if state.state_dir.exists():
            shutil.rmtree(state.state_dir)
        shutil.copytree(state.template, state.state_dir)

    def run_round(self, state: _CliState, index: int, tally: Tally):
        clock, tick = state.clock.now_ns, state.clock.tick
        invoke, tracer = state.runner.invoke, tally.tracer
        for argv, context, expected in state.ops:
            tick()
            start = clock()
            if tracer is None:
                result = invoke(cli.main, argv)
            else:
                result = tracer.call("cli.invoke", invoke, cli.main, argv)
            latency = clock() - start
            if result.exit_code == cli.EXIT_OK:
                actual = "accepted"
            elif result.exit_code == cli.EXIT_REJECTED and result.stdout.strip():
                actual = "rejected:" + json.loads(result.stdout.splitlines()[-1])["reason"]
            else:
                actual = f"error:exit{result.exit_code}"
            tally.record(latency, context.encode(), expected, actual)

    def teardown(self, state: _CliState):
        shutil.rmtree(state.workdir, ignore_errors=True)


def make_workloads(out_dir: Path, small: bool = False) -> dict:
    """Every workload at full size, or at the small size the smoke test uses.

    ``min_rounds`` gives each full-size workload at least 1000 latency
    samples, so ten or more lie beyond the p99.
    """
    if small:
        items = [
            Authorize("authorize-wide", contexts=96, round_ops=40, min_rounds=1,
                      trace_rounds=1, stream_ops=500),
            SimOnboard("sim-onboard", devices=8, attack_every=4, warm_devices=2, min_rounds=1),
            CliAuthorize("cli-authorize", devices=6, round_ops=20, warm_invocations=2,
                         min_rounds=1, out_dir=out_dir),
        ]
    else:
        items = [
            Authorize("authorize-wide", contexts=1024, round_ops=150, min_rounds=7,
                      trace_rounds=3, stream_ops=8192),
            SimOnboard("sim-onboard", devices=400, attack_every=50, warm_devices=20,
                       min_rounds=2),
            CliAuthorize("cli-authorize", devices=100, round_ops=200, warm_invocations=8,
                         min_rounds=5, out_dir=out_dir),
        ]
    return {w.name: w for w in items}
