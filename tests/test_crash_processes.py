"""Kill-and-race: concurrent console-script commands on one state dir, some
killed with SIGKILL part way, and the state checked against every output.

Each wave starts a few ``python -m edgevault.cli`` commands at once
(``ledger register``, ``keys generate``, ``keys split`` and ``keys
authorize``) and kills some of them at delays drawn from a seeded schedule,
so a failure replays with its seed, and some as soon as they print, so a
success shown before its commit cannot escape by timing.  Afterwards the dir must load, ``ledger
verify`` must exit 0, every command that printed success (or wrote its
output file) must be in the state, and no context's ``last_seen``, no key's
``uses`` and no share key's nonce counter may be behind what an output
already showed; no two cloud shares may carry one nonce.

A SIGKILL does not simulate a power loss: the killed process's writes stay
in the page cache, and only what SQLite itself wrote decides the state.
The state dir commits with ``synchronous=OFF``, so a power loss is outside
what this test, or the store, covers.
"""

import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from edgevault import statefile
from edgevault.cli import AppState, main
from edgevault.shares import SealedShare

WAVES, PER_WAVE, SETUP_DEVICES = 3, 6, 6


def _run(state, *args):
    r = CliRunner().invoke(main, ["--state-dir", str(state), *map(str, args)],
                           catch_exceptions=False)
    assert r.exit_code == 0, r.output
    return json.loads(r.output)


def _console(state, args) -> subprocess.Popen:
    src = str(Path(statefile.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-m", "edgevault.cli", "--state-dir", str(state),
                             *map(str, args)], env={**os.environ, "PYTHONPATH": path},
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)


class _Outputs:
    """What the commands showed: each its own kind of promise about the state."""

    def __init__(self):
        self.devices = {}  # label -> device id
        self.keys = set()
        self.shares = []  # (context, cloud share)
        self.accepted = {}  # context -> accepted authorizations
        self.last_seen = {}  # context -> highest accepted timestamp sequence


def _setup(state, tmp: Path, outputs: _Outputs):
    """A ledger of devices, each with a key split to it and one to split later."""
    _run(state, "ledger", "init", "--group", "g")
    spare = []
    for i in range(SETUP_DEVICES):
        device = _run(state, "ledger", "register", f"d{i}", "--seed", i)["device_id"]
        key = _run(state, "keys", "generate", "--seed", i)["key_id"]
        share = tmp / f"d{i}.json"
        _run(state, "keys", "split", key, "--context", device, "--order", 16, "--seed", i,
             "-o", share)
        outputs.devices[f"d{i}"] = device
        outputs.keys.add(key)
        outputs.shares.append((device, share))
        outputs.accepted[device] = 0
        spare.append(_run(state, "keys", "generate", "--seed", 100 + i)["key_id"])
        outputs.keys.add(spare[-1])
    return spare


def _plan(rng: random.Random, wave: int, spare: list, outputs: _Outputs, tmp: Path):
    """One wave's commands: (args, what its success shows)."""
    plan = []
    for i in range(PER_WAVE):
        kind = rng.choice(["register", "generate", "split", "authorize", "authorize"])
        if kind == "split" and spare:
            context = f"{wave:02x}{i:02x}" * 16
            share = tmp / f"split-{wave}-{i}.json"
            plan.append((["keys", "split", spare.pop(), "--context", context, "--order", 16,
                          "-o", share], ("split", context, share)))
        elif kind == "authorize":
            context, share = rng.choice(outputs.shares[:SETUP_DEVICES])
            saved = tmp / f"ts-{wave}-{i}.json"
            plan.append((["keys", "authorize", "--context", context, "--share", share,
                          "--save-timestamp", saved], ("authorize", context, saved)))
        elif kind == "register":
            plan.append((["ledger", "register", f"w{wave}-{i}"], ("register", f"w{wave}-{i}")))
        else:
            plan.append((["keys", "generate"], ("generate",)))
    return plan


def _record(outputs: _Outputs, promise, stdout: str):
    """Add what a command showed, by its output file or a success on stdout."""
    kind, *args = promise
    printed = json.loads(stdout.splitlines()[-1]) if stdout.strip() else {}
    if kind == "split" and args[1].exists():  # written only after the commit
        outputs.shares.append((args[0], args[1]))
    elif kind == "authorize" and args[1].exists():
        outputs.accepted[args[0]] += 1
        sequence = json.loads(args[1].read_text())["sequence"]
        outputs.last_seen[args[0]] = max(outputs.last_seen.get(args[0], 0), sequence)
    elif kind == "register" and "device_id" in printed:
        outputs.devices[args[0]] = printed["device_id"]
    elif kind == "generate" and "key_id" in printed:
        outputs.keys.add(printed["key_id"])


def _check(state, outputs: _Outputs):
    """The state holds everything the outputs showed, with no counter behind."""
    zone, tsa = AppState(state, "json").load_zone()
    entries = {e.device_label: e.h2.hex() for e in zone.ledger.entries}
    assert outputs.devices.items() <= entries.items()
    assert outputs.keys <= {key_id.hex() for key_id in zone._keys}
    for context, _ in outputs.shares:
        assert zone._keys[zone._contexts[bytes.fromhex(context)].key_id].state == "distributed"
    for context, accepted in outputs.accepted.items():
        assert zone._keys[zone._contexts[bytes.fromhex(context)].key_id].uses >= 1 + accepted
    for context, sequence in outputs.last_seen.items():
        assert zone._contexts[bytes.fromhex(context)].last_seen.sequence >= sequence
        assert tsa.sequence >= sequence
    nonces = [SealedShare.from_json(share.read_text()).record.nonce for _, share in outputs.shares]
    assert len(set(nonces)) == len(nonces)
    counter = zone._keys[zone._share_key_id].nonces.counter
    assert all(int.from_bytes(nonce[4:], "big") < counter for nonce in nonces)
    audit = zone.state_dict()["audit"]
    registered = [e["context_id_hex"] for e in audit if e["op"] == "register_device"]
    assert registered == [e.h2.hex() for e in zone.ledger.entries]


def _kill(proc) -> int:
    """SIGKILL a child still running; 1 if it was."""
    if proc.poll() is not None:
        return 0
    proc.send_signal(signal.SIGKILL)
    return 1


@pytest.mark.parametrize("seed", [1, 2])
def test_killed_and_racing_commands_leave_a_state_that_keeps_every_output(tmp_path, seed):
    state, rng, outputs = tmp_path / "state", random.Random(seed), _Outputs()
    spare = _setup(state, tmp_path, outputs)
    for context, _ in outputs.shares:  # each setup share authorized once, in process
        _run(state, "keys", "authorize", "--context", context, "--share",
             dict(outputs.shares)[context])
    started = time.monotonic()
    assert _console(state, ["ledger", "verify"]).wait() == 0
    command_s = time.monotonic() - started  # one cold command, import time and all
    killed = 0
    for wave in range(WAVES):
        plan = _plan(rng, wave, spare, outputs, tmp_path)
        # a third of the commands die at a drawn delay, a third as soon as they print
        fates = [rng.choice(["delay", "on-output", "none"]) for _ in plan]
        kills = sorted((rng.uniform(0.5, 2.5) * command_s, i) for i, fate in enumerate(fates)
                       if fate == "delay")
        start = time.monotonic()
        procs = [_console(state, args) for args, _ in plan]
        watched = {procs[i].stdout: i for i, fate in enumerate(fates) if fate == "on-output"}
        shown = {}
        while kills or watched:
            wait = max(0.0, start + kills[0][0] - time.monotonic()) if kills else None
            for pipe in select.select(list(watched), [], [], wait)[0]:
                i = watched.pop(pipe)
                shown[i] = pipe.readline()
                killed += _kill(procs[i])
            while kills and start + kills[0][0] <= time.monotonic():
                killed += _kill(procs[kills.pop(0)[1]])
        for i, (proc, (_, promise)) in enumerate(zip(procs, plan)):
            # a killed command's output counts
            _record(outputs, promise, shown.get(i, "") + proc.communicate()[0])
        _check(state, outputs)
    assert _console(state, ["ledger", "verify"]).wait() == 0
    _check(state, outputs)
    assert killed  # the schedule reached some command before it ended
