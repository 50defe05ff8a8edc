"""Golden hashes of the frozen layouts.

Shares, split records, sealed shares, generated quasigroup tables and
simulator event logs are frozen byte layouts (see the ``crypto`` module docstring).  These digests were
taken from the implementation and must not change: a refactor of the share
algebra, the digit encoding or the simulator that moves any of them breaks
compatibility with state written by earlier versions.  The event-log
digests were re-taken once, for log version 2, a versioned format change.
"""

import hashlib
import json

import pytest

from edgevault.crypto import NonceSequence, aead_cipher, sha256
from edgevault.quasigroup import generate_quasigroup
from edgevault.shares import seal_share, split
from edgevault.simnet import SimScenario, SimStep, builtin_scenarios, events_to_jsonl, run_scenario

SECRET = bytes(range(1, 33))
CTX = sha256(b"edgevault.golden")
KEY = aead_cipher(bytes(range(32)))


def _hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# order 256, a power of two, and order 251 go through the same base
# conversion
SPLITS = {
    (256, 7, 11): {
        "share1": "f4597e9b0c999f2b89a7dbfa33bd9c5f910f3cd80704a7a1c42767f89ea989a8",
        "share2": "86cb8fb88a6626c86247c6930c45a3c7c722e0a794c951546f899b7ab0ebf611",
        "record": "6b7c36780a490a3b509ea7d7cb4923896d333fbee1bbbee1dbb53d6e419e1f55",
        "sealed": "bcce5bfa9d5e01d4cd0445ba7d0c0ec292aa76626a648502a07afdaa8af064f7",
    },
    (251, 9, 13): {
        "share1": "5ed7aa9b7db24c35c105ae022a158363efdadc29950a796297d0e9323a837067",
        "share2": "3ec092f1867f24b3cf0920a433e51bfee7425af3ec518bd05d0e82f505f50b36",
        "record": "38d0018d18f119bddeae7b685e47e7d810d03acddb369ffa6ead2f725d1183a9",
        "sealed": "19cf6e5aa1f5d40aef257526a03cf7a68eaadf810417453dd80c00edb4038a19",
    },
}

# canonical table bytes: they are the frozen `qg generate` output, and a drift
# means an (order, seed) split record no longer rebuilds its quasigroup
TABLES = {
    (2, 5): "50a2f7d2501bf1e5af02ab47d7d7b9c0e8cbf02e0ed7766c29b54097595691db",
    (3, 1): "e66ab2e0c82490f4c69362fa1e1f481946ef0e51cf8141c8afd3a29b18def4b5",
    (251, 9): "89c4ab29bea2d023434e6e8698ff6f20ffe31dc5fcab3a2dea9f33da9bd11c32",
    (256, 7): "67e0455b85d5f264390431db111a19f6809016ace20d7c005eb41de25d2d968f",
}

# event logs in version 2: the header line names the version and each
# ledger-sync event carries replica_lines_sha256
EVENT_LOGS = {
    "happy-path": "4ddda6a9b8d8faa985206f66a43df3fb127acefcaa0b2dd3efe7a63658271a2a",
    "attack-suite": "adfb242fe0b110f22fd73379cf0b97ec4a46f0d1b8fbc2403bdb9a22a62f8052",
    "replay-storm": "a3201b52e3b426eddfc6f268d8990da90e53ba8fb3b500b175c37ca458d9e501",
}


# 60 devices, each registered then transacting; every 10th device also sees a
# replay and a tampered share, and one ledger bit is flipped halfway.  Each
# registration syncs the cloud replica, so this pins the ledger-sync events
# (entry count and replica_lines_sha256, the running SHA-256 of the replica's
# entry lines) across a long run.
ONBOARDING_LOG = "74ea6e940268f891ab87240b8ed02bf79e9e19966af83cc5f38560a19be67c63"


def _onboarding_scenario():
    script = []
    for i in range(60):
        device = f"device-{i}"
        script.append(SimStep(action="register", device=device, expect="registered"))
        script.append(SimStep(action="transact", device=device, expect="accepted"))
        if (i + 1) % 10 == 0:
            script.append(SimStep(action="attack", kind="replay", device=device,
                                  expect="rejected:replay"))
            script.append(SimStep(action="attack", kind="tamper-share", device=device,
                                  expect="rejected:decrypt-failure"))
        if i == 29:
            script.append(SimStep(action="attack", kind="tamper-ledger-bit", entry=17,
                                  expect="detected:17"))
    return SimScenario(name="onboarding-60", seed=6060, device_count=60, script=script)


@pytest.mark.parametrize("order,qg_seed,mask_seed", sorted(SPLITS))
def test_split_layouts_are_frozen(order, qg_seed, mask_seed):
    s1, s2, record = split(SECRET, order, qg_seed, CTX, rng_seed=mask_seed)
    nonces = NonceSequence(99)
    sealed = seal_share(s1, KEY, CTX, nonces).to_json() + seal_share(s2, KEY, CTX, nonces).to_json()
    got = {
        "share1": _hex(s1.to_bytes()),
        "share2": _hex(s2.to_bytes()),
        "record": _hex(json.dumps(record.to_state_dict(), sort_keys=True).encode()),
        "sealed": _hex(sealed.encode()),
    }
    assert got == SPLITS[(order, qg_seed, mask_seed)]


@pytest.mark.parametrize("order,seed", sorted(TABLES))
def test_table_bytes_are_frozen(order, seed):
    assert _hex(generate_quasigroup(order, seed).to_bytes()) == TABLES[(order, seed)]


def test_every_builtin_scenario_is_pinned():
    assert set(builtin_scenarios()) == set(EVENT_LOGS)


@pytest.mark.parametrize("name", sorted(EVENT_LOGS))
def test_event_logs_are_frozen(name):
    scenario = builtin_scenarios()[name]
    log = events_to_jsonl(scenario, run_scenario(scenario).events)
    assert _hex(log) == EVENT_LOGS[name]


def test_onboarding_event_log_is_frozen():
    scenario = _onboarding_scenario()
    result = run_scenario(scenario)
    assert result.verdict.passed, result.verdict.diffs
    assert _hex(events_to_jsonl(scenario, result.events)) == ONBOARDING_LOG
