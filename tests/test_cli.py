import json
import os

import pytest
from click.testing import CliRunner

from edgevault.cli import EXIT_REJECTED, EXIT_TAMPER, AppState, main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, state_dir, *args):
    return runner.invoke(main, ["--state-dir", str(state_dir), *args],
                         catch_exceptions=False)


def _init_ledger(runner, state):
    r = invoke(runner, state, "ledger", "init", "--group", "g", "--preset", "tiny")
    assert r.exit_code == 0, r.output
    for i, label in enumerate(("alpha", "beta")):
        r = invoke(runner, state, "ledger", "register", label, "--seed", str(10 + i))
        assert r.exit_code == 0, r.output
    return json.loads((state / "ledger.json").read_text())


# --- qg ------------------------------------------------------------------------

def test_qg_generate_and_check(runner, tmp_path):
    table = tmp_path / "table.bin"
    r = invoke(runner, tmp_path / "s", "qg", "generate", "-n", "16", "--seed", "3",
               "-o", str(table))
    assert r.exit_code == 0
    r = invoke(runner, tmp_path / "s", "qg", "check", str(table))
    assert r.exit_code == 0
    payload = json.loads(r.output)
    assert payload["passed"] is True
    assert payload["checked_pairs"] == 256


def test_qg_check_from_params(runner, tmp_path):
    r = invoke(runner, tmp_path / "s", "qg", "check", "-n", "8", "--seed", "1")
    assert r.exit_code == 0


def test_qg_generate_deterministic(runner, tmp_path):
    outputs = []
    for _ in range(2):
        r = invoke(runner, tmp_path / "s", "qg", "generate", "-n", "8", "--seed", "5")
        outputs.append(json.loads(r.output)["table_hex"])
    assert outputs[0] == outputs[1]


# --- ledger -----------------------------------------------------------------------

def test_ledger_flow_verify_export_sync(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)

    r = invoke(runner, state, "ledger", "verify")
    assert r.exit_code == 0
    assert json.loads(r.output)["valid"] is True

    r = invoke(runner, state, "ledger", "export")
    lines = [json.loads(line) for line in r.output.splitlines() if line.strip()]
    assert len(lines) == 2
    assert lines[0]["h1_hex"] == lines[0]["h2_hex"]  # first-entry rule

    snap = tmp_path / "snapshot.jsonl"
    r = invoke(runner, state, "ledger", "sync", "-o", str(snap))
    assert r.exit_code == 0
    assert snap.exists()
    header = json.loads(snap.read_text().splitlines()[0])
    assert header["entry_count"] == 2


def test_ledger_verify_detects_hex_edit(runner, tmp_path):
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    ct = doc["entries"][1]["ciphertext_hex"]
    doc["entries"][1]["ciphertext_hex"] = ("0" if ct[0] != "0" else "1") + ct[1:]
    (state / "ledger.json").write_text(json.dumps(doc))

    r = invoke(runner, state, "ledger", "verify")
    assert r.exit_code == EXIT_TAMPER
    payload = json.loads(r.output)
    assert payload["valid"] is False
    assert payload["first_bad_index"] == 1

    # tamper blocks every ledger subcommand with the same exit code
    r = invoke(runner, state, "ledger", "sync", "-o", str(tmp_path / "x"))
    assert r.exit_code == EXIT_TAMPER
    r = invoke(runner, state, "ledger", "export")
    assert r.exit_code == EXIT_TAMPER
    r = invoke(runner, state, "ledger", "register", "late-device")
    assert r.exit_code == EXIT_TAMPER


def test_ledger_register_needs_init(runner, tmp_path):
    r = invoke(runner, tmp_path / "s", "ledger", "register", "dev")
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"


def test_ledger_reinit_refused(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    r = invoke(runner, state, "ledger", "init", "--group", "other")
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"


def test_bad_hex_context_is_usage_error(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    r = invoke(runner, state, "keys", "authorize", "--context", "zz-not-hex",
               "--share", str(state / "ledger.json"))
    assert r.exit_code == 64


# --- keys --------------------------------------------------------------------------

def test_keys_generate_split_authorize_and_replay(runner, tmp_path):
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    context = doc["entries"][0]["h2_hex"]

    r = invoke(runner, state, "keys", "generate", "--seed", "5")
    key_id = json.loads(r.output)["key_id"]

    share_file = tmp_path / "cloud.json"
    r = invoke(runner, state, "keys", "split", key_id, "--device", "alpha",
               "--order", "16", "--seed", "6", "-o", str(share_file))
    assert r.exit_code == 0, r.output

    ts_file = tmp_path / "ts.json"
    r = invoke(runner, state, "keys", "authorize", "--context", context,
               "--share", str(share_file), "--save-timestamp", str(ts_file))
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["accepted"] is True

    # replaying the exact same timestamp is rejected with exit 3
    r = invoke(runner, state, "keys", "authorize", "--context", context,
               "--share", str(share_file), "--timestamp", str(ts_file))
    assert r.exit_code == EXIT_REJECTED
    assert "replay" in r.output

    # fresh timestamps keep working
    r = invoke(runner, state, "keys", "authorize", "--context", context,
               "--share", str(share_file))
    assert r.exit_code == 0


def test_keys_authorize_rejects_tampered_share(runner, tmp_path):
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    context = doc["entries"][0]["h2_hex"]
    r = invoke(runner, state, "keys", "generate")
    key_id = json.loads(r.output)["key_id"]
    share_file = tmp_path / "cloud.json"
    invoke(runner, state, "keys", "split", key_id, "--device", "alpha",
           "-o", str(share_file))

    share = json.loads(share_file.read_text())
    ct = share["ciphertext"]
    share["ciphertext"] = ("0" if ct[0] != "0" else "1") + ct[1:]
    share_file.write_text(json.dumps(share))

    r = invoke(runner, state, "keys", "authorize", "--context", context,
               "--share", str(share_file))
    assert r.exit_code == EXIT_REJECTED
    assert "decrypt-failure" in r.output


@pytest.mark.parametrize("text", ['{"index": 1}', "not json {"])
def test_keys_authorize_malformed_share_file_is_state_error(runner, tmp_path, text):
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    share_file = tmp_path / "cloud.json"
    share_file.write_text(text)
    r = invoke(runner, state, "keys", "authorize", "--context", doc["entries"][0]["h2_hex"],
               "--share", str(share_file))
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"


@pytest.mark.parametrize(
    "target,content,code",
    [
        ("timestamp", b"{}", "corrupted-state"),
        ("timestamp", b"not json {", "corrupted-state"),
        ("tsa", b"\xff\xfe not utf-8", "corrupted-state"),
        ("tsa", b"[]", "corrupted-state"),
        ("curve", b"{}", "invalid-curve"),
    ],
    ids=["timestamp-empty-object", "timestamp-not-json", "tsa-not-utf8", "tsa-array",
         "curve-missing-fields"],
)
def test_malformed_json_input_gets_error_envelope(runner, tmp_path, target, content, code):
    state = tmp_path / "state"
    bad = tmp_path / "bad.json"
    if target == "curve":
        bad.write_bytes(content)
        r = invoke(runner, state, "ledger", "init", "--group", "g", "--curve-json", str(bad))
    else:
        doc = _init_ledger(runner, state)
        key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
        share_file = tmp_path / "cloud.json"
        r = invoke(runner, state, "keys", "split", key_id, "--device", "alpha",
                   "--order", "16", "-o", str(share_file))
        assert r.exit_code == 0, r.output
        args = ["keys", "authorize", "--context", doc["entries"][0]["h2_hex"],
                "--share", str(share_file)]
        if target == "timestamp":
            bad.write_bytes(content)
            args += ["--timestamp", str(bad)]
        else:
            (state / "tsa.json").write_bytes(content)
        r = invoke(runner, state, *args)
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == code


@pytest.mark.parametrize(
    "args",
    [("profile", "fit"), ("profile", "outliers"), ("filter", "build", "-o", "f.bin", "--ids-file")],
    ids=["profile-fit", "profile-outliers", "filter-build-ids-file"],
)
def test_non_utf8_text_input_gets_error_envelope(runner, tmp_path, args):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe not utf-8\n1.0\n")
    args = [str(tmp_path / a) if a == "f.bin" else a for a in args]
    r = invoke(runner, tmp_path / "state", *args, str(bad))
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"


def test_keys_split_requires_context_or_device(runner, tmp_path):
    r = invoke(runner, tmp_path / "s", "keys", "split", "ab" * 16)
    assert r.exit_code == 64  # usage error, not the tamper code


# --- profile ---------------------------------------------------------------------------

def test_profile_fit_and_outliers(runner, tmp_path):
    import numpy as np

    rng = np.random.default_rng(3)
    csv = tmp_path / "data.csv"
    csv.write_text("value\n" + "\n".join(str(v) for v in rng.normal(2, 0.5, 1500)))

    r = invoke(runner, tmp_path / "s", "profile", "fit", str(csv))
    payload = json.loads(r.output)
    assert payload["best_family"] == "normal"
    assert abs(payload["params"]["mu"] - 2.0) < 0.1

    r = invoke(runner, tmp_path / "s", "profile", "outliers", str(csv), "--sigmas", "4")
    assert r.exit_code == 0
    assert isinstance(json.loads(r.output)["outliers"], list)


def test_profile_fit_error_envelope(runner, tmp_path):
    csv = tmp_path / "tiny.csv"
    csv.write_text("1.0\n2.0\n")
    r = invoke(runner, tmp_path / "s", "profile", "fit", str(csv))
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "too-few-samples"


# --- filter ----------------------------------------------------------------------------

def test_filter_build_query(runner, tmp_path):
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    device_id = doc["entries"][0]["h2_hex"]
    filt = tmp_path / "allow.bin"

    r = invoke(runner, state, "filter", "build", "--from-ledger", "-o", str(filt))
    assert r.exit_code == 0
    assert json.loads(r.output)["inserted"] == 2

    r = invoke(runner, state, "filter", "query", str(filt), device_id)
    assert json.loads(r.output)["present"] is True
    r = invoke(runner, state, "filter", "query", str(filt), "cd" * 32)
    assert json.loads(r.output)["present"] is False


# --- sim ------------------------------------------------------------------------------

def test_sim_run_builtin_attack_suite(runner, tmp_path):
    scenario = tmp_path / "attacks.json"
    r = invoke(runner, tmp_path / "s", "sim", "builtin", "attack-suite", "-o", str(scenario))
    assert r.exit_code == 0

    log = tmp_path / "run.jsonl"
    r = invoke(runner, tmp_path / "s", "sim", "run", str(scenario), "--log", str(log))
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert payload["passed"] is True
    assert payload["adversary_actions"] == 4
    for line in log.read_text().splitlines():
        json.loads(line)  # strict JSON per line


def test_sim_run_fail_exits_nonzero(runner, tmp_path):
    bad = {
        "name": "will-fail", "seed": 1, "device_count": 1, "order": 16,
        "script": [
            {"action": "register", "device": "a"},
            {"action": "transact", "device": "a", "expect": "rejected:replay"},
        ],
    }
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(bad))
    r = invoke(runner, tmp_path / "s", "sim", "run", str(scenario))
    assert r.exit_code == 1
    assert json.loads(r.output)["passed"] is False


def test_sim_rejects_malformed_scenario(runner, tmp_path):
    scenario = tmp_path / "nope.json"
    scenario.write_text("{}")
    r = invoke(runner, tmp_path / "s", "sim", "run", str(scenario))
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "config-error"


# --- output discipline -------------------------------------------------------------------

def test_json_mode_outputs_are_strict_json(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    for args in (["ledger", "verify"], ["qg", "check", "-n", "4"],):
        r = invoke(runner, state, *args)
        json.loads(r.output)  # must parse as one JSON document


def test_lock_released_after_commands(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    assert not (state / ".lock").exists()


def test_lock_blocks_concurrent_mutation(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    (state / ".lock").write_text("999999")
    r = invoke(runner, state, "ledger", "register", "gamma")
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"
    (state / ".lock").unlink()


# --- state files -----------------------------------------------------------------

@pytest.mark.parametrize("fail_at", [0, 1, 2])
def test_save_zone_crash_leaves_loadable_state(runner, tmp_path, monkeypatch, fail_at):
    """A crash at any file replacement leaves each file old or new, never torn,
    and the TSA sequence never behind a timestamp the zone or ledger holds."""
    state = tmp_path / "state"
    _init_ledger(runner, state)
    app = AppState(state, "json")
    paths = (app.tsa_path, app.zone_path, app.ledger_path)
    old = {p: p.read_bytes() for p in paths}

    zone, tsa = app.load_zone()
    zone.generate_key("data-encryption")
    zone.register_device("gamma", rng_seed=12)
    new = {
        app.tsa_path: json.dumps(tsa.state_dict()).encode(),
        app.zone_path: json.dumps(zone.state_dict()).encode(),
        app.ledger_path: json.dumps(zone.ledger.state_dict()).encode(),
    }

    real_replace = os.replace
    calls = []

    def crashing_replace(src, dst):
        calls.append(dst)
        if len(calls) > fail_at:
            raise OSError("simulated crash")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crashing_replace)
    with pytest.raises(OSError, match="simulated crash"):
        app.save_zone(zone, tsa)
    monkeypatch.undo()

    for p in paths:
        assert p.read_bytes() in (old[p], new[p])
    assert calls[-1].read_bytes() == old[calls[-1]]
    assert not list(state.glob("*.tmp"))
    loaded, loaded_tsa = app.load_zone()
    issued = [k["created_at"]["sequence"] for k in loaded.state_dict()["keys"]]
    issued += [e.timestamp.sequence for e in loaded.ledger.entries]
    assert loaded_tsa.view.last_sequence >= max(issued)
