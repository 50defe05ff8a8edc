import contextlib
import json
import math
import multiprocessing
import os
import pathlib
import shutil
import sqlite3
import subprocess
import sys
import time
from types import SimpleNamespace

import click
import pytest
from click.testing import CliRunner

from edgevault import statefile
from edgevault.bloom import BloomFilter
from edgevault.cli import EXIT_REJECTED, EXIT_TAMPER, STATE_ENV, AppState, keys, main
from edgevault.crypto import TimestampAuthority, aead_decrypt
from edgevault.curves import point_from_bytes, standard_curve, tiny_curve
from edgevault.errors import StateError
from edgevault.securezone import SecureZone
from edgevault.simnet import SimScenario, SimStep, builtin_scenarios

from mutation import edit_row, stored_header, stored_rows, write_state


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
    return _document(state)["ledger"]


def _document(state):
    """The whole state as its three sections."""
    return _state_of(*AppState(state, "json").load_zone())


def _write_document(state, document):
    """Make ``document`` the whole state, ``zone.db`` as a new dir's; a dict
    gets seq 0 if it has none."""
    if isinstance(document, dict):
        document = {"seq": 0, **document}
    write_state(state, document)


def _split_record(zone):
    """The split record in the zone section's first context unit."""
    return next(iter(zone["contexts"].values()))["record"]


def _state_files(state):
    """Every file in the state dir by name; None if the dir is absent."""
    if not state.exists():
        return None
    return {p.name: p.read_bytes() for p in state.iterdir()}


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


def test_qg_check_samples_above_order_512(runner, tmp_path):
    r = invoke(runner, tmp_path / "s", "qg", "check", "-n", "600", "--seed", "3")
    assert r.exit_code == 0, r.output
    payload = json.loads(r.output)
    assert (payload["order"], payload["mode"], payload["checked_pairs"]) == \
        (600, "sampled", 65536)
    assert payload["passed"] is True


@pytest.mark.parametrize("extra", [[], ["{file}", "-n", "16"]], ids=["neither", "both"])
def test_qg_check_needs_a_table_file_or_an_order(runner, tmp_path, extra):
    table = tmp_path / "q.bin"
    assert invoke(runner, tmp_path / "s", "qg", "generate", "-n", "4", "-o", str(table)).exit_code == 0
    r = invoke(runner, tmp_path / "s", "qg", "check", *(a.format(file=table) for a in extra))
    assert r.exit_code == 64, r.output
    assert "provide a table file or -n/--seed" in r.output


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


def test_ledger_export_to_a_file_writes_what_stdout_gets(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    out = tmp_path / "ledger.jsonl"
    r = invoke(runner, state, "ledger", "export", "-o", str(out))
    assert r.exit_code == 0, r.output
    assert json.loads(r.output) == {"written": str(out)}
    assert out.read_text() == invoke(runner, state, "ledger", "export").output


def test_ledger_verify_detects_hex_edit(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    doc = _document(state)
    ct = doc["ledger"]["entries"][1]["ciphertext_hex"]
    doc["ledger"]["entries"][1]["ciphertext_hex"] = ("0" if ct[0] != "0" else "1") + ct[1:]
    _write_document(state, doc)

    r = invoke(runner, state, "ledger", "verify")
    assert r.exit_code == EXIT_TAMPER
    payload = json.loads(r.output)
    assert payload["valid"] is False
    assert payload["first_bad_index"] == 1

    # tamper blocks every ledger subcommand with the same exit code
    r = invoke(runner, state, "ledger", "sync", "-o", str(tmp_path / "x"))
    assert r.exit_code == EXIT_TAMPER
    assert json.loads(r.output) == payload
    r = invoke(runner, state, "ledger", "export")
    assert r.exit_code == EXIT_TAMPER
    before = _state_files(state)
    share, filt = tmp_path / "share.json", tmp_path / "allow.bin"
    for args, output in [
        (["ledger", "register", "late-device"], None),
        # once: the split was committed on a device id from a chain that does
        # not verify, and the filter was written
        (["keys", "split", key_id, "--device", "alpha", "-o", str(share)], share),
        (["filter", "build", "--from-ledger", "-o", str(filt)], filt),
    ]:
        r = invoke(runner, state, *args)
        assert r.exit_code == EXIT_TAMPER, (args, r.output)
        assert json.loads(r.output) == payload
        # the refused command saves nothing and writes nothing
        assert _state_files(state) == before
        assert output is None or not output.exists()


def _unsealed_points(state):
    """Each registered device's point, unsealed with the state dir's own point key."""
    zone, _ = AppState(state, "json").load_zone()
    point_key = zone._keys[zone._point_key_id].cipher
    return [point_from_bytes(zone.ledger.curve, aead_decrypt(
                point_key, e.ciphertext_record, b"point" + e.device_label.encode()))
            for e in zone.ledger.entries]


def _compacted(state):
    """A new dir holding ``state``'s state written whole, with no log row,
    as ``save_zone`` outside a session writes a template."""
    whole = state.parent / f"{state.name}-whole"
    AppState(whole, "json").save_zone(*AppState(state, "json").load_zone())
    return whole


@pytest.mark.parametrize("compact", [False, True], ids=["journal", "compacted"])
def test_no_state_file_holds_a_point_in_the_clear(runner, tmp_path, compact):
    """"journal": the dir its commands left, a log row each; "compacted":
    its state written whole into a new dir."""
    state = tmp_path / "state"
    assert invoke(runner, state, "ledger", "init", "--group", "g").exit_code == 0
    for label in ("p1", "p2", "p3"):
        assert invoke(runner, state, "ledger", "register", label).exit_code == 0
    if compact:
        state = _compacted(state)
    points = _unsealed_points(state)
    assert len(set(points)) == 3
    for data in _state_files(state).values():
        assert b"used_points" not in data
        for coordinate in (c for point in points for c in point):
            assert f"{coordinate:x}".encode() not in data
            assert str(coordinate).encode() not in data


@pytest.mark.parametrize("compact", [False, True], ids=["journal", "compacted"])
def test_the_tiny_group_holds_eight_devices_and_refuses_a_ninth(runner, tmp_path, compact):
    """"compacted": the ninth registration runs in a new dir that holds the
    eight devices' state written whole."""
    state = tmp_path / "state"
    assert invoke(runner, state, "ledger", "init", "--group", "g", "--preset", "tiny").exit_code == 0
    for i in range(1, 9):
        r = invoke(runner, state, "ledger", "register", f"p{i}")
        assert r.exit_code == 0, r.output
    if compact:
        state = _compacted(state)
    assert len(set(_unsealed_points(state))) == 8
    before = _state_files(state)
    r = invoke(runner, state, "ledger", "register", "p9")
    assert r.exit_code == 1
    assert json.loads(r.output.strip().splitlines()[-1])["error"]["code"] == "group-full"
    assert _state_files(state) == before


def test_a_composite_modulus_past_miller_rabin_is_refused_at_init(runner, tmp_path):
    """psi_13 passes every Miller-Rabin base and fails the strong Lucas test,
    so init refuses it and makes no dir, as it does psi_12."""
    state, curve = tmp_path / "state", tmp_path / "curve.json"
    curve.write_text(_PSI_13_CURVE)
    r = invoke(runner, state, "ledger", "init", "--group", "g", "--curve-json", str(curve))
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "invalid-curve" and "odd prime" in err["message"]
    assert not state.exists()


def test_a_dir_that_stored_used_points_loads_and_registers(runner, tmp_path):
    """A ledger header that also carries each point in the clear, as an
    earlier layout stored them: it loads, registers without reusing a point,
    and the next commit drops the points."""
    state = tmp_path / "state"
    assert invoke(runner, state, "ledger", "init", "--group", "g", "--preset", "tiny").exit_code == 0
    for label in ("alpha", "beta"):
        assert invoke(runner, state, "ledger", "register", label).exit_code == 0
    doc = _document(state)
    doc["ledger"]["used_points"] = [[hex(x), hex(y)] for x, y in _unsealed_points(state)]
    _write_document(state, doc)
    assert b"used_points" in stored_rows(state)["h", b""][0]

    assert invoke(runner, state, "ledger", "verify").exit_code == 0
    r = invoke(runner, state, "ledger", "register", "gamma")
    assert r.exit_code == 0, r.output
    assert len(set(_unsealed_points(state))) == 3
    assert all(b"used_points" not in body for body, _ in stored_rows(state).values())


def test_a_point_the_stored_curve_does_not_fit_is_corrupted_state(runner, tmp_path):
    # a standard-curve ledger whose stored curve was edited to the tiny one;
    # the chain does not cover the curve, so only the unsealing can refuse it
    state = tmp_path / "state"
    assert invoke(runner, state, "ledger", "init", "--group", "g").exit_code == 0
    assert invoke(runner, state, "ledger", "register", "alpha").exit_code == 0
    doc = _document(state)
    doc["ledger"]["curve"] = tiny_curve().to_json_dict()
    _write_document(state, doc)
    before = _state_files(state)
    r = invoke(runner, state, "ledger", "register", "beta")
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "corrupted-state"
    assert "expected 2 point bytes, got 64" in err["message"]
    assert _state_files(state) == before


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


def test_ledger_init_refuses_a_ledger_written_while_it_waited(runner, tmp_path, monkeypatch):
    """Another init that held the lock wrote its ledger after this one started."""
    r = invoke(runner, tmp_path / "other", "ledger", "init", "--group", "first", "--preset", "tiny")
    assert r.exit_code == 0, r.output
    planted = (tmp_path / "other" / "zone.db").read_bytes()
    state = tmp_path / "state"
    real_link = os.link

    def link_after_the_other_init(src, dst):
        pathlib.Path(dst).write_bytes(planted)
        return real_link(src, dst)

    monkeypatch.setattr(os, "link", link_after_the_other_init)
    r = invoke(runner, state, "ledger", "init", "--group", "second", "--preset", "tiny")
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"
    assert os.listdir(state) == ["zone.db"]
    assert (state / "zone.db").read_bytes() == planted


def test_bad_hex_context_is_usage_error(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    r = invoke(runner, state, "keys", "authorize", "--context", "zz-not-hex",
               "--share", str(state / "zone.db"))
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


def test_keys_authorize_wrong_table_at_order_251_is_rejected(runner, tmp_path):
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    share_file = tmp_path / "cloud.json"
    r = invoke(runner, state, "keys", "split", key_id, "--device", "alpha",
               "--order", "251", "-o", str(share_file))
    assert r.exit_code == 0, r.output

    document = _document(state)
    _split_record(document["zone"])["qg_seed"] += 1
    _write_document(state, document)

    r = invoke(runner, state, "keys", "authorize", "--context", doc["entries"][0]["h2_hex"],
               "--share", str(share_file))
    assert r.exit_code == EXIT_REJECTED
    assert json.loads(r.stdout)["reason"] == "checksum-mismatch"


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


def _one_byte_tag(share):
    share["tag"] = "00"


def _one_expected_tag(zone):
    _split_record(zone)["expected_tags"].pop()


# M8191: composite with no factor below 41, so only its width rejects it quickly
_WIDE_CURVE = json.dumps(dict(standard_curve().to_json_dict(), p=hex((1 << 8191) - 1)))
# the least strong pseudoprimes to the prime bases up to 37 and up to 41
_PSI_12_CURVE = json.dumps(dict(standard_curve().to_json_dict(), p=hex(318665857834031151167461)))
_PSI_13_CURVE = json.dumps(dict(standard_curve().to_json_dict(), p=hex(3317044064679887385961981)))


def _wide_curve(ledger):
    ledger["curve"] = json.loads(_WIDE_CURVE)


_STRING_ENTRY_SCENARIO = json.dumps({
    "name": "x", "seed": 1, "device_count": 1,
    "script": [{"action": "register", "device": "a"},
               {"action": "attack", "kind": "tamper-ledger-bit", "entry": "1"}],
}).encode()


def _as_list(doc):
    return list(doc.values())


def _without_zone_section(doc):
    del doc["zone"]
    return doc


def _string_ledger_section(doc):
    return dict(doc, ledger="ledger")


def _old_layout_without_tsa_json(doc):
    return doc["zone"]


def _journal_seq(seq):
    """The state with the tip sequence number ``seq``."""
    return lambda doc: dict(doc, seq=seq)


def _spliced(state, document, section, raw):
    """Make ``document`` the whole state with ``raw`` as one section's value
    in the header, JSON or not, and the header's digest recomputed."""
    placeholder = json.dumps("#" * 64).encode()
    _write_document(state, {**document, section: "#" * 64})

    def splice(body):
        assert body.count(placeholder) == 1
        return body.replace(placeholder, raw)

    edit_row(state, "h", b"", splice, reseal=True)


@pytest.mark.parametrize(
    "target,content,code",
    [
        ("timestamp", b"{}", "corrupted-state"),
        ("timestamp", b"not json {", "corrupted-state"),
        ("tsa", b"\xff\xfe not utf-8", "corrupted-state"),
        ("tsa", b"[]", "corrupted-state"),
        ("curve", b"{}", "invalid-curve"),
        ("curve", _WIDE_CURVE.encode(), "invalid-curve"),
        ("curve", _PSI_12_CURVE.encode(), "invalid-curve"),
        ("ledger", _wide_curve, "corrupted-state"),
        ("timestamp", b'{"epoch_seconds": 1e999, "sequence": 1}', "corrupted-state"),
        ("share", _one_byte_tag, "corrupted-state"),
        ("zone", _one_expected_tag, "corrupted-state"),
        ("scenario", _STRING_ENTRY_SCENARIO, "config-error"),
        ("document", _as_list, "corrupted-state"),
        ("document", _without_zone_section, "corrupted-state"),
        ("document", _string_ledger_section, "corrupted-state"),
        ("document", _old_layout_without_tsa_json, "corrupted-state"),
        # the header's seq must be an int in [0, 2**64)
        ("document", _journal_seq(True), "corrupted-state"),
        ("document", _journal_seq("1"), "corrupted-state"),
        ("document", _journal_seq(1.9), "corrupted-state"),
        ("document", _journal_seq(-1), "corrupted-state"),
        ("document", _journal_seq(1 << 64), "corrupted-state"),
    ],
    ids=["timestamp-empty-object", "timestamp-not-json", "tsa-not-utf8", "tsa-array",
         "curve-missing-fields", "curve-8191-bit-modulus", "curve-psi12-modulus",
         "ledger-8191-bit-modulus",
         "timestamp-infinite-epoch", "share-one-byte-tag",
         "zone-one-expected-tag", "scenario-string-entry", "document-list",
         "document-without-zone", "document-string-ledger", "old-layout-without-tsa-json",
         "document-journal-seq-bool", "document-journal-seq-string",
         "document-journal-seq-float", "document-journal-seq-negative",
         "document-journal-seq-2**64"],
)
def test_malformed_json_input_gets_error_envelope(runner, tmp_path, target, content, code):
    """``content`` is the bad file, the raw bytes of a state document section,
    an edit of the command's own valid share file or document section, or a
    function of the whole document that returns its replacement.  The refused
    command leaves the state dir as it was."""
    state = tmp_path / "state"
    bad = tmp_path / "bad.json"
    if target == "curve":
        bad.write_bytes(content)
        args = ["ledger", "init", "--group", "g", "--curve-json", str(bad)]
    elif target == "scenario":
        bad.write_bytes(content)
        args = ["sim", "run", str(bad)]
    else:
        doc = _init_ledger(runner, state)
        key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
        share_file = tmp_path / "cloud.json"
        r = invoke(runner, state, "keys", "split", key_id, "--device", "alpha",
                   "--order", "16", "-o", str(share_file))
        assert r.exit_code == 0, r.output
        args = ["keys", "authorize", "--context", doc["entries"][0]["h2_hex"],
                "--share", str(share_file)]
        document = _document(state)
        if target == "timestamp":
            bad.write_bytes(content)
            args += ["--timestamp", str(bad)]
        elif target == "share":
            edited = json.loads(share_file.read_bytes())
            content(edited)
            share_file.write_text(json.dumps(edited))
        elif target == "document":
            _write_document(state, content(document))
        elif isinstance(content, bytes):
            _spliced(state, document, target, content)
        else:
            content(document[target])
            _write_document(state, document)
    before = _state_files(state)
    r = invoke(runner, state, *args)
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == code
    assert _state_files(state) == before


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


@pytest.mark.parametrize("command", ["keys-authorize-share", "sim-run"])
def test_deeply_nested_json_gets_error_envelope(runner, tmp_path, command):
    state = tmp_path / "state"
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 100_000)
    if command == "sim-run":
        r = invoke(runner, state, "sim", "run", str(deep))
        code = "config-error"
    else:
        doc = _init_ledger(runner, state)
        r = invoke(runner, state, "keys", "authorize", "--context", doc["entries"][0]["h2_hex"],
                   "--share", str(deep))
        code = "corrupted-state"
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == code


@pytest.mark.parametrize(
    "args",
    [
        ("ledger", "init", "--group", "g"),
        ("ledger", "register", "a"),
        ("keys", "generate"),
        ("keys", "split", "ab" * 16, "--context", "cd" * 32),
        ("sim", "run", "scenario.json"),
        ("qg", "generate", "-n", "4"),
        ("qg", "check", "-n", "4"),
    ],
    ids=["ledger-init", "ledger-register", "keys-generate", "keys-split", "sim-run",
         "qg-generate", "qg-check"],
)
@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_out_of_range_seed_is_a_usage_error(runner, tmp_path, args, seed):
    # each of the first five once ended in a raw OverflowError from the 8-byte
    # seed encoding; the qg commands masked the seed to 64 bits, so -1 and
    # 2**64 - 1 printed one table under two seeds
    scenario = tmp_path / "scenario.json"
    scenario.write_text(builtin_scenarios()["replay-storm"].to_json())
    args = [str(scenario) if a == "scenario.json" else a for a in args]
    r = invoke(runner, tmp_path / "state", *args, "--seed", seed)
    assert r.exit_code == 64, r.output
    assert "Traceback" not in r.output
    assert "--seed" in r.output


@pytest.mark.parametrize("budget", ["-1", "0", str(1 << 64)], ids=["-1", "0", "2**64"])
def test_out_of_range_budget_is_a_usage_error(runner, tmp_path, budget):
    # -1 and 0 once made a key whose every authorize was budget-exhausted
    r = invoke(runner, tmp_path / "state", "keys", "generate", "--budget", budget)
    assert r.exit_code == 64, r.output
    assert "--budget" in r.output
    assert not (tmp_path / "state").exists()


def _kek_material(state):
    zone = _document(state)["zone"]
    return zone["keys"][zone["kek_id"]]["material"]


def test_without_a_seed_every_key_is_drawn_from_the_os(runner, tmp_path):
    # once --seed defaulted to 0, so every fresh dir held the same keys
    keys = []
    for name in ("a", "b"):
        state = tmp_path / name
        assert invoke(runner, state, "ledger", "init", "--group", "g", "--preset", "tiny").exit_code == 0
        r = invoke(runner, state, "keys", "generate")
        keys.append((json.loads(r.output)["key_id"], _kek_material(state)))
    (a_key, a_kek), (b_key, b_kek) = keys
    assert a_key != b_key and a_kek != b_kek
    # a dir any other command creates draws its zone seed too
    for name in ("c", "d"):
        assert invoke(runner, tmp_path / name, "keys", "generate", "--seed", "7").exit_code == 0
    assert _kek_material(tmp_path / "c") != _kek_material(tmp_path / "d")


def test_the_same_explicit_seeds_give_identical_dirs(runner, tmp_path, monkeypatch):
    # the TSA reads wall time, which feeds the records; pin it
    monkeypatch.setattr(time, "time", lambda: 1_792_000_000.0)
    for name in ("a", "b"):
        state = tmp_path / name
        for args in [("ledger", "init", "--group", "g", "--preset", "tiny", "--seed", "5"),
                     ("ledger", "register", "alpha", "--seed", "6")]:
            assert invoke(runner, state, *args).exit_code == 0
        r = invoke(runner, state, "keys", "generate", "--seed", "7")
        r = invoke(runner, state, "keys", "split", json.loads(r.output)["key_id"], "--device",
                   "alpha", "--order", "16", "--seed", "8", "-o", str(tmp_path / f"{name}.json"))
        assert r.exit_code == 0, r.output
    assert _state_files(tmp_path / "a") == _state_files(tmp_path / "b")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_keys_split_to_stdout_prints_a_share_that_authorizes(runner, tmp_path):
    state = tmp_path / "state"
    context = _init_ledger(runner, state)["entries"][0]["h2_hex"]
    key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    r = invoke(runner, state, "keys", "split", key_id, "--device", "alpha", "--order", "16")
    assert r.exit_code == 0, r.output
    share_file = tmp_path / "cloud.json"
    share_file.write_text(r.output)
    r = invoke(runner, state, "keys", "authorize", "--context", context,
               "--share", str(share_file))
    assert r.exit_code == 0, r.output


def test_a_key_id_of_the_wrong_length_is_a_usage_error(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    before = _state_files(state)
    r = invoke(runner, state, "keys", "split", "ab" * 15, "--context", "cd" * 32)
    assert r.exit_code == 64, r.output
    assert "key id must be 16 bytes" in r.output
    assert _state_files(state) == before


def test_keys_split_requires_context_or_device(runner, tmp_path):
    r = invoke(runner, tmp_path / "s", "keys", "split", "ab" * 16)
    assert r.exit_code == 64  # usage error, not the tamper code


def _refused(runner, state, *args):
    """Run a command that must fail with exit 1; its error code, with the
    state dir checked to be as it was."""
    before = _state_files(state)
    r = invoke(runner, state, *args)
    assert r.exit_code == 1, r.output
    assert _state_files(state) == before
    return json.loads(r.output.strip().splitlines()[-1])["error"]["code"]


def test_keys_split_of_the_zone_s_kek_is_a_key_state_error(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    kek_id = stored_header(state)["zone"]["kek_id"]
    assert _refused(runner, state, "keys", "split", kek_id, "--context", "11" * 32,
                    "--order", "16", "-o", str(tmp_path / "s.json")) == "key-state"
    assert not (tmp_path / "s.json").exists()


def test_ledger_verify_without_a_ledger_is_state_error(runner, tmp_path):
    state = tmp_path / "state"
    assert invoke(runner, state, "keys", "generate").exit_code == 0
    assert _refused(runner, state, "ledger", "verify") == "corrupted-state"


@pytest.mark.parametrize("ledger", [False, True], ids=["no-ledger", "unknown-device"])
def test_keys_split_for_a_device_the_ledger_lacks_is_state_error(runner, tmp_path, ledger):
    state = tmp_path / "state"
    if ledger:
        _init_ledger(runner, state)
    key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    assert _refused(runner, state, "keys", "split", key_id, "--device", "gamma",
                    "--order", "16") == "corrupted-state"


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


def test_profile_fit_skips_blank_cells(runner, tmp_path):
    values = [str(1.0 + (i % 7) * 0.25) for i in range(40)]
    plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
    plain.write_text("value\n" + "\n".join(values))
    # a blank line and a row whose first cell is empty are no values
    gappy.write_text("value\n\n" + "\n".join(values[:20]) + "\n,9\n" + "\n".join(values[20:]))
    fits = [invoke(runner, tmp_path / "s", "profile", "fit", str(f)) for f in (plain, gappy)]
    assert fits[0].exit_code == 0, fits[0].output
    assert fits[1].output == fits[0].output


def test_profile_non_numeric_value_after_the_header_is_state_error(runner, tmp_path):
    csv = tmp_path / "bad.csv"
    csv.write_text("value\n1.0\n2.0\nthree\n4.0\n")
    for command in ("fit", "outliers"):
        r = invoke(runner, tmp_path / "s", "profile", command, str(csv))
        assert r.exit_code == 1, r.output
        err = json.loads(r.output.strip().splitlines()[-1])["error"]
        assert err["code"] == "corrupted-state"
        assert "line 4" in err["message"]


def test_profile_fit_error_envelope(runner, tmp_path):
    csv = tmp_path / "tiny.csv"
    csv.write_text("1.0\n2.0\n")
    r = invoke(runner, tmp_path / "s", "profile", "fit", str(csv))
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "too-few-samples"


def test_profile_fit_of_values_too_close_to_bin_is_an_error_envelope(runner, tmp_path):
    # once a raw ValueError from np.histogram
    a = 1e300
    csv = tmp_path / "adjacent.csv"
    csv.write_text(f"{a!r}\n{math.nextafter(a, math.inf)!r}\n" * 10)
    r = invoke(runner, tmp_path / "s", "profile", "fit", str(csv))
    assert r.exit_code == 1
    assert "Traceback" not in r.output
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "too-few-distinct-values"


# --- filter ----------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["fit", "outliers"])
def test_profile_of_values_whose_mean_overflows_is_an_error_envelope(runner, tmp_path, command):
    # once: no outliers, and too-few-distinct-values for values far apart
    csv = tmp_path / "far.csv"
    csv.write_text("1e308\n" * 9 + "-1e308\n")
    r = invoke(runner, tmp_path / "s", "profile", command, str(csv))
    assert r.exit_code == 1
    assert "Traceback" not in r.output
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "value-range"


def test_profile_outliers_refuses_a_nan_threshold(runner, tmp_path):
    # once: "threshold_sigmas": NaN, which is not JSON, and no outliers
    csv = tmp_path / "data.csv"
    csv.write_text("1.0\n2.0\n3.0\n10.0\n")
    r = invoke(runner, tmp_path / "s", "profile", "outliers", str(csv), "--sigmas", "nan")
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "value-range"


def test_filter_build_query(runner, tmp_path, monkeypatch):
    # the TSA reads wall time, which feeds the device ids; pin it
    monkeypatch.setattr(time, "time", lambda: 1_792_000_000.0)
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    filt = tmp_path / "allow.bin"

    r = invoke(runner, state, "filter", "build", "--from-ledger", "-o", str(filt))
    assert r.exit_code == 0
    assert json.loads(r.output)["inserted"] == 2

    for entry in doc["entries"]:
        r = invoke(runner, state, "filter", "query", str(filt), entry["h2_hex"])
        assert json.loads(r.output)["present"] is True
    # an id the filter holds no bits for; the false-positive rate is
    # acceptance criterion 8's concern, not this test's
    bloom = BloomFilter.from_bytes(filt.read_bytes())
    absent = next(c for c in (f"{b:02x}" * 32 for b in range(256))
                  if not bloom.contains(bytes.fromhex(c)))
    r = invoke(runner, state, "filter", "query", str(filt), absent)
    assert json.loads(r.output)["present"] is False


def test_filter_build_needs_exactly_one_source(runner, tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("ab" * 32 + "\n")
    out = tmp_path / "f.bin"
    for extra in ([], ["--from-ledger", "--ids-file", str(ids)]):
        r = invoke(runner, tmp_path / "s", "filter", "build", "-o", str(out), *extra)
        assert r.exit_code == 64, r.output
        assert "provide exactly one of --from-ledger or --ids-file" in r.output
    assert not out.exists()


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


def test_sim_builtin_with_a_name_prints_the_scenario(runner, tmp_path):
    r = invoke(runner, tmp_path / "s", "sim", "builtin", "replay-storm")
    assert r.exit_code == 0, r.output
    assert r.output == builtin_scenarios()["replay-storm"].to_json() + "\n"
    assert not (tmp_path / "s").exists()


def test_sim_builtin_without_a_name_lists_the_scenarios(runner, tmp_path):
    r = invoke(runner, tmp_path / "s", "sim", "builtin")
    assert r.exit_code == 0, r.output
    assert json.loads(r.output) == {"scenarios": ["attack-suite", "happy-path", "replay-storm"]}
    assert not (tmp_path / "s").exists()


def test_sim_run_seed_overrides_the_scenario_seed(runner, tmp_path):
    scenario = tmp_path / "happy.json"
    r = invoke(runner, tmp_path / "s", "sim", "builtin", "happy-path", "-o", str(scenario))
    assert r.exit_code == 0, r.output
    assert json.loads(scenario.read_bytes())["seed"] != 12345
    log = tmp_path / "run.jsonl"
    r = invoke(runner, tmp_path / "s", "sim", "run", str(scenario), "--seed", "12345",
               "--log", str(log))
    assert r.exit_code == 0, r.output
    assert json.loads(log.read_bytes().splitlines()[0])["seed"] == 12345
    assert not (tmp_path / "s").exists()


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


def _tiny_scenario(device_count=1, script=()):
    return SimScenario(name="t", seed=1, device_count=device_count, order=16,
                       curve=tiny_curve(), script=list(script))


@pytest.mark.parametrize("scenario,message", [
    (_tiny_scenario(device_count=-1), "device_count must be >= 0"),
    (_tiny_scenario(script=[SimStep(action="transact")]), "needs a registered device"),
    (_tiny_scenario(script=[SimStep(action="transact", device="ghost")]),
     "device 'ghost' is not registered"),
    (_tiny_scenario(script=[SimStep(action="attack", kind="tamper-ledger-bit")]),
     "needs a synced replica"),
    (_tiny_scenario(script=[SimStep(action="register"),
                            SimStep(action="attack", kind="tamper-ledger-bit", entry=1)]),
     "entry 1 out of range"),
], ids=["negative-device-count", "no-device-registered", "unregistered-device", "no-replica",
        "entry-out-of-range"])
def test_sim_run_of_an_unplayable_scenario_is_config_error(runner, tmp_path, scenario, message):
    path = tmp_path / "scenario.json"
    path.write_text(scenario.to_json())
    r = invoke(runner, tmp_path / "s", "sim", "run", str(path))
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "config-error"
    assert message in err["message"]


# --- output discipline -------------------------------------------------------------------

def test_json_mode_outputs_are_strict_json(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    for args in (["ledger", "verify"], ["qg", "check", "-n", "4"],):
        r = invoke(runner, state, *args)
        json.loads(r.output)  # must parse as one JSON document


def test_lock_released_after_commands(runner, tmp_path):
    """After each mutating command the state dir holds only the state file:
    no rollback journal and no tmp file.  The first command writes the whole
    state at seq 0, and each later one adds a log row."""
    state = tmp_path / "state"
    share_file = tmp_path / "cloud.json"

    def run(*args):
        r = invoke(runner, state, *args)
        assert r.exit_code == 0, r.output
        assert os.listdir(state) == ["zone.db"]
        return r

    run("ledger", "init", "--group", "g", "--preset", "tiny")
    run("ledger", "register", "alpha", "--seed", "10")
    key_id = json.loads(run("keys", "generate").output)["key_id"]
    run("keys", "split", key_id, "--device", "alpha", "--order", "16", "-o", str(share_file))
    context = _document(state)["ledger"]["entries"][0]["h2_hex"]
    run("keys", "authorize", "--context", context, "--share", str(share_file))
    assert set(stored_header(state)) == {"seq", "h", "tsa", "zone", "ledger"}
    assert stored_header(state)["seq"] == 4
    with contextlib.closing(sqlite3.connect(state / "zone.db")) as db:
        assert [seq for seq, in db.execute("SELECT seq FROM log")] == [1, 2, 3, 4]


def _hold_lock(state):
    """A connection that holds the state dir's write lock, as another
    session's would."""
    db = sqlite3.connect(state / "zone.db", isolation_level=None)
    db.execute("BEGIN IMMEDIATE")
    return db


def _assert_locked(r):
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "corrupted-state"
    assert err["message"].startswith("state dir is locked (")


@pytest.mark.parametrize("args", [
    ("ledger", "init", "--group", "other"),
    ("ledger", "register", "gamma"),
    ("keys", "generate"),
    ("keys", "split", "00" * 16, "--context", "11" * 32),
    ("keys", "authorize", "--context", "11" * 32, "--share", "{state}/zone.db"),
], ids=["ledger-init", "ledger-register", "keys-generate", "keys-split", "keys-authorize"])
def test_lock_blocks_concurrent_mutation(runner, tmp_path, args):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    # SQLite keeps the locks of two connections in one process apart too
    holder = _hold_lock(state)
    try:
        before = _state_files(state)
        _assert_locked(invoke(runner, state, *(a.format(state=state) for a in args)))
        assert _state_files(state) == before
    finally:
        holder.close()


# holds the write lock on the database argv[1], having changed a row, until
# its stdin closes
_HOLDER = ("import sqlite3, sys; db = sqlite3.connect(sys.argv[1], isolation_level=None); "
           "db.execute('BEGIN IMMEDIATE'); db.execute(\"UPDATE unit SET body = x'00'\"); "
           "print('held', flush=True); sys.stdin.read()")


def _lock_holder(state):
    """A child process that holds the state dir's write lock."""
    child = subprocess.Popen([sys.executable, "-c", _HOLDER, str(state / "zone.db")],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "held\n"
    return child


def test_lock_of_a_live_process_still_blocks(runner, tmp_path):
    state = tmp_path / "state"
    _init_ledger(runner, state)
    child = _lock_holder(state)
    try:
        before = _state_files(state)
        _assert_locked(invoke(runner, state, "keys", "generate"))
        assert _state_files(state) == before
    finally:
        child.kill()
        child.wait()


def _dead_pid():
    """The pid of a process that has exited."""
    child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                           capture_output=True, text=True, check=True)
    return int(child.stdout)


@pytest.mark.parametrize("owner", ["empty", "torn", "dead-pid", "live-pid", "killed-holder"])
def test_lock_no_process_holds_never_blocks(runner, tmp_path, owner):
    """Only a live transaction blocks: not a ``.lock`` an earlier version
    left, whatever it holds, nor a writer killed mid-transaction, whose
    journal the next command rolls back."""
    state = tmp_path / "state"
    _init_ledger(runner, state)
    before = _document(state)
    if owner == "killed-holder":
        child = _lock_holder(state)
        child.kill()  # SIGKILL: no rollback but the next connection's
        child.wait()
        assert (state / "zone.db-journal").exists()
        r = invoke(runner, state, "ledger", "verify")  # a reader rolls it back too
        assert r.exit_code == 0, r.output
    else:
        # "live-pid" names this live process
        (state / ".lock").write_text({"empty": "", "torn": "1234",
                                      "dead-pid": f"{_dead_pid()} 12345",
                                      "live-pid": f"{os.getpid()} 1"}[owner])
    assert _document(state) == before
    r = invoke(runner, state, "keys", "generate")
    assert r.exit_code == 0, r.output
    assert sorted(os.listdir(state)) == sorted({"zone.db", ".lock"} if owner != "killed-holder"
                                               else {"zone.db"})


def test_state_dir_removed_before_the_lock_is_taken_reads_as_locked(
        runner, tmp_path, monkeypatch):
    """The dir was removed, by whatever removed it, between this session's
    check that it holds state and its connection: the session is refused
    and makes no dir."""
    state = tmp_path / "state"
    _init_ledger(runner, state)
    real_connect = statefile.StateDir._connect

    def connect_after_the_removal(path, mode, **kwargs):
        if mode == "rw":
            shutil.rmtree(state)
        return real_connect(path, mode, **kwargs)

    monkeypatch.setattr(statefile.StateDir, "_connect", staticmethod(connect_after_the_removal))
    r = invoke(runner, state, "keys", "generate")
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"
    assert not state.exists()


def _generate_keys(state):
    """The exit code and output of 15 ``keys generate`` in a row."""
    runner = CliRunner()
    runs = [runner.invoke(main, ["--state-dir", str(state), "keys", "generate"])
            for _ in range(15)]
    return [SimpleNamespace(exit_code=r.exit_code, output=r.output) for r in runs]


def test_concurrent_sessions_commit_one_at_a_time(runner, tmp_path, monkeypatch):
    """Four processes race 15 key generations each on one state dir: each
    run commits or is refused as locked, and every committed key is there."""
    state = tmp_path / "state"
    r = invoke(runner, state, "ledger", "init", "--group", "g", "--preset", "tiny")
    assert r.exit_code == 0, r.output
    with multiprocessing.get_context("fork").Pool(4) as pool:
        runs = [run for worker in pool.map(_generate_keys, [state] * 4) for run in worker]
    generated = []
    for run in runs:
        if run.exit_code == 0:
            generated.append(json.loads(run.output)["key_id"])
        else:
            _assert_locked(run)
    assert generated
    stored = list(_document(state)["zone"]["keys"])
    assert len(stored) == 3 + len(generated)
    assert set(generated) <= set(stored)
    assert os.listdir(state) == ["zone.db"]


@pytest.mark.parametrize("args", [
    ("ledger", "init", "--group", "g", "--curve-json", "{dir}"),
    ("keys", "authorize", "--context", "00" * 32, "--share", "{dir}"),
    ("keys", "authorize", "--context", "00" * 32, "--share", "{file}", "--timestamp", "{dir}"),
    ("qg", "check", "{dir}"),
    ("profile", "fit", "{dir}"),
    ("profile", "outliers", "{dir}"),
    ("filter", "build", "-o", "{file}", "--ids-file", "{dir}"),
    ("filter", "query", "{dir}", "00"),
    ("sim", "run", "{dir}"),
    ("ledger", "export", "-o", "{dir}"),
    ("ledger", "sync", "-o", "{dir}"),
    ("keys", "split", "00" * 16, "--context", "11" * 32, "-o", "{dir}"),
    ("keys", "authorize", "--context", "00" * 32, "--share", "{file}", "--save-timestamp", "{dir}"),
    ("qg", "generate", "-n", "4", "-o", "{dir}"),
    ("filter", "build", "-o", "{dir}", "--ids-file", "{file}"),
    ("sim", "builtin", "attack-suite", "-o", "{dir}"),
    ("sim", "run", "{file}", "--log", "{dir}"),
], ids=["curve-json", "share", "timestamp", "qg-check", "profile-fit", "profile-outliers",
        "ids-file", "filter-query", "sim-run", "export-out", "sync-out", "split-out",
        "save-timestamp", "qg-generate-out", "filter-build-out", "sim-builtin-out", "sim-log"])
def test_a_directory_where_a_file_belongs_is_a_usage_error(runner, tmp_path, args):
    # each of these once ended in a raw IsADirectoryError traceback, the outputs
    # of keys split and keys authorize only after their commit
    a_file = tmp_path / "file.json"
    a_file.write_text("{}")
    args = [a.format(dir=tmp_path, file=a_file) for a in args]
    r = invoke(runner, tmp_path / "state", *args)
    assert r.exit_code == 64, r.output
    assert "Traceback" not in r.output
    assert not (tmp_path / "state").exists()


@pytest.mark.parametrize("where", ["dir", "missing"])
def test_an_output_split_cannot_create_is_refused_before_the_commit(runner, tmp_path, where):
    # the share was once written after the commit, so a failed write lost it
    # and every later split of the key was already-split
    state = tmp_path / "state"
    assert invoke(runner, state, "ledger", "init", "--group", "g", "--preset", "tiny").exit_code == 0
    key = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    before = (state / "zone.db").read_bytes()
    context = "11" * 32
    bad = tmp_path if where == "dir" else tmp_path / "missing" / "x.json"
    r = invoke(runner, state, "keys", "split", key, "--context", context, "-o", str(bad))
    assert r.exit_code == 64, r.output
    assert "Traceback" not in r.output
    assert (state / "zone.db").read_bytes() == before
    share = tmp_path / "share.json"
    r = invoke(runner, state, "keys", "split", key, "--context", context, "-o", str(share))
    assert r.exit_code == 0, r.output
    r = invoke(runner, state, "keys", "authorize", "--context", context, "--share", str(share))
    assert r.exit_code == 0, r.output


def test_a_timestamp_authorize_cannot_save_is_refused_before_the_commit(runner, tmp_path):
    state = tmp_path / "state"
    assert invoke(runner, state, "ledger", "init", "--group", "g", "--preset", "tiny").exit_code == 0
    key = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    share = tmp_path / "share.json"
    context = "11" * 32
    invoke(runner, state, "keys", "split", key, "--context", context, "-o", str(share))
    before = (state / "zone.db").read_bytes()
    args = ("keys", "authorize", "--context", context, "--share", str(share), "--save-timestamp")
    r = invoke(runner, state, *args, str(tmp_path / "missing" / "ts.json"))
    assert r.exit_code == 64, r.output
    assert "Traceback" not in r.output
    assert (state / "zone.db").read_bytes() == before
    ts = tmp_path / "ts.json"
    assert invoke(runner, state, *args, str(ts)).exit_code == 0
    r = invoke(runner, state, "keys", "authorize", "--context", context, "--share", str(share),
               "--timestamp", str(ts))
    assert r.exit_code == EXIT_REJECTED
    assert "replay" in r.output


@pytest.mark.parametrize("source", ["option", "env"])
def test_a_state_dir_that_is_a_file_is_a_usage_error(runner, tmp_path, source):
    # this once ended in a raw FileExistsError traceback from mkdir
    a_file = tmp_path / "state"
    a_file.write_text("not a dir")
    args = ["--state-dir", str(a_file)] if source == "option" else []
    env = {STATE_ENV: str(a_file)} if source == "env" else {}
    r = runner.invoke(main, [*args, "keys", "generate"], env=env, catch_exceptions=False)
    assert r.exit_code == 64, r.output
    assert "is a file" in r.output
    assert a_file.read_text() == "not a dir"


@pytest.mark.parametrize("source", ["option", "env", "default"])
def test_state_dir_sources(runner, tmp_path, monkeypatch, source):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(STATE_ENV, raising=False)
    args = ["--state-dir", "mine"] if source == "option" else []
    env = {STATE_ENV: "mine"} if source == "env" else {}
    r = runner.invoke(main, [*args, "keys", "generate"], env=env, catch_exceptions=False)
    assert r.exit_code == 0, r.output
    assert os.listdir(tmp_path) == [".edgevault" if source == "default" else "mine"]


def test_root_group_maps_a_domain_error_from_any_command(runner, tmp_path, monkeypatch):
    @click.command()
    def boom():
        raise StateError("state went missing")

    monkeypatch.setitem(keys.commands, "boom", boom)
    r = invoke(runner, tmp_path / "s", "keys", "boom")
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)  # the envelope's exit, not a raised error
    err = json.loads(r.stderr.strip().splitlines()[-1])
    assert err == {"error": {"code": "corrupted-state", "message": "state went missing"}}


# --- state files -----------------------------------------------------------------

def _state_of(zone, tsa):
    """The whole state as the document's three sections."""
    return {"tsa": tsa.state_dict(), "zone": zone.state_dict(),
            "ledger": zone.ledger.state_dict() if zone.ledger is not None else None}


@pytest.mark.parametrize("existed", [False, True], ids=["new-dir", "existing-dir"])
def test_refused_command_removes_only_a_state_dir_it_created(runner, tmp_path, existed):
    fresh = tmp_path / "fresh"
    if existed:
        fresh.mkdir()
    not_a_share = tmp_path / "attack.json"
    not_a_share.write_text(builtin_scenarios()["attack-suite"].to_json())
    r = invoke(runner, fresh, "keys", "authorize", "--context", "00" * 32,
               "--share", str(not_a_share))
    assert r.exit_code == 1
    err = json.loads(r.output.strip().splitlines()[-1])
    assert err["error"]["code"] == "corrupted-state"
    assert fresh.exists() == existed
    assert not existed or not any(fresh.iterdir())


def test_edited_split_record_order_is_a_tag_mismatch(runner, tmp_path):
    state = tmp_path / "state"
    doc = _init_ledger(runner, state)
    key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    share_file = tmp_path / "cloud.json"
    r = invoke(runner, state, "keys", "split", key_id, "--device", "alpha",
               "-o", str(share_file))
    assert r.exit_code == 0, r.output
    document = _document(state)
    assert _split_record(document["zone"])["order"] == 256
    _split_record(document["zone"])["order"] = 128
    _write_document(state, document)

    r = invoke(runner, state, "keys", "authorize", "--context", doc["entries"][0]["h2_hex"],
               "--share", str(share_file))
    assert r.exit_code == EXIT_REJECTED, r.output
    assert json.loads(r.stdout)["reason"] == "tag-mismatch"


def _to_earlier_layout(state, layout):
    """Rewrite the state dir in a layout an earlier version wrote, each with
    a ``zone.json`` and no ``zone.db``: "snapshot-and-journal" is the
    document ``{"tsa", "zone", "ledger", "journal"}`` beside journal.jsonl,
    which holds the records after it; "three-file" keeps the TSA and the ledger in tsa.json and
    ledger.json beside a bare zone; "journal-less" is the document with no
    journal section; "four-context-sections" is the document whose zone
    section lists the keys and spreads each context over four sections."""
    sections = _document(state)
    header = stored_header(state)
    (state / "zone.db").unlink()
    if layout == "snapshot-and-journal":
        tip = {"seq": header["seq"], "h": header["h"]}
        (state / "zone.json").write_text(json.dumps({**sections, "journal": tip}))
        (state / "journal.jsonl").write_bytes(b"")
    elif layout == "three-file":
        (state / "zone.json").write_text(json.dumps(sections["zone"]))
        (state / "tsa.json").write_text(json.dumps(sections["tsa"]))
        (state / "ledger.json").write_text(json.dumps(sections["ledger"]))
    elif layout == "journal-less":
        (state / "zone.json").write_text(json.dumps(sections))
    else:
        zone = sections["zone"]
        contexts = zone.pop("contexts")
        zone["keys"] = list(zone["keys"].values())
        zone["split_records"] = [c["record"] for c in contexts.values()]
        zone["edge_shares"] = {cid: c["edge_share"] for cid, c in contexts.items()}
        zone["context_keys"] = {cid: c["key_id"] for cid, c in contexts.items()}
        zone["last_seen"] = {cid: c["last_seen"] for cid, c in contexts.items()
                             if c["last_seen"] is not None}
        (state / "zone.json").write_text(json.dumps(
            {**sections, "journal": {"seq": 0, "h": "00" * 32}}))


@pytest.mark.parametrize("layout", ["snapshot-and-journal", "three-file", "journal-less",
                                    "four-context-sections"])
def test_a_state_dir_in_an_earlier_layout_is_refused(runner, tmp_path, layout):
    """None loads as a fresh zone, so no key is overwritten, and none is
    rewritten.  The ledger commands, which decode no zone, refuse them too."""
    state = tmp_path / "state"
    _init_ledger(runner, state)
    _to_earlier_layout(state, layout)
    before = _state_files(state)
    for args in (["keys", "generate"], ["ledger", "verify"]):
        assert _refused(runner, state, *args) == "corrupted-state"
    assert _state_files(state) == before


def test_a_context_stored_under_another_id_is_no_alias(runner, tmp_path):
    """A commit that stores context A's unit under a new id X does not give X
    its own replay state over A's key: X is refused, and A still works."""
    state = tmp_path / "state"
    context = _init_ledger(runner, state)["entries"][0]["h2_hex"]
    key_id = json.loads(invoke(runner, state, "keys", "generate").output)["key_id"]
    share_file = tmp_path / "cloud.json"
    r = invoke(runner, state, "keys", "split", key_id, "--device", "alpha",
               "--order", "16", "-o", str(share_file))
    assert r.exit_code == 0, r.output
    alias = "ab" * 32
    with AppState(state, "json").session() as (zone, _):
        zone._contexts[bytes.fromhex(alias)] = zone._contexts[bytes.fromhex(context)]
    assert ("c", bytes.fromhex(alias)) in stored_rows(state)

    def authorize(ctx):
        """Authorize on ``ctx``: refused untouched for the alias, accepted for A."""
        before = _state_files(state)
        r = invoke(runner, state, "keys", "authorize", "--context", ctx,
                   "--share", str(share_file))
        if ctx == alias:
            assert r.exit_code == 1, r.output
            assert json.loads(r.output.strip().splitlines()[-1])["error"]["code"] == \
                "corrupted-state"
            assert _state_files(state) == before
        else:
            assert r.exit_code == 0, r.output

    authorize(alias)
    authorize(context)
    authorize(alias)


def test_a_compaction_that_fails_to_write_leaves_the_state_file_as_it_was(
        runner, tmp_path, monkeypatch):
    """The state written whole, as a new dir's first command writes it,
    fails part way: the temporary database is removed and no ``zone.db`` is
    linked in, so the dir holds no state, as before the command."""
    state = tmp_path / "state"
    state.mkdir()
    real = statefile.dumps

    def dumps(value):
        if isinstance(value, dict) and "h" in value:  # the header, the last row written
            raise OSError(28, "No space left on device")
        return real(value)

    monkeypatch.setattr(statefile, "dumps", dumps)
    r = runner.invoke(main, ["--state-dir", str(state), "keys", "generate"])
    monkeypatch.undo()
    assert isinstance(r.exception, OSError)
    assert _state_files(state) == {}  # no temporary database, and no zone.db
    r = invoke(runner, state, "keys", "generate")
    assert r.exit_code == 0, r.output
    assert os.listdir(state) == ["zone.db"]


def test_a_commit_that_fails_to_write_leaves_the_state_file_as_it_was(
        runner, tmp_path, monkeypatch):
    """The commit fails after it has written some of its rows: the
    transaction rolls back."""
    state = tmp_path / "state"
    _init_ledger(runner, state)
    before = _state_files(state)
    real = statefile.dumps

    def dumps(value):
        if isinstance(value, dict) and "h" in value:  # the header, the last row written
            raise OSError(28, "No space left on device")
        return real(value)

    monkeypatch.setattr(statefile, "dumps", dumps)
    r = runner.invoke(main, ["--state-dir", str(state), "keys", "generate"])
    monkeypatch.undo()
    assert isinstance(r.exception, OSError)
    assert _state_files(state) == before  # no journal, and zone.db unchanged


def test_a_zone_not_loaded_from_the_dir_is_saved_only_into_a_new_one(runner, tmp_path):
    """Such a zone becomes the whole state of a new dir, with seq 0 and 32
    zero bytes as its h; a dir that holds state refuses it and is left as it is."""
    tsa = TimestampAuthority(issuer="edgevault-tsa")
    zone = SecureZone(0, tsa)
    fresh = tmp_path / "fresh"
    AppState(fresh, "json").save_zone(zone, tsa)
    assert os.listdir(fresh) == ["zone.db"]
    header = stored_header(fresh)
    assert (header["h"], header["seq"]) == ("00" * 32, 0)
    assert _document(fresh)["zone"] == zone.state_dict()

    state = tmp_path / "state"
    _init_ledger(runner, state)
    app = AppState(state, "json")
    app.load_zone()
    before = _state_files(state)
    with pytest.raises(StateError):
        app.save_zone(zone, tsa)
    assert _state_files(state) == before
