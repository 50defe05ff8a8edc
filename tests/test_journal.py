"""The CLI state dir as one hash-chained journal whose record 0 is the whole state.

``test_crash_at_any_effect_leaves_the_state_before_or_after`` is the
crash-point enumeration of Pillai et al. (OSDI 2014): it runs one mutating
command with every file call the state dir makes recorded (tmp write,
``os.replace``, truncate, append, and any unlink), then rebuilds the dir at
each prefix of those effects, and at each byte of each append, and loads it.  ``test_reload_equals_the_state_the_command_left`` drives all five
mutating commands from a hypothesis state machine and compares every reload
with the state the command had in memory when it saved.
"""

import json
import os
import pathlib
import shutil
import tempfile
import time

import pytest
from click.testing import CliRunner
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from edgevault import cli
from edgevault.cli import AppState, main
from edgevault.crypto import sha256


def _invoke(state, *args):
    return CliRunner().invoke(main, ["--state-dir", str(state), *map(str, args)],
                              catch_exceptions=False)


def _run(state, *args):
    r = _invoke(state, *args)
    assert r.exit_code == 0, r.output
    return r


def _state_of(zone, tsa):
    """The whole state as record 0's three sections."""
    return {"tsa": tsa.state_dict(), "zone": zone.state_dict(),
            "ledger": zone.ledger.state_dict() if zone.ledger is not None else None}


def _load(state):
    return _state_of(*AppState(state, "json").load_zone())


def _files(state):
    return {p.name: p.read_bytes() for p in state.iterdir()}


def _capture_saves(monkeypatch):
    """The state each ``save_zone`` is asked to commit, in order."""
    saved = []
    real = AppState.save_zone

    def save_zone(self, zone, tsa):
        saved.append(_state_of(zone, tsa))
        real(self, zone, tsa)

    monkeypatch.setattr(AppState, "save_zone", save_zone)
    return saved


# --- crash points -----------------------------------------------------------------


class _Recorder:
    """Records the file effects made in one directory and lets them happen.

    The lock is not state: its effects are left out.
    """

    def __init__(self, root: pathlib.Path, monkeypatch):
        self.effects = []
        fds = {}
        real = {name: getattr(os, name) for name in ("open", "write", "close", "replace",
                                                     "truncate")}
        real_unlink = pathlib.Path.unlink

        def name_of(path):
            path = pathlib.Path(path)
            if path.parent == root and not path.name.startswith(".lock"):
                return path.name
            return None

        def open_(path, flags, *args, **kwargs):
            fd = real["open"](path, flags, *args, **kwargs)
            if name_of(path) is not None:
                fds[fd] = name_of(path)
                self.effects.append(("open", fds[fd], flags))
            return fd

        def write(fd, data):
            written = real["write"](fd, data)
            if fd in fds:
                self.effects.append(("write", fds[fd], bytes(data[:written])))
            return written

        def close(fd):
            fds.pop(fd, None)
            real["close"](fd)

        def replace(src, dst):
            real["replace"](src, dst)
            if name_of(dst) is not None:
                self.effects.append(("replace", name_of(src), name_of(dst)))

        def truncate(path, length):
            real["truncate"](path, length)
            if name_of(path) is not None:
                self.effects.append(("truncate", name_of(path), length))

        def unlink(path, missing_ok=False):
            real_unlink(path, missing_ok=missing_ok)
            if name_of(path) is not None:
                self.effects.append(("unlink", name_of(path)))

        for name, fake in (("open", open_), ("write", write), ("close", close),
                           ("replace", replace), ("truncate", truncate)):
            monkeypatch.setattr(os, name, fake)
        monkeypatch.setattr(pathlib.Path, "unlink", unlink)


def _crash_states(files: dict, effects: list):
    """The dir's files at every point a crash can stop ``effects``: after
    each whole effect, after every byte of a journal append, and after a few
    bytes of any other write."""
    files, appending = dict(files), set()
    yield dict(files)
    for kind, name, *arg in effects:
        if kind == "open":
            if arg[0] & os.O_TRUNC or name not in files:
                files[name] = b""
            if arg[0] & os.O_APPEND:
                appending.add(name)
        elif kind == "write":
            data = arg[0]
            cuts = range(1, len(data)) if name in appending else {1, len(data) // 2}
            for cut in cuts:
                yield {**files, name: files[name] + data[:cut]}
            files[name] += data
        elif kind == "replace":
            files[arg[0]] = files.pop(name)
        elif kind == "unlink":
            files.pop(name, None)
        elif kind == "truncate":
            files[name] = files[name][:arg[0]]
        yield dict(files)


def _materialize(root: pathlib.Path, files: dict):
    if root.exists():
        shutil.rmtree(root)
    root.mkdir()
    for name, data in files.items():
        (root / name).write_bytes(data)


def _check_crash_state(state, before, after):
    """What a crash may leave: load it, and it is the state before or after
    the command, with no counter behind a used value, every key handed out,
    and a ledger that matches the audit."""
    loaded = _load(state)  # any exception fails the test
    assert loaded in (before, after)
    counters = {kid: k["nonce_counter"] for kid, k in loaded["zone"]["keys"].items()}
    assert before["zone"]["keys"].keys() <= counters.keys()
    for kid, key in before["zone"]["keys"].items():
        assert counters[kid] >= key["nonce_counter"]
    entries = loaded["ledger"]["entries"] if loaded["ledger"] is not None else []
    held = [k["created_at"]["sequence"] for k in loaded["zone"]["keys"].values()]
    held += [c["last_seen"]["sequence"] for c in loaded["zone"]["contexts"].values()
             if c["last_seen"] is not None]
    held += [e["sequence"] for e in entries]
    assert loaded["tsa"]["sequence"] >= max(before["tsa"]["sequence"], *held)
    registered = [e["context_id_hex"] for e in loaded["zone"]["audit"]
                  if e["op"] == "register_device"]
    assert registered == [e["h2_hex"] for e in entries]


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """Two state dirs: ``bare`` with one key and no ledger, and ``full`` with
    two registered devices, one split key used once and one key not split."""
    root = tmp_path_factory.mktemp("bases")
    bare, full = root / "bare", root / "full"
    _run(bare, "keys", "generate")
    _run(full, "ledger", "init", "--group", "g", "--preset", "tiny")
    _run(full, "ledger", "register", "alpha", "--seed", 10)
    _run(full, "ledger", "register", "beta", "--seed", 11)
    used = json.loads(_run(full, "keys", "generate", "--seed", 1).output)["key_id"]
    share = root / "alpha.json"
    _run(full, "keys", "split", used, "--device", "alpha", "--order", 16, "-o", share)
    alpha = _load(full)["ledger"]["entries"][0]["h2_hex"]
    _run(full, "keys", "authorize", "--context", alpha, "--share", share)
    fresh = json.loads(_run(full, "keys", "generate", "--seed", 2).output)["key_id"]
    return {
        "ledger-init": (bare, ["ledger", "init", "--group", "g", "--preset", "tiny"]),
        "ledger-register": (full, ["ledger", "register", "gamma", "--seed", 12]),
        "keys-generate": (full, ["keys", "generate", "--seed", 3]),
        "keys-split": (full, ["keys", "split", fresh, "--device", "beta", "--order", 16,
                              "-o", root / "beta.json"]),
        "keys-authorize": (full, ["keys", "authorize", "--context", alpha, "--share", share]),
    }


@pytest.mark.parametrize("mode", ["journal", "torn-tail", "compaction"])
@pytest.mark.parametrize("command", ["ledger-init", "ledger-register", "keys-generate",
                                     "keys-split", "keys-authorize"])
def test_crash_at_any_effect_leaves_the_state_before_or_after(
        bases, tmp_path, monkeypatch, command, mode):
    base, args = bases[command]
    state = tmp_path / "state"
    shutil.copytree(base, state)
    if mode == "torn-tail":
        with open(state / "zone.json", "ab") as journal:
            journal.write(b'{"h":"00')
    elif mode == "compaction":
        monkeypatch.setattr(cli, "COMPACT_BYTES", 0)
    before_files, before = _files(state), _load(state)

    saved = _capture_saves(monkeypatch)
    recorder = _Recorder(state, monkeypatch)
    _run(state, *args)
    monkeypatch.undo()

    after, = saved
    assert _load(state) == after != before
    kinds = {kind for kind, *_ in recorder.effects}
    assert kinds == {"journal": {"open", "write"},
                     "torn-tail": {"truncate", "open", "write"},
                     "compaction": {"open", "write", "replace"}}[mode]
    crash = tmp_path / "crash"
    for files in _crash_states(before_files, recorder.effects):
        _materialize(crash, files)
        _check_crash_state(crash, before, after)
    assert files == _files(state)  # the last crash state is the dir the command left


# --- torn tails and tampering --------------------------------------------------------


@pytest.fixture
def journaled(tmp_path):
    """A state dir that holds three records after record 0."""
    state = tmp_path / "state"
    _run(state, "ledger", "init", "--group", "g", "--preset", "tiny")
    for seed in (1, 2, 3):
        _run(state, "keys", "generate", "--seed", seed)
    assert len((state / "zone.json").read_bytes().splitlines()) == 4
    return state


@pytest.mark.parametrize("fragment", [b'{"h":"12', b"\xff\xfe", None],
                         ids=["prefix", "not-utf8", "whole-line-without-newline"])
def test_torn_final_line_is_dropped_and_cut_off_by_the_next_commit(journaled, fragment):
    journal = journaled / "zone.json"
    whole = journal.read_bytes()
    if fragment is None:
        # the next commit's line, lacking only its newline, is still torn
        ahead = journaled.parent / "ahead"
        shutil.copytree(journaled, ahead)
        _run(ahead, "keys", "generate", "--seed", 5)
        fragment = (ahead / "zone.json").read_bytes()[len(whole):-1]
    before = _load(journaled)
    journal.write_bytes(whole + fragment)
    assert _load(journaled) == before

    _run(journaled, "keys", "generate", "--seed", 4)
    lines = journal.read_bytes().split(b"\n")
    assert journal.read_bytes().startswith(whole) and len(lines) == 6 and lines[-1] == b""
    assert fragment not in lines
    assert _load(journaled) != before


def _flip_h(line):
    return line[:6] + (b"0" if line[6:7] != b"0" else b"1") + line[7:]


def _edit_body(line):
    assert b'"uses":0' in line
    return line.replace(b'"uses":0', b'"uses":9', 1)


@pytest.mark.parametrize("edit,index", [(_flip_h, 2), (_flip_h, 3), (_edit_body, 1)],
                         ids=["middle-record-h", "last-whole-record-h", "first-record-body"])
def test_bad_h_is_state_error_naming_the_first_bad_record(journaled, edit, index):
    """Records count from record 0, the whole state, whose h is taken as given."""
    journal = journaled / "zone.json"
    lines = journal.read_bytes().split(b"\n")
    lines[index] = edit(lines[index])
    journal.write_bytes(b"\n".join(lines))
    before = _files(journaled)

    for args in (("keys", "generate"), ("ledger", "verify")):
        r = _invoke(journaled, *args)
        assert r.exit_code == 1, r.output
        err = json.loads(r.output.strip().splitlines()[-1])["error"]
        assert err["code"] == "corrupted-state"
        assert f"journal record {index} " in err["message"]
    assert _files(journaled) == before


def test_a_record_that_changes_a_missing_ledger_is_state_error(tmp_path):
    """A record with a recomputed h still cannot change a ledger that the
    state lacks; a dir with no ``ledger init`` has none."""
    state = tmp_path / "state"
    for seed in (1, 2):
        _run(state, "keys", "generate", "--seed", seed)
    journal = state / "zone.json"
    first, line = journal.read_bytes().splitlines()
    record = json.loads(line)["r"]
    assert record["ledger"] is None
    body = json.dumps({**record, "ledger": {}}).encode()
    h = sha256(bytes.fromhex(json.loads(first)["h"]) + body)
    journal.write_bytes(first + b"\n" + cli._line(h, body))
    before = _files(state)

    r = _invoke(state, "keys", "generate")
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "corrupted-state"
    assert "a journal record changes a ledger that does not exist" in err["message"]
    assert _files(state) == before


def test_a_record_whose_ledger_entries_are_not_a_list_is_state_error(journaled):
    """The last record, re-chained, adds its ledger entries as a mapping."""
    journal = journaled / "zone.json"
    *head, line = journal.read_bytes().splitlines()
    body = json.dumps({**json.loads(line)["r"], "ledger": {"entries": {}}}).encode()
    h = sha256(bytes.fromhex(json.loads(head[-1])["h"]) + body)
    journal.write_bytes(b"\n".join(head) + b"\n" + cli._line(h, body))
    before = _files(journaled)

    for args in (("keys", "generate"), ("ledger", "verify")):
        r = _invoke(journaled, *args)
        assert r.exit_code == 1, r.output
        err = json.loads(r.output.strip().splitlines()[-1])["error"]
        assert err["code"] == "corrupted-state"
        assert "entries must be a list" in err["message"]
    assert _files(journaled) == before


def _refused_as_malformed(state, index):
    """The next command refuses the dir, naming journal record ``index``, and
    leaves every file as it was."""
    before = _files(state)
    r = _invoke(state, "keys", "generate")
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "corrupted-state"
    assert f"malformed journal record {index}" in err["message"]
    assert _files(state) == before


def test_a_whole_line_that_is_not_a_journal_record_is_state_error(journaled):
    """Record 0, the whole state, under another key than "r"."""
    journal = journaled / "zone.json"
    data = journal.read_bytes()
    mid = len(cli._LINE_HEAD) + 64
    assert data[mid:mid + len(cli._LINE_MID)] == cli._LINE_MID == b'","r":'
    journal.write_bytes(data[:mid] + b'","x":' + data[mid + len(cli._LINE_MID):])
    _refused_as_malformed(journaled, 0)


@pytest.mark.parametrize("index,seq", [(1, True), (2, "2")], ids=["bool", "string"])
def test_a_record_whose_seq_is_not_an_int_is_state_error(journaled, index, seq):
    """The record's h is recomputed, so only the type of its seq is wrong;
    ``True`` even equals the seq that record 1 must carry."""
    journal = journaled / "zone.json"
    lines = journal.read_bytes().splitlines()
    prev_h = bytes.fromhex(json.loads(lines[index - 1])["h"])
    record = json.loads(lines[index])["r"]
    assert record["seq"] == index
    body = json.dumps({**record, "seq": seq}).encode()
    lines[index] = cli._line(sha256(prev_h + body), body)[:-1]
    journal.write_bytes(b"\n".join(lines) + b"\n")
    _refused_as_malformed(journaled, index)


def test_a_record_whose_seq_is_not_one_more_than_the_last_is_state_error(journaled):
    """Record 2 carries record 3's seq; its h is recomputed, so only the
    seq breaks the chain."""
    journal = journaled / "zone.json"
    lines = journal.read_bytes().splitlines()
    body = json.dumps({**json.loads(lines[2])["r"], "seq": 3}).encode()
    lines[2] = cli._line(sha256(bytes.fromhex(json.loads(lines[1])["h"]) + body), body)[:-1]
    journal.write_bytes(b"\n".join(lines) + b"\n")
    before = _files(journaled)
    r = _invoke(journaled, "keys", "generate")
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "corrupted-state" and "journal record 2 " in err["message"]
    assert _files(journaled) == before


@pytest.mark.parametrize("cut", ["empty", "torn-record-0"])
def test_a_file_with_no_whole_record_is_state_error(journaled, cut):
    """A compaction renames a whole file into place, so no crash leaves
    this; it is not a new dir, and the next command leaves it as it is."""
    journal = journaled / "zone.json"
    journal.write_bytes(b"" if cut == "empty" else journal.read_bytes().split(b"\n")[0])
    before = _files(journaled)
    for args in (("keys", "generate"), ("ledger", "verify")):
        r = _invoke(journaled, *args)
        assert r.exit_code == 1, r.output
        err = json.loads(r.output.strip().splitlines()[-1])["error"]
        assert err["code"] == "corrupted-state" and "holds no whole record" in err["message"]
    assert _files(journaled) == before


def test_a_record_0_that_is_not_a_whole_state_is_state_error(journaled):
    """The file with its record 0 cut off: record 1 holds only what its
    command changed, so it cannot stand as the state."""
    journal = journaled / "zone.json"
    journal.write_bytes(journal.read_bytes().split(b"\n", 1)[1])
    before = _files(journaled)
    r = _invoke(journaled, "keys", "generate")
    assert r.exit_code == 1, r.output
    err = json.loads(r.output.strip().splitlines()[-1])["error"]
    assert err["code"] == "corrupted-state" and "corrupted zone state" in err["message"]
    assert _files(journaled) == before


def test_compaction_folds_the_journal_into_the_snapshot(journaled, monkeypatch):
    """The new record 0 carries the seq and h that the same command's
    record has as an append: the chain runs on through it."""
    monkeypatch.setattr(time, "time", lambda: 4_000_000_000.0)  # the TSA's clock
    appended = journaled.parent / "appended"
    shutil.copytree(journaled, appended)
    _run(appended, "keys", "generate", "--seed", 9)
    before = _load(journaled)
    monkeypatch.setattr(cli, "COMPACT_BYTES", 0)
    _run(journaled, "keys", "generate", "--seed", 9)
    assert os.listdir(journaled) == ["zone.json"]
    (line,) = (journaled / "zone.json").read_bytes().splitlines()
    record0 = json.loads(line)
    last = json.loads((appended / "zone.json").read_bytes().splitlines()[-1])
    assert (record0["h"], record0["r"]["seq"]) == (last["h"], last["r"]["seq"]) == (last["h"], 4)
    assert _load(journaled) == _load(appended) != before


def test_only_the_lines_after_record_0_count_toward_a_compaction(journaled, monkeypatch):
    """Record 0's own bytes do not count: with room for one more line after
    it, the next command appends and the one after compacts."""
    journal = journaled / "zone.json"
    data = journal.read_bytes()
    record0 = data.index(b"\n") + 1
    line = max(map(len, data[record0:].splitlines(keepends=True)))
    monkeypatch.setattr(cli, "COMPACT_BYTES", len(data) - record0 + line + line // 2)
    _run(journaled, "keys", "generate", "--seed", 4)
    assert journal.read_bytes().startswith(data) and journal.read_bytes().count(b"\n") == 5
    _run(journaled, "keys", "generate", "--seed", 5)
    assert journal.read_bytes().count(b"\n") == 1


def test_read_only_ledger_commands_decode_no_zone(journaled, monkeypatch):
    _run(journaled, "ledger", "register", "alpha", "--seed", 10)

    def no_zone(*args, **kwargs):
        raise AssertionError("a read-only ledger command decoded the zone")

    monkeypatch.setattr(cli.SecureZone, "lazy_from_state_dict", no_zone)
    monkeypatch.setattr(cli.TimestampAuthority, "from_state_dict", no_zone)
    for args in (("ledger", "verify"), ("ledger", "export"),
                 ("ledger", "sync", "-o", journaled.parent / "snap"),
                 ("filter", "build", "--from-ledger", "-o", journaled.parent / "f.bin")):
        _run(journaled, *args)
    assert "alpha" in _run(journaled, "ledger", "export").output


def _last_record(state):
    return json.loads((state / "zone.json").read_bytes().splitlines()[-1])


def test_a_command_that_only_reads_the_ledger_journals_no_ledger_change(journaled):
    _run(journaled, "ledger", "register", "alpha", "--seed", 10)
    assert len(_last_record(journaled)["r"]["ledger"]["entries"]) == 1
    key_id = json.loads(_run(journaled, "keys", "generate", "--seed", 4).output)["key_id"]
    assert _last_record(journaled)["r"]["ledger"] == {}
    # the split looks the device up, which decodes the ledger's entries
    _run(journaled, "keys", "split", key_id, "--device", "alpha", "--order", 16,
         "-o", journaled.parent / "alpha.json")
    assert _last_record(journaled)["r"]["ledger"] == {}


def test_reading_the_state_before_a_save_leaves_its_record_unchanged(journaled, monkeypatch):
    """``_capture_saves`` calls ``state_dict()`` on the zone and the ledger
    before each save; the record saved must not see it."""
    monkeypatch.setattr(time, "time", lambda: 4_000_000_000.0)  # the TSA's clock
    _run(journaled, "ledger", "register", "alpha", "--seed", 10)
    read = journaled.parent / "read"
    shutil.copytree(journaled, read)
    _run(journaled, "keys", "generate", "--seed", 4)
    saved = _capture_saves(monkeypatch)
    _run(read, "keys", "generate", "--seed", 4)
    assert len(saved) == 1
    assert _files(read) == _files(journaled)


# --- the model: every reload equals the state the command left --------------------------


class JournalMachine(RuleBasedStateMachine):
    """Mutating commands against one state dir; after each, a reload must
    equal the state the command had in memory when it saved."""

    def __init__(self):
        super().__init__()
        self.patch = pytest.MonkeyPatch()
        self.saved = _capture_saves(self.patch)
        self.root = pathlib.Path(tempfile.mkdtemp(prefix="journal-machine-"))
        self.state = self.root / "state"
        self.devices, self.keys, self.shares = [], [], {}
        self.timestamp = None

    def teardown(self):
        self.patch.undo()
        shutil.rmtree(self.root, ignore_errors=True)

    def _command(self, *args, code=0):
        del self.saved[:]
        r = _invoke(self.state, *args)
        assert r.exit_code == code, r.output
        return r

    # a ledger, a device and a split key from the start: most rules can then
    # run from the first step, so few rule draws are filtered
    @initialize(compact=st.sampled_from([0, 2048, 1 << 30]),
                register_seed=st.integers(0, 1000), key_seed=st.integers(0, 1000))
    def init_state(self, compact, register_seed, key_seed):
        self.patch.setattr(cli, "COMPACT_BYTES", compact)
        self._command("ledger", "init", "--group", "g", "--preset", "tiny")
        self.ledger_register(register_seed)
        self.keys_generate(key_seed)
        self.keys_split()

    # the tiny curve has few points: a larger group can run out of fresh ones
    @precondition(lambda self: len(self.devices) < 4)
    @rule(seed=st.integers(0, 1000))
    def ledger_register(self, seed):
        label = f"d{len(self.devices)}"
        self._command("ledger", "register", label, "--seed", seed)
        self.devices.append(label)

    @precondition(lambda self: len(self.keys) < 2)
    @rule(seed=st.integers(0, 1000))
    def keys_generate(self, seed):
        r = self._command("keys", "generate", "--seed", seed)
        self.keys.append(json.loads(r.output)["key_id"])

    @precondition(lambda self: self.keys and any(d not in self.shares for d in self.devices))
    @rule()
    def keys_split(self):
        device = next(d for d in self.devices if d not in self.shares)
        share = self.root / f"{device}.json"
        self._command("keys", "split", self.keys.pop(), "--device", device, "--order", 16,
                      "-o", share)
        self.shares[device] = share

    def _authorize(self, device, share, *extra, code):
        context = next(e["h2_hex"] for e in _load(self.state)["ledger"]["entries"]
                       if e["device_label"] == device)
        return self._command("keys", "authorize", "--context", context, "--share", share,
                             *extra, code=code)

    @precondition(lambda self: self.shares)
    @rule(data=st.data())
    def keys_authorize_honest(self, data):
        device = data.draw(st.sampled_from(sorted(self.shares)))
        timestamp = self.root / "ts.json"
        self._authorize(device, self.shares[device], "--save-timestamp", timestamp, code=0)
        self.timestamp = (device, timestamp)

    @precondition(lambda self: self.timestamp)
    @rule()
    def keys_authorize_replayed(self):
        device, timestamp = self.timestamp
        r = self._authorize(device, self.shares[device], "--timestamp", timestamp,
                            code=cli.EXIT_REJECTED)
        assert json.loads(r.stdout)["reason"] == "replay"

    @precondition(lambda self: self.shares)
    @rule(data=st.data())
    def keys_authorize_forged(self, data):
        device = data.draw(st.sampled_from(sorted(self.shares)))
        share = json.loads(self.shares[device].read_bytes())
        cut = data.draw(st.integers(0, len(share["ciphertext"]) - 1))
        share["ciphertext"] = share["ciphertext"][:cut] + (
            "0" if share["ciphertext"][cut] != "0" else "1") + share["ciphertext"][cut + 1:]
        forged = self.root / "forged.json"
        forged.write_text(json.dumps(share))
        r = self._authorize(device, forged, code=cli.EXIT_REJECTED)
        assert json.loads(r.stdout)["reason"] == "decrypt-failure"

    @invariant()
    def reload_equals_the_saved_state(self):
        if self.saved:
            saved, = self.saved
            assert _load(self.state) == saved


JournalMachine.TestCase.settings = settings(max_examples=20, stateful_step_count=25,
                                            deadline=None)
test_reload_equals_the_state_the_command_left = JournalMachine.TestCase
