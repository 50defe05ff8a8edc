"""The CLI state dir's store, ``zone.db``, through the commands: what a
commit writes and logs, what a command reads, what a crash inside a commit
leaves, and the refusal of each edit an editor can make to the file, which
leaves the dir as it was.

``test_crash_at_any_effect_leaves_the_state_before_or_after`` is the
crash-point enumeration of Pillai et al. (OSDI 2014) carried into SQLite,
where no Python call sees a file effect: it runs one mutating command in a
forked child again and again, killing it as each of its writing SQL
statements starts, and, with ``RLIMIT_FSIZE``, at its first write at or past
each 4 KiB offset of any file: the rollback journal cut at each such length,
and the commit's pages cut at each such offset past the journal's end.  A
last point has every page written and only the journal's deletion, which is
the commit, not done.  After each, it loads the dir.  A killed process's
writes all reach the file, so this covers no power loss.
``test_reload_equals_the_state_the_command_left`` drives all five mutating
commands from a hypothesis state machine and compares every reload with the
state the command had in memory when it saved.

Several tests keep the names they had when the state was a JSON Lines
journal: "record 0", the line that held the whole state, is now the
header row and the unit rows; "a later line" or "record" a later commit
and its log row; a "compacted" dir one written whole, with no log row; and
a "torn tail" what a killed writer leaves beside ``zone.db``, its rollback
journal.
"""

import contextlib
import ctypes
import json
import os
import pathlib
import resource
import shutil
import signal
import sqlite3
import tempfile
import time

import pytest
from click.testing import CliRunner
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from edgevault import cli, statefile
from edgevault.cli import AppState, main
from edgevault.crypto import TimestampAuthority, sha256
from edgevault.curves import tiny_curve
from edgevault.errors import StateError
from edgevault.securezone import SecureZone

from mutation import built_dir, edit_row, stored_header, stored_rows


def _invoke(state, *args):
    return CliRunner().invoke(main, ["--state-dir", str(state), *map(str, args)],
                              catch_exceptions=False)


def _run(state, *args):
    r = _invoke(state, *args)
    assert r.exit_code == 0, r.output
    return r


def _state_of(zone, tsa):
    """The whole state as its three sections."""
    return {"tsa": tsa.state_dict(), "zone": zone.state_dict(),
            "ledger": zone.ledger.state_dict() if zone.ledger is not None else None}


def _load(state):
    return _state_of(*AppState(state, "json").load_zone())


def _files(state):
    return {p.name: p.read_bytes() if p.is_file() else None for p in state.iterdir()}


def _capture_saves(monkeypatch):
    """The state each ``save_zone`` is asked to commit, in order."""
    saved = []
    real = AppState.save_zone

    def save_zone(self, zone, tsa):
        saved.append(_state_of(zone, tsa))
        real(self, zone, tsa)

    monkeypatch.setattr(AppState, "save_zone", save_zone)
    return saved


def _log(state):
    """Every log row of the dir: (seq, h, record)."""
    with contextlib.closing(sqlite3.connect(state / "zone.db")) as db:
        return db.execute("SELECT seq, h, record FROM log ORDER BY seq").fetchall()


def _refused(state, message, commands=(("keys", "generate"), ("ledger", "verify"))):
    """Each command refuses the dir with ``message`` in a corrupted-state
    error, and leaves every file as it was."""
    before = _files(state)
    for args in commands:
        r = _invoke(state, *args)
        assert r.exit_code == 1, r.output
        err = json.loads(r.output.strip().splitlines()[-1])["error"]
        assert err["code"] == "corrupted-state"
        assert message in err["message"], err["message"]
        assert _files(state) == before


@pytest.fixture
def journaled(tmp_path):
    """A state dir that holds three commits after the one that made it."""
    state = tmp_path / "state"
    _run(state, "ledger", "init", "--group", "g", "--preset", "tiny")
    for seed in (1, 2, 3):
        _run(state, "keys", "generate", "--seed", seed)
    assert len(_log(state)) == 3
    return state


# --- crash points -----------------------------------------------------------------

#: the offsets at which a child dies at its first write at or past one
_OFFSET_STEP = 4096


def _forked(state, args, *, statement=None, limit=None, keep=None):
    """Run one command on ``state`` in a forked child, killed with SIGKILL
    as its ``statement``-th writing SQL statement starts, or with SIGXFSZ at
    its first write at or past offset ``limit`` of any file.  With ``keep``,
    the journal and the database as its COMMIT starts are copied there and
    to ``keep.db``.  Return the state its ``save_zone`` was asked to
    commit (None if it got no further), its count of writing statements
    (None if it was killed), and whether it was killed."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns to the test
        try:
            os.close(read)
            out = os.fdopen(write, "w")
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1), os.dup2(null, 2)
            ctypes.CDLL(None).prctl(4, 0, 0, 0, 0)  # PR_SET_DUMPABLE 0: no core file
            signal.signal(signal.SIGXFSZ, signal.SIG_DFL)  # Python ignores it
            real_save, real_connect, writes = AppState.save_zone, statefile.StateDir._connect, []

            def save_zone(self, zone, tsa):
                out.write(json.dumps(_state_of(zone, tsa)) + "\n")
                out.flush()
                real_save(self, zone, tsa)

            def trace(sql):
                if sql.split(None, 1)[0] in ("SELECT", "PRAGMA", "BEGIN"):
                    return
                if len(writes) == statement:
                    os.kill(os.getpid(), signal.SIGKILL)
                writes.append(sql)
                if sql == "COMMIT" and keep is not None:
                    shutil.copyfile(state / "zone.db-journal", keep)
                    shutil.copyfile(state / "zone.db", f"{keep}.db")

            def connect(path, mode, **kwargs):
                db = real_connect(path, mode, **kwargs)
                db.set_trace_callback(trace)
                return db

            AppState.save_zone, statefile.StateDir._connect = save_zone, staticmethod(connect)
            if limit is not None:
                resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.RLIM_INFINITY))
            r = _invoke(state, *args)
            out.write(json.dumps({"exit": r.exit_code, "writes": len(writes)}) + "\n")
            out.flush()
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        lines = [json.loads(line) for line in pipe]
    _, status = os.waitpid(pid, 0)
    saved = lines[0] if lines and "exit" not in lines[0] else None
    done = lines[-1] if lines and "exit" in lines[-1] else None
    if done is not None:
        assert done["exit"] == 0, done
    return saved, done and done["writes"], os.WIFSIGNALED(status)


def _unfinished(state, args, kept):
    """Run the command to its end, then put back its journal: every page
    written, and the journal, whose deletion is the commit, not yet deleted.
    The journal as the COMMIT started holds every page the commit writes but
    page 1 if SQLite had not journaled it yet; that record is added."""
    _, _, killed = _forked(state, args, keep=kept)
    assert not killed
    data = kept.read_bytes()
    # a header (magic, record count, checksum nonce, page count, sector and
    # page size), padded to 512 bytes; then (page number, page, checksum) records
    assert data[8:12] == b"\xff" * 4  # no count: the records run to the file's end
    size = int.from_bytes(data[24:28], "big")
    if 1 not in {int.from_bytes(data[at:at + 4], "big") for at in range(512, len(data), size + 8)}:
        page = pathlib.Path(f"{kept}.db").read_bytes()[:size]
        checksum = int.from_bytes(data[12:16], "big") + sum(page[size - 200:0:-200])
        data += (1).to_bytes(4, "big") + page + (checksum % (1 << 32)).to_bytes(4, "big")
    (state / "zone.db-journal").write_bytes(data)


def _crash_points(state, files, args):
    """Each crash the enumeration makes: rebuild ``state`` from ``files``,
    run the command in a child killed at the next point, and yield what the
    child asked to commit, whether it was killed, and the files it left,
    with the dir left for the caller to load.  The last point is the
    command run to its end."""
    def run(**kill):
        _materialize(state, files)
        saved, writes, killed = _forked(state, args, **kill)
        return saved, writes, killed, _files(state)

    *_, writes, killed, _ = run()
    assert not killed and writes
    for statement in range(writes):
        yield run(statement=statement)
    limit = 0
    while (point := run(limit=limit))[2]:  # till the command runs to its end
        yield point
        limit += _OFFSET_STEP
    _materialize(state, files)
    _unfinished(state, args, state.parent / "kept-journal")
    yield None, None, True, _files(state)  # not committed: the load rolls it back
    yield run()


def _materialize(root: pathlib.Path, files: dict):
    if root.exists():
        shutil.rmtree(root)
    root.mkdir()
    for name, data in files.items():
        (root / name).write_bytes(data)


def _check_crash_state(state, before, after):
    """What a crash may leave: load it, and it is the state before or after
    the command, with no counter behind a used value, every key handed out,
    and a ledger that matches the audit; and the log ends at the header's
    tip, so the next commit's row follows it."""
    loaded = _load(state)  # any exception fails the test
    assert loaded in (before, after)
    header, log = stored_header(state), _log(state)
    assert (header["seq"], header["h"]) == ((log[-1][0], log[-1][1].hex()) if log
                                            else (0, "00" * 32))
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


def _written_whole(state, root):
    """A new dir ``root`` holding ``state``'s state written whole, with no
    log row, as ``save_zone`` outside a session writes a template."""
    AppState(root, "json").save_zone(*AppState(state, "json").load_zone())
    return root


def _torn(state, root):
    """A copy ``root`` of ``state`` with the torn tail a writer killed part
    way through its commit leaves: its rollback journal, and a database
    some of whose pages the commit had written."""
    files = _files(state)
    for limit in range(0, len(files["zone.db"]), _OFFSET_STEP):
        _materialize(root, files)
        _, _, killed = _forked(root, ["keys", "generate", "--seed", 7], limit=limit)
        assert killed
        if (root / "zone.db-journal").exists() and (root / "zone.db").read_bytes() != (
                files["zone.db"]):
            return root
    raise AssertionError("no limit tore the database")


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """Two state dirs: ``bare`` with keys and no ledger, and ``full`` with
    two registered devices, one split key used once and one key not split.
    Each holds 30 keys more, so its database is larger than a commit's
    journal, and a write past the journal's end can cut the commit's run
    of pages."""
    root = tmp_path_factory.mktemp("bases")
    bare, full = root / "bare", root / "full"
    for seed in range(100, 130):
        _run(bare, "keys", "generate", "--seed", seed)
        _run(full, "keys", "generate", "--seed", seed)
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
def test_crash_at_any_effect_leaves_the_state_before_or_after(bases, tmp_path, command, mode):
    """"journal": the dir its commands left, a log row each; "torn-tail":
    that dir with a killed writer's journal and torn pages, which the
    command first rolls back; "compaction": its state written whole into a
    new dir.  A crash point's dir is loaded as the next command would find
    it, and no crash loses a commit or leaves a third state."""
    base, args = bases[command]
    state = tmp_path / "state"
    if mode == "journal":
        shutil.copytree(base, state)
    elif mode == "compaction":
        _written_whole(base, state)
    else:
        _torn(base, state)
    before_files, before = _files(state), _load(base)
    assert _load(state) == before  # a load rolls the torn tail back
    crash, torn = tmp_path / "crash", 0
    for saved, _, killed, left in _crash_points(crash, before_files, args):
        journal = left.get("zone.db-journal")
        torn += journal is not None and left["zone.db"] != before_files["zone.db"] and (
            journal != before_files.get("zone.db-journal"))
        _check_crash_state(crash, before, saved)
    # the last crash point is the dir the command left, committed
    assert not killed and list(left) == ["zone.db"] and _load(crash) == saved != before
    assert torn  # some crash left pages of the commit that the load rolled back


@pytest.mark.parametrize("tail", ["cut", "garbage", "unfinished"],
                         ids=["prefix", "not-utf8", "whole-line-without-newline"])
def test_torn_final_line_is_dropped_and_cut_off_by_the_next_commit(journaled, tail):
    """What a writer killed in its commit leaves beside ``zone.db``: "prefix",
    its journal cut part way through a page; "not-utf8", a journal of bytes
    no journal starts with; "whole-line-without-newline", every page of the
    commit written, and only the journal's deletion, which is the commit,
    not done.  A load drops the torn commit, and the next commit goes on
    from the state before it."""
    before, log = _load(journaled), _log(journaled)
    torn = ["keys", "generate", "--seed", 5]
    if tail == "cut":
        assert _forked(journaled, torn, limit=_OFFSET_STEP)[2]
    elif tail == "garbage":
        (journaled / "zone.db-journal").write_bytes(b"\xff\xfe")
    else:
        _unfinished(journaled, torn, journaled.parent / "kept-journal")
    assert (journaled / "zone.db-journal").exists()
    assert _load(journaled) == before

    key_id = json.loads(_run(journaled, "keys", "generate", "--seed", 4).output)["key_id"]
    assert os.listdir(journaled) == ["zone.db"]
    assert _log(journaled)[:3] == log and len(_log(journaled)) == 4
    after = _load(journaled)
    assert set(after["zone"]["keys"]) == {*before["zone"]["keys"], key_id}


# --- what a commit writes ---------------------------------------------------------


def test_each_commit_logs_its_record_chained_from_the_tip(journaled):
    """Row seq of the log holds the command's record and h = SHA-256(the h
    before || record), from 32 zero bytes; the header carries the last."""
    h = bytes(32)
    for seq, (row_seq, row_h, record) in enumerate(_log(journaled), 1):
        assert row_seq == json.loads(record)["seq"] == seq
        h = sha256(h + record)
        assert row_h == h
        assert set(json.loads(record)) == {"seq", "tsa", "zone", "ledger"}
    header = stored_header(journaled)
    assert (header["seq"], header["h"]) == (3, h.hex())


def test_record_0_parses_as_json_and_names_each_unit_only_in_its_row(journaled):
    """A dir's keys and contexts, as commands left them and written whole
    into a new dir, are rows whose bodies are JSON objects with no
    ``"<id>":`` text: only a row's id column gives its unit's id."""
    _run(journaled, "ledger", "register", "alpha", "--seed", 10)
    key_id = json.loads(_run(journaled, "keys", "generate", "--seed", 4).output)["key_id"]
    _run(journaled, "keys", "split", key_id, "--device", "alpha", "--order", 16,
         "-o", journaled.parent / "alpha.json")
    for state in (journaled, _written_whole(journaled, journaled.parent / "whole")):
        rows = stored_rows(state)
        ids = [unit_id.hex() for kind, unit_id in rows if kind in "kc"]
        assert len([kind for kind, _ in rows if kind == "c"]) == 1 and len(ids) == 8
        assert all(type(json.loads(body)) is dict for body, _ in rows.values())
        assert not any(b'"%s":' % unit_id.encode() in body
                       for unit_id in ids for body, _ in rows.values())


def test_compaction_copies_an_edited_unit_with_its_digest(journaled):
    """A commit neither reads nor rewrites a unit it does not use, so an
    edited key that no command read keeps its row, edit and digest, through
    later commits, and is refused once a command reads it."""
    key_id = json.loads(_run(journaled, "keys", "generate", "--seed", 4).output)["key_id"]
    edit_row(journaled, "k", bytes.fromhex(key_id),
             _unit_edit(lambda unit: {**unit, "uses": 9}))
    edited = stored_rows(journaled)["k", bytes.fromhex(key_id)]
    _run(journaled, "ledger", "register", "alpha", "--seed", 10)
    _run(journaled, "keys", "generate", "--seed", 5)
    assert stored_rows(journaled)["k", bytes.fromhex(key_id)] == edited
    _refused(journaled, f"unit k {key_id} does not match its digest",
             [("keys", "split", key_id, "--context", "11" * 32, "--order", 16)])


def test_a_ledger_made_in_a_dir_that_holds_state_is_logged_whole(tmp_path):
    state = tmp_path / "state"
    _run(state, "keys", "generate")
    _run(state, "ledger", "init", "--group", "g", "--preset", "tiny")
    (_, _, record), = _log(state)
    ledger = json.loads(record)["ledger"]
    assert ledger["group_id"] == "g" and ledger["entries"] == []
    assert stored_header(state)["ledger"]["entries"] == 0


def test_a_command_that_only_reads_the_ledger_journals_no_ledger_change(journaled):
    def last_record():
        return json.loads(_log(journaled)[-1][2])

    _run(journaled, "ledger", "register", "alpha", "--seed", 10)
    assert len(last_record()["ledger"]["entries"]) == 1
    key_id = json.loads(_run(journaled, "keys", "generate", "--seed", 4).output)["key_id"]
    assert last_record()["ledger"] == {}
    # the split looks the device up, which decodes the ledger's entries
    _run(journaled, "keys", "split", key_id, "--device", "alpha", "--order", 16,
         "-o", journaled.parent / "alpha.json")
    assert last_record()["ledger"] == {}


def test_reading_the_state_before_a_save_leaves_its_record_unchanged(journaled, monkeypatch):
    """``_capture_saves`` calls ``state_dict()`` on the zone and the ledger
    before each save; the rows and record saved must not see it."""
    monkeypatch.setattr(time, "time", lambda: 4_000_000_000.0)  # the TSA's clock
    _run(journaled, "ledger", "register", "alpha", "--seed", 10)
    read = journaled.parent / "read"
    shutil.copytree(journaled, read)
    _run(journaled, "keys", "generate", "--seed", 4)
    saved = _capture_saves(monkeypatch)
    _run(read, "keys", "generate", "--seed", 4)
    assert len(saved) == 1
    assert _files(read) == _files(journaled)


# --- what a command reads -----------------------------------------------------------


def test_read_only_ledger_commands_decode_no_zone(journaled, monkeypatch):
    """Nor any unit but the header and the ledger's entries, and they open
    the file read-only."""
    _run(journaled, "ledger", "register", "alpha", "--seed", 10)

    def no_zone(*args, **kwargs):
        raise AssertionError("a read-only ledger command decoded the zone")

    decoded, modes = [], []
    real_decoded, real_connect = statefile._decoded, statefile.StateDir._connect
    monkeypatch.setattr(statefile, "_decoded",
                        lambda kind, *row: decoded.append(kind) or real_decoded(kind, *row))
    monkeypatch.setattr(statefile.StateDir, "_connect", staticmethod(
        lambda path, mode: modes.append(mode) or real_connect(path, mode)))
    monkeypatch.setattr(SecureZone, "lazy_from_state_dict", no_zone)
    monkeypatch.setattr(TimestampAuthority, "from_state_dict", no_zone)
    before = _files(journaled)
    for args in (("ledger", "verify"), ("ledger", "export"),
                 ("ledger", "sync", "-o", journaled.parent / "snap"),
                 ("filter", "build", "--from-ledger", "-o", journaled.parent / "f.bin")):
        _run(journaled, *args)
    assert "alpha" in _run(journaled, "ledger", "export").output
    assert set(decoded) == {"h", "e"} and set(modes) == {"ro"}
    assert _files(journaled) == before


def test_keys_authorize_decodes_the_same_bytes_at_10_and_100_devices(tmp_path, monkeypatch):
    """One authorize passes json.loads the header, its own context and key
    and the infrastructure keys, and its share file: the same bytes at any
    device count, numbers aside."""
    decoded = {}
    for devices in (10, 100):
        context, share = built_dir(tmp_path / f"d{devices}", devices)
        real, seen = json.loads, []

        def loads(data, *args, **kwargs):
            value = real(data, *args, **kwargs)
            seen.append(len(statefile.dumps(_shape(value))))
            return value

        monkeypatch.setattr(json, "loads", loads)
        _run(tmp_path / f"d{devices}", "keys", "authorize", "--context", context, "--share", share)
        monkeypatch.undo()
        decoded[devices] = sorted(seen)
    assert decoded[10] == decoded[100]
    assert sum(decoded[100]) < 8000  # zone.db is about 400 KB here


def _shape(value):
    """``value`` with every number as 0: counters grow with the device count."""
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return 0 if type(value) in (int, float) else value


# --- edits an editor can make -------------------------------------------------------


def _older_sequence(unit):
    """The context's last accepted timestamp, one sequence number earlier."""
    last = unit["last_seen"]
    return {**unit, "last_seen": {**last, "sequence": last["sequence"] - 1}}


def _older_nonce(unit):
    assert unit["nonce_counter"] >= 1
    return {**unit, "nonce_counter": unit["nonce_counter"] - 1}


@pytest.fixture
def replayed(tmp_path):
    """A split key whose context accepted a saved timestamp, a replay of it
    rejected, and the state then written whole, with no log row; and the
    arguments of that replay."""
    built = tmp_path / "built"
    _run(built, "ledger", "init", "--group", "g", "--preset", "tiny")
    _run(built, "ledger", "register", "alpha", "--seed", 10)
    key_id = json.loads(_run(built, "keys", "generate", "--seed", 1).output)["key_id"]
    share, timestamp = tmp_path / "share.json", tmp_path / "ts.json"
    _run(built, "keys", "split", key_id, "--device", "alpha", "--order", 16, "-o", share)
    context = _load(built)["ledger"]["entries"][0]["h2_hex"]
    authorize = ["keys", "authorize", "--context", context, "--share", share]
    _run(built, *authorize, "--save-timestamp", timestamp)
    r = _invoke(built, *authorize, "--timestamp", timestamp)
    assert r.exit_code == cli.EXIT_REJECTED and json.loads(r.stdout)["reason"] == "replay"
    state = _written_whole(built, tmp_path / "state")
    assert _log(state) == []
    return state, context, authorize + ["--timestamp", timestamp]


def _unit_edit(edit):
    return lambda body: statefile.dumps(edit(json.loads(body)))


@pytest.mark.parametrize("later_line", [False, True], ids=["record-0-alone", "with-a-later-line"])
@pytest.mark.parametrize("unit", ["context-last-seen", "kek-nonce-counter", "last-seen-null"])
def test_an_edited_unit_of_record_0_is_state_error(replayed, later_line, unit):
    """An edit rolls a unit of the state back: the context's last accepted
    timestamp (the replay would be accepted) or the KEK's nonce counter (a
    nonce would be used again).  Each unit is checked against its digest
    when it is read, so the replay is refused instead, whether the unit's
    row is as the dir was written whole or a later commit was logged."""
    state, context, replay = replayed
    if later_line:
        _run(state, "keys", "generate", "--seed", 2)
        assert len(_log(state)) == 1
    kek = bytes.fromhex(stored_header(state)["zone"]["kek_id"])
    if unit == "context-last-seen":
        edit_row(state, "c", bytes.fromhex(context), _unit_edit(_older_sequence))
    elif unit == "kek-nonce-counter":
        edit_row(state, "k", kek, _unit_edit(_older_nonce))
    else:
        edit_row(state, "c", bytes.fromhex(context),
                 _unit_edit(lambda unit: {**unit, "last_seen": None}))
    _refused(state, "does not match its digest", [replay])


def _flipped_hex(text):
    return ("0" if text[0] != "0" else "1") + text[1:]


def _edited_header(edit):
    return lambda state: edit_row(state, "h", b"", _unit_edit(edit))


def _edited_digest(kind, which):
    """The digest of a row, one bit flipped: which(state) gives its id."""
    def edit(state):
        where = (kind, which(state))
        with contextlib.closing(sqlite3.connect(state / "zone.db")) as db, db:
            (digest,), = db.execute("SELECT digest FROM unit WHERE kind = ? AND id = ?", where)
            db.execute("UPDATE unit SET digest = ? WHERE kind = ? AND id = ?",
                       (bytes([digest[0] ^ 1]) + digest[1:], *where))
    return edit


_BOTH = (("keys", "generate"), ("ledger", "verify"))


@pytest.mark.parametrize("edit,commands", [
    (_edited_header(lambda header: {**header, "h": _flipped_hex(header["h"])}), _BOTH),
    (_edited_header(lambda header: {**header, "tsa": {
        **header["tsa"], "sequence": header["tsa"]["sequence"] - 1}}), _BOTH),
    (_edited_digest("k", lambda state: bytes.fromhex(stored_header(state)["zone"]["kek_id"])),
     (("keys", "generate"), ("ledger", "register", "alpha"))),
    (_edited_digest("h", lambda state: b""), _BOTH),
    (_edited_header(lambda header: {**header, "zone": {
        **header["zone"], "audit": header["zone"]["audit"] - 1}}), _BOTH),
    (_edited_header(lambda header: {**header, "zone": {
        **header["zone"], "kek_id": header["zone"]["point_key_id"]}}), _BOTH),
], ids=["h", "header", "index", "trailer", "audit-count", "kek-id"])
def test_an_edited_header_or_index_of_record_0_is_state_error(journaled, edit, commands):
    """The header row, the state without its units, is sealed by its digest
    like every unit row, and checked by every load: its tip h, a rolled
    back TSA (it would issue a timestamp again), its audit count or an
    infrastructure key id; and the digests themselves, the KEK row's and
    the header's own."""
    edit(journaled)
    _refused(journaled, "does not match its digest", commands)


def test_an_edited_id_in_a_row_of_record_0_is_refused_until_it_is_flipped_back(journaled):
    """A key's id is in its digest: moved to another id, with its own unit
    unchanged, it is refused by every command that reads it, and the dir
    works again once the id is flipped back."""
    key_id = bytes.fromhex(json.loads(_run(journaled, "keys", "generate", "--seed", 4).output)
                           ["key_id"])
    other = bytes([key_id[0] ^ 1]) + key_id[1:]

    def move(src, dst):
        with contextlib.closing(sqlite3.connect(journaled / "zone.db")) as db, db:
            db.execute("UPDATE unit SET id = ? WHERE kind = 'k' AND id = ?", (dst, src))

    move(key_id, other)
    for target in (key_id, other):
        split = ("keys", "split", target.hex(), "--context", "11" * 32, "--order", 16)
        before = _files(journaled)
        r = _invoke(journaled, *split)
        assert r.exit_code == 1, r.output
        err = json.loads(r.output.strip().splitlines()[-1])["error"]
        assert err["code"] == {key_id: "unknown-key", other: "corrupted-state"}[target]
        assert _files(journaled) == before
    move(other, key_id)
    _run(journaled, "keys", "split", key_id.hex(), "--context", "11" * 32, "--order", 16)


@pytest.mark.parametrize("seq", [True, "3", 3.0, -1, 1 << 64], ids=["bool", "string", "float",
                                                                     "negative", "2**64"])
def test_a_record_whose_seq_is_not_an_int_is_state_error(journaled, seq):
    """The header's tip seq, the seq of its last record, with the header's
    digest recomputed: only the seq is wrong."""
    edit_row(journaled, "h", b"", _unit_edit(lambda header: {**header, "seq": seq}), reseal=True)
    _refused(journaled, "malformed zone.db header: the sequence number is not an integer")


def test_a_record_whose_seq_is_not_one_more_than_the_last_is_state_error(journaled):
    """The header resealed one seq back, as a restore of an older header
    would leave it: the next record's seq is the last one's again, and its
    log row meets the one already there, as nothing in the log is ever
    replaced, so the commit is refused and rolled back."""
    edit_row(journaled, "h", b"", _unit_edit(lambda header: {**header, "seq": header["seq"] - 1}),
             reseal=True)
    _refused(journaled, "UNIQUE constraint failed: log.seq", [("keys", "generate")])


def test_a_header_behind_its_audit_is_refused_at_its_commit(journaled):
    """The header resealed one audit entry back: the command's audit entry
    meets the one already at its index, as no list item is ever replaced."""
    edit_row(journaled, "h", b"", _unit_edit(lambda header: {**header, "zone": {
        **header["zone"], "audit": header["zone"]["audit"] - 1}}), reseal=True)
    _refused(journaled, "UNIQUE constraint failed: unit.kind, unit.id", [("keys", "generate")])


@pytest.mark.parametrize("section", ["tsa", "zone", "ledger"])
def test_a_header_without_a_section_is_state_error(journaled, section):
    edit_row(journaled, "h", b"", _unit_edit(lambda header: {
        name: value for name, value in header.items() if name != section}), reseal=True)
    _refused(journaled, f"'{section}'", [("keys", "generate")])


def test_a_record_0_that_is_not_a_whole_state_is_state_error(journaled):
    """The header row deleted: the unit rows and the log, whose records hold
    only what their commands changed, cannot stand as the state."""
    with contextlib.closing(sqlite3.connect(journaled / "zone.db")) as db, db:
        db.execute("DELETE FROM unit WHERE kind = 'h'")
    _refused(journaled, "malformed zone.db header", [("keys", "generate")])


def test_a_later_record_given_an_index_is_still_not_a_whole_state(journaled):
    """The header replaced by the first log row's record, with the tip h and
    its digest recomputed: its zone holds what one command changed, the new
    key among it, which only a row of its own may hold, so it is refused."""
    (_, h, record), *_ = _log(journaled)
    edit_row(journaled, "h", b"", lambda body: statefile.dumps(
        {**json.loads(record), "h": h.hex()}), reseal=True)
    _refused(journaled, "malformed zone.db header: its zone holds keys or contexts",
             [("keys", "generate")])


def test_a_whole_line_that_is_not_a_journal_record_is_state_error(journaled):
    """The header, the whole state but its units, stored under another kind
    than ``h``."""
    with contextlib.closing(sqlite3.connect(journaled / "zone.db")) as db, db:
        db.execute("UPDATE unit SET kind = 'x' WHERE kind = 'h'")
    _refused(journaled, "malformed zone.db header")


def test_a_record_that_changes_a_missing_ledger_is_state_error(tmp_path):
    """A dir with no ``ledger init`` has no ledger: its header resealed with
    an empty ledger section, as a record that changes the ledger would carry
    it, is refused."""
    state = tmp_path / "state"
    for seed in (1, 2):
        _run(state, "keys", "generate", "--seed", seed)
    assert stored_header(state)["ledger"] is None
    edit_row(state, "h", b"", _unit_edit(lambda header: {**header, "ledger": {}}), reseal=True)
    _refused(state, "corrupted state in zone.db: 'entries'", [("keys", "generate")])


def test_a_record_whose_ledger_entries_are_not_a_list_is_state_error(journaled):
    """The header, resealed, gives the ledger's entries as a mapping."""
    edit_row(journaled, "h", b"", _unit_edit(lambda header: {
        **header, "ledger": {**header["ledger"], "entries": {}}}), reseal=True)
    _refused(journaled, "the count of kind e is not a natural number")


@pytest.mark.parametrize("edit,message,commands", [
    (lambda header: {**header, "zone": {**header["zone"], "audit": {}}},
     "the count of kind a is not a natural number", (("keys", "generate"),)),
    (lambda header: {**header, "ledger": {"group_id": "h", "curve": tiny_curve().to_json_dict(),
                                          "entries": 0}},
     "zone.db does not hold the 0 units of kind e its header counts",
     (("ledger", "register", "gamma"), ("ledger", "verify"))),
], ids=["audit-mapping", "second-ledger"])
def test_a_record_whose_changes_do_not_fit_the_state_is_state_error(
        journaled, edit, message, commands):
    """The header, resealed, gives its audit as a mapping, or a new ledger
    where the dir holds one with entries: a register would write its entry
    over the old ledger's first."""
    for label in ("alpha", "beta"):
        _run(journaled, "ledger", "register", label)
    edit_row(journaled, "h", b"", _unit_edit(edit), reseal=True)
    _refused(journaled, message, commands)


@pytest.mark.parametrize("edit,message", [
    (lambda header: {**header, "zone": {**header["zone"], "audit": "3"}},
     "the count of kind a is not a natural number"),
    (lambda header: {**header, "ledger": {**header["ledger"], "entries": -1}},
     "the count of kind e is not a natural number"),
    (lambda header: {**header, "h": header["h"][:62]}, "the chain value is not 32 bytes"),
], ids=["audit-count-string", "entry-count-negative", "h-31-bytes"])
def test_a_resealed_header_field_of_the_wrong_shape_is_state_error(journaled, edit, message):
    edit_row(journaled, "h", b"", _unit_edit(edit), reseal=True)
    _refused(journaled, message, [("keys", "generate")])


@pytest.mark.parametrize("kind", ["k", "c"])
def test_a_resealed_unit_that_is_no_object_is_state_error(replayed, kind):
    """A key or context whose body is JSON null, its digest recomputed: it is
    refused, not read as a unit that is not there."""
    state, _, replay = replayed
    edit_row(state, kind, _first_id(state, kind), lambda body: b"null", reseal=True)
    _refused(state, "is not an object", [replay])


def test_a_deleted_entry_row_is_state_error(journaled):
    """The header counts the ledger's entries, so a row deleted from the end
    of the list, which no digest covers, is refused."""
    for label in ("alpha", "beta"):
        _run(journaled, "ledger", "register", label)
    with contextlib.closing(sqlite3.connect(journaled / "zone.db")) as db, db:
        db.execute("DELETE FROM unit WHERE kind = 'e' AND id = ?", ((1).to_bytes(8, "big"),))
    _refused(journaled, "zone.db does not hold the 2 units of kind e its header counts",
             [("ledger", "verify"), ("ledger", "register", "gamma")])


@pytest.mark.parametrize("cut", ["empty", "torn-record-0"])
def test_a_file_with_no_whole_record_is_state_error(journaled, cut):
    """``zone.db`` emptied, or cut to half its length: no commit leaves
    either, as a new dir is linked into place whole.  An empty file is an
    SQLite database with no tables."""
    data = (journaled / "zone.db").read_bytes()
    (journaled / "zone.db").write_bytes(b"" if cut == "empty" else data[:len(data) // 2])
    _refused(journaled, "no such table: unit" if cut == "empty" else "zone.db: ")


def test_a_garbage_file_is_state_error(journaled):
    (journaled / "zone.db").write_bytes(b"not a database" * 300)
    _refused(journaled, "zone.db: file is not a database")


#: every command that reads the state dir; each refuses a dir that holds no state it can read
_STATE_COMMANDS = {
    "ledger-init": ("ledger", "init", "--group", "g"),
    "ledger-register": ("ledger", "register", "z"),
    "ledger-verify": ("ledger", "verify"),
    "ledger-export": ("ledger", "export"),
    "ledger-sync": ("ledger", "sync", "-o", "{tmp}/snapshot"),
    "keys-generate": ("keys", "generate"),
    "keys-split": ("keys", "split", "00" * 16, "--context", "11" * 32, "-o", "{tmp}/share.json"),
    "keys-authorize": ("keys", "authorize", "--context", "11" * 32, "--share", "{tmp}/any.json"),
    "filter-build": ("filter", "build", "--from-ledger", "-o", "{tmp}/filter.bin"),
}


def _damaged(state, damage):
    data = (state / "zone.db").read_bytes()
    if damage == "directory":
        (state / "zone.db").unlink()
        (state / "zone.db").mkdir()
        return
    (state / "zone.db").write_bytes({"garbage": b"not a database" * 300, "empty": b"",
                                     "truncated": data[:len(data) // 2]}[damage])


@pytest.mark.parametrize("command", sorted(_STATE_COMMANDS))
@pytest.mark.parametrize("damage", ["garbage", "empty", "truncated", "directory"])
def test_every_state_command_refuses_a_file_that_holds_no_state(journaled, damage, command):
    """An SQLite error is the state's typed error, for every command,
    whether it opens the file to read or to write."""
    _damaged(journaled, damage)
    (journaled.parent / "any.json").write_text("{}")
    args = [a.format(tmp=journaled.parent) for a in _STATE_COMMANDS[command]]
    _refused(journaled, "zone.db: ", [args])
    assert not (journaled.parent / "share.json").exists()


@pytest.mark.parametrize("command", sorted(_STATE_COMMANDS))
def test_every_state_command_refuses_a_dir_in_an_earlier_layout(tmp_path, command):
    state = tmp_path / "state"
    shutil.copytree(pathlib.Path(__file__).parent / "old-layouts" / "units-in-r", state)
    (tmp_path / "any.json").write_text("{}")
    args = [a.format(tmp=tmp_path) for a in _STATE_COMMANDS[command]]
    _refused(state, "a state dir in an earlier layout", [args])


def _first_id(state, kind):
    return min(unit_id for k, unit_id in stored_rows(state) if k == kind)


@pytest.mark.parametrize("edit", ["body", "digest", "id"])
@pytest.mark.parametrize("kind", ["h", "k", "c", "a", "e"])
def test_an_edited_row_of_any_kind_is_refused_by_a_whole_load(replayed, kind, edit):
    """Each row is checked against its digest, which covers its kind, id and
    body, when a load reads it; a list item moved to another index breaks
    the run of indexes the header counts.  The load writes nothing."""
    state = replayed[0]
    unit_id = _first_id(state, kind)
    with contextlib.closing(sqlite3.connect(state / "zone.db")) as db, db:
        where = (kind, unit_id)
        if edit == "body":
            db.execute("UPDATE unit SET body = CAST(? AS BLOB) || substr(body, 2) "
                       "WHERE kind = ? AND id = ?", (b"[", *where))
        elif edit == "digest":
            db.execute("UPDATE unit SET digest = zeroblob(32) WHERE kind = ? AND id = ?", where)
        else:
            moved = bytes([unit_id[0] ^ 1]) + unit_id[1:] if unit_id else b"\x00"
            db.execute("UPDATE unit SET id = ? WHERE kind = ? AND id = ?", (moved, *where))
    before = _files(state)
    with pytest.raises(StateError):
        _load(state)
    assert _files(state) == before


def test_a_dir_without_a_unit_index_is_refused_and_left_as_it_was(journaled):
    """A ``zone.json`` whose one line is ``{"h", "r"}``, ``r`` the whole
    state, as a dir was before its units were indexed."""
    line = {"h": "00" * 32, "r": {"seq": 0, **_load(journaled)}}
    (journaled / "zone.db").unlink()
    (journaled / "zone.json").write_text(json.dumps(line) + "\n")
    _refused(journaled, "a state dir in an earlier layout",
             [("keys", "generate"), ("ledger", "verify"), ("ledger", "init", "--group", "g")])


def test_a_dir_in_the_previous_layout_is_refused_and_left_as_it_was(tmp_path):
    """A dir written before the state moved into SQLite, with record 0's
    units in ``r`` (``ledger init --group g --preset tiny --seed 1``, then
    ``ledger register a --seed 2``)."""
    state = tmp_path / "state"
    shutil.copytree(pathlib.Path(__file__).parent / "old-layouts" / "units-in-r", state)
    assert list(_files(state)) == ["zone.json"] and len(_files(state)["zone.json"]) == 3485
    _refused(state, "a state dir in an earlier layout")


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
    @initialize(register_seed=st.integers(0, 1000), key_seed=st.integers(0, 1000))
    def init_state(self, register_seed, key_seed):
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
