"""The state file's store, ``zone.db``: the rows a state is made of, how a
command opens the file, and how a reader and a writer share it.

The CLI's own tests drive the store through commands; these pin what the
store alone promises: a state is its header and a row per unit, a commit
rewrites only the rows it changes and leaves what writing the state whole
would, a unit is checked when it is read, a reader creates nothing and fails
no writer, a second writer is refused at once, a commit's Python work does
not grow with the state, and neither the library nor the CLI module loads
``sqlite3`` until a state dir is opened.  Several tests keep the names they
had when the state was a journal whose record 0, with an index of its
units, held the whole state: record 0 is now the header row and the unit
rows, and a rewrite over a base a commit over the rows it loaded.
"""

import contextlib
import json
import os
import tempfile
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevault import cli, statefile
from edgevault.cli import main
from edgevault.errors import StateError
from edgevault.shares import SealedShare

from mutation import built_dir, edit_row, stored_header, stored_rows, write_state


def _invoke(state, *args):
    return CliRunner().invoke(main, ["--state-dir", str(state), *map(str, args)],
                              catch_exceptions=False)


def _fresh_interpreter(probe: str) -> str:
    """What ``probe`` prints in a new interpreter that imports from this checkout."""
    src = str(Path(statefile.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout.strip()


def test_the_state_file_layer_is_statefile_alone():
    """``statefile`` loads without click, in a fresh interpreter, and
    ``cli`` defines no part of the layer, so a second copy cannot grow
    back there."""
    assert _fresh_interpreter("import sys, edgevault.statefile; print('click' in sys.modules)") \
        == "False"
    own = set(vars(cli)).union(*(vars(value) for value in vars(cli).values()
                                 if isinstance(value, type) and value.__module__ == cli.__name__))
    assert not own & {"_write", "_header", "_connect", "_create", "SCHEMA"}
    assert issubclass(cli.AppState, statefile.StateDir)


def test_importing_the_cli_loads_no_sqlite3():
    """The library, the simulator and the CLI module load ``sqlite3`` only
    when a command opens a state dir."""
    probe = ("import sys, edgevault, edgevault.cli, edgevault.simnet; "
             "print('sqlite3' in sys.modules)")
    assert _fresh_interpreter(probe) == "False"


def test_a_new_state_without_a_ledger_has_no_entry_unit(tmp_path):
    state = tmp_path / "state"
    assert _invoke(state, "keys", "generate").exit_code == 0
    header = stored_header(state)
    assert header["ledger"] is None and header["seq"] == 0 and header["h"] == "00" * 32
    assert {kind for kind, _ in stored_rows(state)} == {"h", "k", "a"}
    assert os.listdir(state) == ["zone.db"]


def _python_calls(run) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_rewrite_makes_as_many_python_calls_over_400_devices_as_over_25(tmp_path):
    """One ``keys authorize``, its load and its commit, which rewrites the
    rows it changed over the rows of 25 or of 400 devices: a walk over the
    stored units would count calls per device."""
    calls = {}
    for count in (25, 400):
        context, share = built_dir(tmp_path / f"d{count}", count)
        args = ("keys", "authorize", "--context", context, "--share", share)
        assert _invoke(tmp_path / f"d{count}", *args).exit_code == 0  # click's set-up
        calls[count] = _python_calls(lambda: _invoke(tmp_path / f"d{count}", *args))
    assert calls[400] == calls[25], calls


def test_a_session_reads_the_stored_units_it_is_asked_for(tmp_path):
    """The stored keys, contexts and audit of a session behave as the
    mapping and the list they stand for, and a key the dir lacks is absent."""
    built_dir(tmp_path / "state", 5)
    app = statefile.StateDir(tmp_path / "state")
    with app.session() as (zone, _):
        stored = app._loaded[3]
        assert len(stored["keys"]) == 8 and len(stored["contexts"]) == 5
        assert list(stored["keys"]) == sorted(stored["keys"])
        assert bytes(16) not in stored["keys"] and bytes(16) not in zone._keys
        with pytest.raises(KeyError):
            zone._keys[bytes(16)]
        assert zone._audit_base[-1] == list(zone._audit_base)[-1]
        assert zone._audit_base[0]["sequence"] == 0


# --- the rows of a state ----------------------------------------------------------


def _state_of(zone, tsa):
    return {"tsa": tsa.state_dict(), "zone": zone.state_dict(),
            "ledger": zone.ledger.state_dict() if zone.ledger is not None else None}


def test_record_0_is_its_record_with_an_index_and_decodes_to_it(tmp_path):
    """A dir written whole holds its state as rows: the header is the state
    with its keys and contexts taken out and its lists as their counts, and
    each key, context, audit entry and ledger entry is a row of its own under
    its id, with its digest.  No id of a key or context is written as a key
    in a body, and a load decodes the rows to the state."""
    built_dir(tmp_path / "state", 3)
    state = _state_of(*statefile.StateDir(tmp_path / "state").load_zone())
    rows = stored_rows(tmp_path / "state")
    zone, ledger = state["zone"], state["ledger"]
    assert json.loads(rows["h", b""][0]) == {
        "seq": 0, "h": "00" * 32, "tsa": state["tsa"],
        "zone": {**{k: v for k, v in zone.items() if k not in ("keys", "contexts")},
                 "audit": len(zone["audit"])},
        "ledger": {**ledger, "entries": len(ledger["entries"])}}
    for (kind, unit_id), (body, digest) in rows.items():
        assert digest == statefile.unit_digest(kind, unit_id, body)
    bodies = {kind: {unit_id: json.loads(body) for (k, unit_id), (body, _) in rows.items()
                     if k == kind} for kind in "kcae"}
    assert {i.hex(): unit for i, unit in bodies["k"].items()} == zone["keys"]
    assert {i.hex(): unit for i, unit in bodies["c"].items()} == zone["contexts"]
    assert [bodies["a"][i.to_bytes(8, "big")] for i in range(len(zone["audit"]))] == zone["audit"]
    assert [bodies["e"][i.to_bytes(8, "big")]
            for i in range(len(ledger["entries"]))] == ledger["entries"]
    ids = [*zone["keys"], *zone["contexts"]]
    assert not any(b'"%s":' % unit_id.encode() in body
                   for unit_id in ids for body, _ in rows.values())


def test_a_rewrite_over_a_base_copies_what_it_does_not_change(tmp_path):
    """One accepted authorize over 30 devices rewrites the header, the
    context and the key it used, and adds one audit entry and one log row;
    every other row keeps its bytes and its digest."""
    context, share = built_dir(tmp_path / "state", 30)
    before = stored_rows(tmp_path / "state")
    r = _invoke(tmp_path / "state", "keys", "authorize", "--context", context, "--share", share)
    assert r.exit_code == 0, r.output
    after = stored_rows(tmp_path / "state")
    changed = {key for key in after if before.get(key) != after[key]}
    key_id = json.loads(before["c", bytes.fromhex(context)][0])["key_id"]
    audit = stored_header(tmp_path / "state")["zone"]["audit"] - 1
    assert changed == {("h", b""), ("c", bytes.fromhex(context)), ("k", bytes.fromhex(key_id)),
                       ("a", audit.to_bytes(8, "big"))}
    with _connection(tmp_path / "state") as db:
        assert db.execute("SELECT count(*) FROM log").fetchone() == (1,)


_OPS = st.lists(st.sampled_from(["generate", "register", "split", "authorize"]), min_size=1,
                max_size=5)


def _apply(zone, tsa, op, i, shares):
    """One change of the state, drawn by its op; ``shares`` holds the built
    dir's share and each share split since, by context."""
    if op == "generate":
        zone.generate_key("data-encryption", rng_seed=i)
    elif op == "register":
        zone.register_device(f"n{i}", rng_seed=i)
    elif op == "split":
        context = zone.register_device(f"s{i}", rng_seed=i).h2
        key_id = zone.generate_key("data-encryption", rng_seed=i)
        shares[context] = zone.split_and_distribute(key_id, context, q_order=16,
                                                    rng_seed=i).cloud_share
    else:
        context, share = sorted(shares.items())[i % len(shares)]
        assert zone.authorize_transaction(context, share, tsa.issue()).accepted


@settings(max_examples=15, deadline=None)
@given(ops=_OPS)
def test_a_rewrite_over_a_base_is_the_whole_rewrite(ops):
    """Changes committed one by one, each over the rows its session loaded,
    leave the rows their end state leaves written whole into a new dir:
    every unit and list item with its bytes and digest, and the header but
    for its tip seq and h."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        context, share = built_dir(root / "state", 2)
        shares = {bytes.fromhex(context): SealedShare.from_json(share.read_text())}
        app = statefile.StateDir(root / "state")
        for i, op in enumerate(ops, 100):
            with app.session() as (zone, tsa):
                _apply(zone, tsa, op, i, shares)
        statefile.StateDir(root / "whole").save_zone(*app.load_zone())
        committed, whole = stored_rows(root / "state"), stored_rows(root / "whole")
        header, whole_header = (json.loads(rows.pop(("h", b""))[0]) for rows in (committed, whole))
        assert committed == whole
        assert header["seq"] == len(ops) and whole_header["seq"] == 0
        assert {**header, "seq": 0, "h": "00" * 32} == whole_header


def test_a_row_whose_offset_is_not_digits_is_refused_when_its_unit_is_read(tmp_path):
    """A key row whose body is not JSON, its digest recomputed as an editor
    who knows the layout would: a session loads and reads the other keys,
    and refuses the key only when it reads it, leaving the dir as it was."""
    built_dir(tmp_path / "state", 2)
    header = stored_header(tmp_path / "state")
    infrastructure = {bytes.fromhex(header["zone"][name])
                      for name in ("kek_id", "share_key_id", "point_key_id")}
    key_id, other = sorted(unit_id for kind, unit_id in stored_rows(tmp_path / "state")
                           if kind == "k" and unit_id not in infrastructure)
    edit_row(tmp_path / "state", "k", key_id, lambda body: b"x" + body[1:], reseal=True)
    before = (tmp_path / "state" / "zone.db").read_bytes()
    with pytest.raises(StateError, match="corrupted zone.db: Expecting value"):
        with statefile.StateDir(tmp_path / "state").session() as (zone, _):
            assert zone._keys[other].key_id == other
            zone._keys[key_id]
    assert os.listdir(tmp_path / "state") == ["zone.db"]
    assert (tmp_path / "state" / "zone.db").read_bytes() == before


def test_a_list_row_whose_count_is_wrong_is_refused_when_the_list_is_read(tmp_path):
    """The header's audit count, resealed one more than the rows it counts:
    a session's audit has that length, and reading it refuses."""
    built_dir(tmp_path / "state", 2)
    count = stored_header(tmp_path / "state")["zone"]["audit"]
    edit_row(tmp_path / "state", "h", b"", lambda body: statefile.dumps(
        {**json.loads(body), "zone": {**json.loads(body)["zone"], "audit": count + 1}}),
        reseal=True)
    with pytest.raises(StateError, match=f"does not hold the {count + 1} units of kind a its "
                                         "header counts"):
        with statefile.StateDir(tmp_path / "state").session() as (zone, _):
            assert len(zone._audit_base) == count + 1
            list(zone._audit_base)


KEY, OTHER, CONTEXT = "aa" * 16, "bb" * 16, "cc" * 32

RECORD = {
    "seq": 4,
    "tsa": {"issuer": "t", "last_epoch": 9, "sequence": 12},
    "zone": {
        "op_counter": 5, "kek_id": KEY, "share_key_id": KEY, "point_key_id": OTHER,
        "keys": {KEY: {"uses": 1, "material": "00" * 32}, OTHER: {"uses": 0}},
        "contexts": {CONTEXT: {"key_id": OTHER, "last_seen": None}},
        "audit": [{"op": "a", "sequence": 0}, {"op": "b", "sequence": 1}],
    },
    "ledger": {"group_id": "g", "curve": {"p": "0x5"}, "entries": [{"index": 0}]},
}


def _refused_in_the_header(root, document, message):
    """``document`` written as a state dir: what no row holds stays in the
    header, and a load refuses it with the state's error."""
    write_state(root, document)
    rows = stored_rows(root)
    header = json.loads(rows["h", b""][0])
    with pytest.raises(StateError, match=message):
        statefile.StateDir(root).load_zone()
    return rows, header


@pytest.mark.parametrize("document", [[RECORD], None, {**RECORD, "zone": 7, "ledger": None}],
                         ids=["a-list", "null", "a-zone-that-is-no-object"])
def test_a_document_with_nothing_to_index_is_kept_in_the_header_and_refused(tmp_path, document):
    rows, header = _refused_in_the_header(tmp_path / "state", document, "^malformed zone.db "
                                                                        "header: ")
    assert list(rows) == [("h", b"")]
    assert header == (document if not isinstance(document, dict)
                      else {**document, "h": "00" * 32})


def test_a_section_that_is_not_its_container_is_left_in_the_header_and_refused(tmp_path):
    _, header = _refused_in_the_header(
        tmp_path / "state", {**RECORD, "zone": {**RECORD["zone"], "keys": [{}]}},
        "^malformed zone.db header: its zone holds keys or contexts")
    assert header["zone"]["keys"] == [{}]


def test_a_map_whose_ids_are_not_hex_is_left_in_the_header_and_refused(tmp_path):
    """Only ids a row can hold are written as rows; any other map stays in
    the header, where a load refuses it."""
    _, header = _refused_in_the_header(
        tmp_path / "state", {**RECORD, "zone": {**RECORD["zone"], "keys": {"KEY": {}}}},
        "^malformed zone.db header: its zone holds keys or contexts")
    assert header["zone"]["keys"] == {"KEY": {}}


# --- opening the file ----------------------------------------------------------


def test_a_read_only_command_creates_no_state(tmp_path):
    """Not the dir, and not ``zone.db`` in a dir that exists."""
    missing, empty = tmp_path / "missing", tmp_path / "empty"
    empty.mkdir()
    for state in (missing, empty):
        for args in (("ledger", "verify"), ("ledger", "export")):
            r = _invoke(state, *args)
            assert r.exit_code == 1 and "no ledger" in r.output, r.output
    assert not missing.exists() and os.listdir(empty) == []


@contextlib.contextmanager
def _connection(state):
    with contextlib.closing(sqlite3.connect(state / "zone.db", isolation_level=None,
                                            check_same_thread=False)) as db:
        yield db


def _ledger_dir(state):
    assert _invoke(state, "ledger", "init", "--group", "g", "--preset", "tiny").exit_code == 0
    assert _invoke(state, "ledger", "register", "alpha").exit_code == 0


def test_a_reader_in_a_transaction_does_not_fail_a_writer(tmp_path):
    """The writer's commit waits for the reader's transaction to end."""
    state = tmp_path / "state"
    _ledger_dir(state)
    with _connection(state) as reader:
        reader.execute("BEGIN")
        reader.execute("SELECT count(*) FROM unit").fetchall()  # holds a shared lock
        threading.Timer(0.3, reader.execute, ["COMMIT"]).start()
        started = time.monotonic()
        r = _invoke(state, "ledger", "register", "beta")
        assert r.exit_code == 0, r.output
        assert time.monotonic() - started >= 0.25
    assert stored_header(state)["ledger"]["entries"] == 2


def test_a_writer_in_a_transaction_does_not_fail_a_reader(tmp_path):
    """A reader sees the last commit while another writer's is open."""
    state = tmp_path / "state"
    _ledger_dir(state)
    exported = _invoke(state, "ledger", "export").output
    with _connection(state) as writer:
        writer.execute("BEGIN IMMEDIATE")
        writer.execute("DELETE FROM unit WHERE kind = 'e'")
        for args in (("ledger", "verify"), ("ledger", "export")):
            r = _invoke(state, *args)
            assert r.exit_code == 0, r.output
        assert r.output == exported
        writer.execute("ROLLBACK")


def test_a_second_writer_is_refused_at_once(tmp_path):
    state = tmp_path / "state"
    _ledger_dir(state)
    with _connection(state) as holder:
        holder.execute("BEGIN IMMEDIATE")
        started = time.monotonic()
        r = _invoke(state, "keys", "generate")
        assert time.monotonic() - started < 1.0
    assert r.exit_code == 1 and "state dir is locked (" in r.output, r.output
