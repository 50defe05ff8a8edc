"""The CLI state dir and its one file, ``zone.db``, an SQLite database.

Two tables hold the state::

    unit(kind, id, body, digest)   one row per unit, keyed by (kind, id)
    log(seq, h, record)            one row per committed command

A unit's ``body`` is JSON with sorted keys and no spaces, and its ``digest``
the SHA-256 of its kind, its id and its body, so a unit is refused when its
body, its digest or its id is edited; it is checked whenever it is read.  The
kinds are ``k`` a key and ``c`` a context (the id is the key's or context's
id), ``a`` an audit entry and ``e`` a ledger entry (the id is the item's
index, 8 bytes big-endian; both lists only grow), and ``h`` the one header
row (an empty id).  The header is the state with its units taken out: the
TSA's counters, the zone's op counter and infrastructure key ids, the
ledger's group and curve (``null`` before ``ledger init``), the audit and
entry counts, and the tip ``seq`` and ``h``.

Each commit adds ``log`` row ``seq``, one more than the tip's.  Its
``record`` is what the command changed, ``{"seq", "tsa", "zone", "ledger"}``:
the TSA's counters, the op counter, the changed fields of each changed key
and context and the whole of each new one, the new audit entries, and the
new ledger entries or a new ledger; and ``h = SHA-256(previous h ||
record)``, the previous h 32 zero bytes in a new dir.  A load reads the
header and then only the units the command decodes; it never reads the log.

Every mutating command runs in one :meth:`StateDir.session`, one ``BEGIN
IMMEDIATE ... COMMIT`` transaction that writes only the changed units, the
new entries, the header and one log row.  A second writer's ``BEGIN
IMMEDIATE`` fails at once, and it is refused as locked.  Read-only commands
open the file read-only (read-write only to roll back a killed writer's
journal) and read in one transaction; a commit waits up to ``_BUSY_MS`` for
readers to finish, and a reader for a commit.  The settings are fixed here:
a rollback journal (each command opens its own connection, so a WAL would
be checkpointed by every last close), ``synchronous=OFF`` and a 256 KiB page
cache.  A killed process leaves the old state or the new one, as the next
connection rolls a hot journal back, but nothing is fsynced, so a power loss
is not covered.  A new dir is written whole to a
temporary database that is then linked into place, so a ``zone.db`` always
holds a whole state and a refused first command leaves no dir.  A dir in
an earlier layout holds a ``zone.json`` and no ``zone.db``; it is refused
and left as it is.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from collections.abc import Mapping, Sequence
from contextlib import closing, contextmanager
from pathlib import Path

from .crypto import U64_LIMIT, TimestampAuthority, sha256
from .errors import StateError, parses
from .ledger import IdentityLedger
from .securezone import SecureZone

__all__ = ["SCHEMA", "StateDir", "dumps", "os_seed", "unit_digest"]

SCHEMA = ("CREATE TABLE unit (kind TEXT, id BLOB, body BLOB, digest BLOB, "
          "PRIMARY KEY (kind, id)) WITHOUT ROWID",
          "CREATE TABLE log (seq INTEGER PRIMARY KEY, h BLOB, record BLOB)")

_SELECT_UNIT = "SELECT id, body, digest FROM unit WHERE kind = ? AND id = ?"

#: how long a commit waits for readers to finish, and a reader for a commit
_BUSY_MS = 10_000

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(value) -> bytes:
    """A unit's or record's bytes: JSON with sorted keys and no spaces."""
    return _ENCODE(value).encode()


def unit_digest(kind: str, unit_id: bytes, body: bytes) -> bytes:
    """The digest a unit row carries: SHA-256 of its kind, id and body."""
    return hashlib.sha256(b"%s%c%s%s" % (kind.encode(), len(unit_id), unit_id, body)).digest()


def _index(i: int) -> bytes:
    """A list item's id."""
    return i.to_bytes(8, "big")


def os_seed() -> int:
    """64 bits from the OS: a new dir's zone seed, and a command's given no --seed."""
    return secrets.randbits(64)


def _query(db, sql: str, *params) -> list:
    """The rows of one statement; an SQLite error is a corrupted state."""
    import sqlite3
    try:
        return db.execute(sql, params).fetchall()
    except sqlite3.DatabaseError as exc:
        raise StateError(f"zone.db: {exc}") from None


@parses(StateError, "corrupted zone.db")
def _decoded(kind: str, unit_id: bytes, body: bytes, digest: bytes):
    """A unit row's body, checked against its digest and decoded."""
    if unit_digest(kind, unit_id, body) != digest:
        raise ValueError(f"unit {kind} {unit_id.hex()} does not match its digest")
    return json.loads(body)


class _StoredUnits(Mapping):
    """The keys or the contexts by id, each read, checked and decoded on first use."""

    __slots__ = ("_db", "_kind", "_decoded")

    def __init__(self, db, kind: str):
        self._db, self._kind, self._decoded = db, kind, {}

    def __getitem__(self, unit_id: bytes) -> dict:
        """The unit, decoded once: the same object on every read, which
        callers do not change."""
        unit = self._decoded.get(unit_id)
        if unit is None:
            rows = _query(self._db, _SELECT_UNIT, self._kind, unit_id)
            if not rows:
                raise KeyError(unit_id)
            unit = _decoded(self._kind, *rows[0])
            if type(unit) is not dict:
                raise StateError(f"unit {self._kind} {unit_id.hex()} is not an object")
            self._decoded[unit_id] = unit
        return unit

    def __iter__(self):
        rows = _query(self._db, "SELECT id FROM unit WHERE kind = ? ORDER BY id", self._kind)
        return (unit_id for unit_id, in rows)

    def __len__(self) -> int:
        return _query(self._db, "SELECT count(*) FROM unit WHERE kind = ?", self._kind)[0][0]


def _all_units(db, kind: str) -> dict:
    """Every unit of ``kind`` by id hex, each checked and decoded now."""
    return {unit_id.hex(): _decoded(kind, unit_id, body, digest) for unit_id, body, digest
            in _query(db, "SELECT id, body, digest FROM unit WHERE kind = ?", kind)}


class _StoredList(Sequence):
    """The audit or the ledger's entries: as long as the header counts, each
    item read, checked and decoded on first use; or, ``whole``, now."""

    def __init__(self, db, kind: str, count, whole: bool = False):
        if type(count) is not int or count < 0:
            raise ValueError(f"the count of kind {kind} is not a natural number")
        self._db, self._kind, self._count, self._items = db, kind, count, None
        if whole:
            self._all()

    def __len__(self) -> int:
        return self._count

    def _all(self) -> list:
        if self._items is None:
            rows = _query(self._db, "SELECT id, body, digest FROM unit WHERE kind = ? ORDER BY id",
                          self._kind)
            if [row[0] for row in rows] != list(map(_index, range(self._count))):
                raise StateError(f"zone.db does not hold the {self._count} units of kind "
                                 f"{self._kind} its header counts")
            self._items = [_decoded(self._kind, *row) for row in rows]
        return self._items

    def __getitem__(self, i):
        return self._all()[i]


@parses(StateError, "malformed zone.db header")
def _header(db) -> dict:
    """The header row, checked and decoded."""
    (row,) = _query(db, _SELECT_UNIT, "h", b"")
    header = _decoded("h", *row)
    if type(header["seq"]) is not int or not 0 <= header["seq"] < U64_LIMIT:
        raise ValueError("the sequence number is not an integer in [0, 2**64)")
    if len(bytes.fromhex(header["h"])) != 32:
        raise ValueError("the chain value is not 32 bytes")
    if not {"keys", "contexts"}.isdisjoint(header["zone"]):
        raise ValueError("its zone holds keys or contexts, which are rows of their own")
    return header


@parses(StateError, "corrupted state in zone.db")
def _ledger(db, header: dict, whole: bool = False) -> IdentityLedger | None:
    if header["ledger"] is None:
        return None
    entries = _StoredList(db, "e", header["ledger"]["entries"], whole)
    return IdentityLedger.lazy_from_state_dict({**header["ledger"], "entries": entries})


@parses(StateError, "corrupted state in zone.db")
def _state(db, header: dict, whole: bool = False) -> tuple[SecureZone, TimestampAuthority, dict]:
    """The zone and TSA of ``header``, and the zone's stored keys and
    contexts; with ``whole``, every unit is read and checked now."""
    tsa = TimestampAuthority.from_state_dict(header["tsa"])
    zone = header["zone"]
    units = {name: (_all_units if whole else _StoredUnits)(db, kind)
             for name, kind in (("keys", "k"), ("contexts", "c"))}
    zone = SecureZone.lazy_from_state_dict(
        {**zone, **units, "audit": _StoredList(db, "a", zone["audit"], whole)}, tsa)
    ledger = _ledger(db, header, whole)
    if ledger is not None:
        zone.attach_ledger(ledger)
    return zone, tsa, units


def _changed_fields(units: Mapping, rewritten: dict) -> dict:
    """Of each rewritten unit, the fields that differ from its stored unit;
    a new unit whole."""
    changes = {}
    for unit_id, unit in rewritten.items():
        old = units.get(bytes.fromhex(unit_id))
        changes[unit_id] = unit if old is None else {
            field: value for field, value in unit.items() if old.get(field) != value}
    return changes


def _write(db, zone: SecureZone, tsa: TimestampAuthority, loaded: tuple | None = None):
    """Write the state's rows: with ``loaded``, the header and the stored
    units the zone was loaded from, only the units that changed, the new
    entries, a log row and the new header; without, every row of a new dir."""
    state = zone.state_dict(whole=loaded is None)
    ledger = zone.ledger.state_dict(whole=loaded is None) if zone.ledger is not None else None
    if loaded is None:
        seq, h, audit_at, entries_at = 0, bytes(32), 0, 0
    else:
        header, units = loaded
        seq, old = header["seq"] + 1, header["ledger"]
        changes = {name: _changed_fields(units[name], state[name]) for name in units}
        # a new ledger whole; a stored one's new entries, if it has any
        ledger_change = ledger if ledger is None or old is None else (
            {"entries": ledger["entries"]} if ledger["entries"] else {})
        record = dumps({"seq": seq, "tsa": tsa.state_dict(), "zone": {
            "op_counter": state["op_counter"], **changes, "audit": state["audit"]},
            "ledger": ledger_change})
        h = sha256(bytes.fromhex(header["h"]) + record)
        db.execute("INSERT INTO log VALUES (?, ?, ?)", (seq, h, record))
        audit_at, entries_at = header["zone"]["audit"], old["entries"] if old is not None else 0
    # list items are only ever added: one already at an index is a conflict
    items = [("a", _index(i), dumps(item)) for i, item in enumerate(state["audit"], audit_at)]
    state["audit"] = audit_at + len(state["audit"])
    if ledger is not None:
        items += [("e", _index(i), dumps(item)) for i, item in enumerate(ledger["entries"],
                                                                          entries_at)]
        ledger["entries"] = entries_at + len(ledger["entries"])
    units = [(kind, bytes.fromhex(unit_id), dumps(unit)) for kind, name in (("k", "keys"),
             ("c", "contexts")) for unit_id, unit in state.pop(name).items()]
    units.append(("h", b"", dumps({"seq": seq, "h": h.hex(), "tsa": tsa.state_dict(),
                                   "zone": state, "ledger": ledger})))
    for verb, rows in (("INSERT", items), ("INSERT OR REPLACE", units)):
        db.executemany(f"{verb} INTO unit VALUES (?, ?, ?, ?)",
                       [(*row, unit_digest(*row)) for row in rows])


class StateDir:
    """The state dir ``root`` and the state its ``zone.db`` holds."""

    def __init__(self, root: Path):
        self.root = root
        self.zone_path = root / "zone.db"
        # never read or written; perfbench/tracer.py sizes them
        self.tsa_path = root / "tsa.json"
        self.ledger_path = root / "ledger.json"
        self._db = None  # the session's connection, in its transaction
        self._loaded = None  # (zone, tsa, header, stored units) of the session's load_zone

    def _exists(self) -> bool:
        """Whether the dir holds a state; one in an earlier layout is refused."""
        if self.zone_path.exists():
            return True
        if (self.root / "zone.json").exists():
            raise StateError(f"{self.root} holds zone.json, a state dir in an earlier layout")
        return False

    @staticmethod
    def _connect(path: Path, mode: str, timeout: float = _BUSY_MS / 1000):
        import sqlite3
        db = sqlite3.connect(f"{path.absolute().as_uri()}?mode={mode}", uri=True,
                             timeout=timeout, isolation_level=None)
        # a command reads a few pages; a commit is not durable (see the module doc)
        db.executescript("PRAGMA cache_size = -256; PRAGMA synchronous = OFF")
        return db

    @contextmanager
    def _reading(self):
        """A read-only connection in one read transaction, closed after;
        read-write only to roll back the journal a killed writer left, which
        a read-only one cannot."""
        import sqlite3
        journal = self.zone_path.with_name("zone.db-journal")
        try:
            with closing(self._connect(self.zone_path, "rw" if journal.exists() else "ro")) as db:
                db.execute("BEGIN")
                yield db
        except sqlite3.DatabaseError as exc:
            raise StateError(f"zone.db: {exc}") from None

    @contextmanager
    def session(self, seed: int | None = None):
        """Yield ``(zone, tsa)`` in one write transaction; commit on completion.

        An exception or ``sys.exit`` inside the block commits nothing, so a
        refused or failed command leaves the state dir as it was, and a
        command in a new dir creates it only on commit.  A new dir's zone
        takes ``seed``, or one from the OS.
        """
        import sqlite3
        try:
            if self._exists():
                try:  # a second writer is refused at once
                    self._db = self._connect(self.zone_path, "rw", timeout=0)
                    self._db.execute("BEGIN IMMEDIATE")
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc):
                        raise
                    raise StateError(f"state dir is locked ({self.zone_path}); another command "
                                     "is using it") from None
                self._db.execute(f"PRAGMA busy_timeout = {_BUSY_MS}")  # a commit waits for readers
            zone, tsa = self.load_zone(seed)
            yield zone, tsa
            self.save_zone(zone, tsa)
        except sqlite3.DatabaseError as exc:
            raise StateError(f"zone.db: {exc}") from None
        finally:
            if self._db is not None:
                self._db.close()  # rolls back what was not committed
            self._db = self._loaded = None

    def load_zone(self, seed: int | None = None) -> tuple[SecureZone, TimestampAuthority]:
        """The zone and TSA of the header.  In a session each key, context and
        list is read and checked the first time the command uses it; outside
        one, all of them are, in one read transaction."""
        if self._db is not None:
            header = _header(self._db)
            zone, tsa, units = _state(self._db, header)
            self._loaded = (zone, tsa, header, units)
            return zone, tsa
        if not self._exists():
            # a new dir: save_zone writes its zone whole
            tsa = TimestampAuthority(issuer="edgevault-tsa")
            return SecureZone(os_seed() if seed is None else seed, tsa), tsa
        with self._reading() as db:
            return _state(db, _header(db), whole=True)[:2]

    def read_ledger(self) -> IdentityLedger | None:
        """The ledger alone, every entry read in one transaction, with no zone
        decoded; None if there is none."""
        if not self._exists():
            return None
        with self._reading() as db:
            return _ledger(db, _header(db), whole=True)

    def save_zone(self, zone: SecureZone, tsa: TimestampAuthority):
        """Commit the state: for the zone the session's :meth:`load_zone`
        returned, the rows that changed.  Any other zone is written whole, as
        a new dir; a dir that holds state refuses it."""
        loaded, self._loaded = self._loaded, None
        if loaded is not None and loaded[0] is zone and loaded[1] is tsa:
            _write(self._db, zone, tsa, loaded[2:])
            self._db.execute("COMMIT")
        elif self._exists():
            raise StateError(f"{self.root} holds state, and this zone was not loaded from it")
        else:
            self._create(zone, tsa)

    def _create(self, zone: SecureZone, tsa: TimestampAuthority):
        """Write the whole state to a new database and link it in as
        ``zone.db``; refused as locked if another command linked one first."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / f".zone.db.{secrets.token_hex(8)}.tmp"
        try:
            with closing(self._connect(tmp, "rwc")) as db:
                for statement in SCHEMA:
                    db.execute(statement)
                db.execute("BEGIN")
                _write(db, zone, tsa)
                db.execute("COMMIT")
            os.link(tmp, self.zone_path)
        except FileExistsError:
            raise StateError(f"state dir is locked ({self.zone_path}); another command "
                             "created it") from None
        finally:
            tmp.unlink(missing_ok=True)
