"""The CLI state dir and its one file, ``zone.json``, a journal of lines.

Every line after the first is ``{"h", "r"}`` JSON: ``h`` a chain value in hex
and ``r`` a record, written with sorted keys and no spaces.  Such a record
holds what one completed command changed (the TSA counters, the op counter,
each changed or new key and context, new audit entries, new ledger entries or
a new ledger), with ``seq`` one more than the line before and ``h =
SHA-256(previous h || r's bytes)``.  A device's point is stored only sealed.

Record 0, the first line, is the whole state, ``{"seq", "tsa", "zone",
"ledger"}``: the TSA's counters, the zone's storage and the ledger (``null``
before ``ledger init``); its ``h`` is that of the last record folded into it,
or 32 zero bytes in a new dir.  Its units are kept apart from ``r``, so a
load decodes only the units a command uses.  A unit is one key or context of
the zone, the zone's audit list or the ledger's entry list.  The line is::

    {"h":"<h>","r":<header>,"d":[<unit>,<unit>,...],"u":"<rows>","t":"<trailer>"}

The header is the record with its four unit sections empty (``zone.keys``
and ``zone.contexts`` ``{}``, ``zone.audit`` and ``ledger.entries`` ``[]``),
and ``d`` holds the units in the order of their rows.  Each row is ``kind |
id | offset | length | SHA-256``, fixed width, sorted by kind and id: kind
``a`` for the audit, ``c`` a context, ``e`` the entries and ``k`` a key; the
id is the unit's id in hex, space-padded (a list unit's row gives its item
count instead); offset and length locate the unit in the line.  A unit's id
is in its row alone.  The fixed-width trailer holds where the units of ``d``
start and where the rows start, and the SHA-256 of the line up to the units
(``h`` and the header), the rows and those two numbers.  A load finds the
trailer at the end of the line, checks that digest, parses the header, and
puts in each section an object that finds a unit by binary search over the
rows and checks its digest and decodes it on first use.  A unit whose bytes
do not match its digest is a corrupted record 0.

A rewrite of record 0 over an earlier one encodes only the units that
changed.  Kind by kind, it finds each changed id among the earlier rows by
binary search and copies each run of unchanged units between them as one
slice of the earlier line, once the units of the run are checked to be one
comma apart; the run's rows are the earlier rows, each offset moved as far as
the run moved.  So no Python call is made per copied unit.  A list unit's
bytes are checked and extended in place.  Without an earlier record 0 the
rewrite is the same walk, every unit new.

Every mutating command runs in one :meth:`StateDir.session`, under an
``flock`` on ``.lock`` (the kernel drops it when the holder exits, however it
exits, so no lock is ever stale), and commits once, only if it completes: it
appends its record in one write or, once the lines after record 0 would pass
``COMPACT_BYTES``, writes the whole state as record 0 of ``zone.json.tmp``
and renames that over ``zone.json``.  A crashed process therefore leaves the
old state or the new one; a torn last line is left out on load and cut off by
the next commit.  Nothing is fsynced: a power loss is not covered.  A dir in
an earlier layout has a ``zone.json`` whose first line is no record 0 of this
layout, so it is a corrupted state, refused and left as it is.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import secrets
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

from .crypto import U64_LIMIT, TimestampAuthority, sha256
from .errors import StateError, parses
from .ledger import IdentityLedger
from .securezone import SecureZone

__all__ = ["COMPACT_BYTES", "LINE_HEAD", "LINE_MID", "StateDir", "dumps", "encode_line",
           "decode_line", "encode_record0", "decode_record0", "os_seed"]

LINE_HEAD, LINE_MID = b'{"h":"', b'","r":'
_BODY = len(LINE_HEAD) + 64 + len(LINE_MID)  # where r starts in a line
_UNITS_HEAD, _ROWS_HEAD, _TRAILER_HEAD, _LINE_END = b',"d":[', b'],"u":"', b'","t":"', b'"}'

_ID, _NUMBER, _DIGEST = 64, 10, 64
_ROW = 1 + _ID + 2 * _NUMBER + _DIGEST
_AT = 1 + _ID  # where a row's offset starts
_TRAILER = 2 * _NUMBER + _DIGEST

#: the sections that hold units, in the order of their rows:
#: (the section's parent in the record, its name, its row kind, the container it is)
_SECTIONS = (("zone", "audit", b"a", list), ("zone", "contexts", b"c", dict),
             ("ledger", "entries", b"e", list), ("zone", "keys", b"k", dict))

_UNIT_ID = re.compile(r"(?:[0-9a-f]{2}){1,32}")


def _digest(*pieces) -> bytes:
    """The SHA-256, in hex, of ``pieces`` one after another."""
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece)
    return digest.hexdigest().encode()


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(value) -> bytes:
    """A record's bytes: JSON with sorted keys and no spaces."""
    return _ENCODE(value).encode()


def _number(value: int) -> bytes:
    if not 0 <= value < 10 ** _NUMBER:
        raise ValueError(f"{value} does not fit the index")
    return b"%010d" % value


def encode_line(h: bytes, body: bytes) -> bytes:
    """The line ``{"h", "r"}`` of a later record whose bytes are ``body``."""
    return LINE_HEAD + h.hex().encode() + LINE_MID + body + b"}\n"


#: every record's fields, whole in record 0 and what changed in a later record
_FIELDS = ("seq", "tsa", "zone", "ledger")


def _record(seq: int, tsa: TimestampAuthority, zone: dict, ledger: dict | None) -> dict:
    return dict(zip(_FIELDS, (seq, tsa.state_dict(), zone, ledger)))


def _check_record(record: dict):
    if type(record["seq"]) is not int or not 0 <= record["seq"] < U64_LIMIT:
        raise ValueError("the sequence number is not an integer in [0, 2**64)")
    for field in _FIELDS[1:]:
        record[field]  # a missing section is a KeyError here



@parses(StateError, "malformed journal record {3}")
def decode_line(data: bytes, start: int, end: int, index: int) -> tuple[bytes, bytes, dict]:
    """The h, the record bytes the h covers, and the record of the later
    line ``data[start:end]``."""
    mid = start + len(LINE_HEAD) + 64
    if (not data.startswith(LINE_HEAD, start, end) or not data.startswith(LINE_MID, mid, end)
            or data[end - 1] != ord("}")):
        raise ValueError("not a journal line")
    raw = data[start + _BODY:end - 1]
    record = json.loads(raw)
    _check_record(record)
    return bytes.fromhex(data[start + len(LINE_HEAD):mid].decode()), raw, record


# --- writing record 0 -------------------------------------------------------------


def _split(record) -> tuple:
    """The header, ``record`` with each section that holds units emptied, and
    those sections by row kind.  A section that is not its container, or a
    map whose ids are not all hex, stays in the header."""
    header, sections = record, {}
    if type(record) is dict:
        header = dict(record)
        for parent, name, kind, container in _SECTIONS:
            holder = header.get(parent)
            section = holder.get(name) if type(holder) is dict else None
            if type(section) is container and (
                    container is list or all(map(_UNIT_ID.fullmatch, section))):
                if holder is record[parent]:
                    header[parent] = holder = dict(holder)
                holder[name], sections[kind] = container(), section
    return header, sections


class _Writer:
    """Lays out record 0's units from line offset ``at`` on, one comma apart,
    and indexes them as it goes."""

    def __init__(self, at: int):
        self.start = self.at = at
        self.parts: list = []
        self.rows: list[bytes] = []

    def _comma(self):
        if self.at > self.start:
            self.parts.append(b",")
            self.at += 1

    def unit(self, key: bytes, digest: bytes, *pieces):
        """A unit whose row begins with ``key`` (kind and id) and whose bytes
        are ``pieces``, one after another."""
        self._comma()
        size = sum(map(len, pieces))
        self.rows.append(key + _number(self.at) + _number(size) + digest)
        self.parts += pieces
        self.at += size

    def map(self, kind: bytes, units: dict, base: _UnitMap | None):
        """The units of a map: those in ``units``, encoded, and between them
        each run of the base's other units, copied as one slice of the base's
        line.  A changed unit's place among the base's rows is found by
        binary search, so no Python call is made per copied unit."""
        index = base.index() if base is not None else ([], [], [], b"")
        rows, i = index[0], 0  # i: the first base row not written
        for unit_id in sorted(units):
            key = kind + unit_id.encode().ljust(_ID)
            j = bisect_left(rows, key, i)
            if i < j:
                self.copy(index, i, j)
            raw = dumps(units[unit_id])
            self.unit(key, _digest(raw), raw)
            i = j + (j < len(rows) and rows[j].startswith(key))
        if i < len(rows):
            self.copy(index, i, len(rows))

    def copy(self, index: tuple, a: int, b: int):
        """The base's units ``a`` to ``b`` (``a < b``) of ``index`` (see
        :meth:`_UnitMap.index`): one slice of the base's line, once the units
        are checked to be one comma apart, each row's offset moved by as much
        as the slice moves."""
        rows, offsets, ends, data = index
        gaps = [data[end:offset] == b"," for end, offset in zip(ends[a:b - 1], offsets[a + 1:b])]
        if not all(gaps):
            unit = rows[a + 1 + gaps.index(False)][:_AT].rstrip().decode()
            raise StateError(f"unit {unit} of journal record 0 is not one comma after the unit "
                             "before it")
        self._comma()
        shift = self.at - offsets[a]
        # every moved offset is below the rows' offset, which _number checks
        self.rows += [row[:_AT] + b"%010d" % (offset + shift) + row[_AT + _NUMBER:]
                      for row, offset in zip(rows[a:b], offsets[a:b])]
        run = memoryview(data)[offsets[a]:ends[b - 1]]
        self.parts.append(run)
        self.at += len(run)

    def list(self, kind: bytes, items: list, base: _UnitList | None):
        """A list unit: the base's items, if any, then ``items``."""
        count = _number(len(items) + (len(base) if base is not None else 0)).rjust(_ID, b"0")
        if base is None or (items and not len(base)):
            pieces = (dumps(items),)
            digest = _digest(pieces[0])
        else:
            pieces, digest = base.extended(items)
        self.unit(kind + count, digest, *pieces)


def encode_record0(h: bytes, record: dict, base: dict | None = None) -> bytes:
    """Record 0's line for ``record``, the whole state, with chain value ``h``.

    With ``base``, a record 0 that :func:`decode_record0` returned,
    ``record`` need only hold what differs from it: each map the units
    written since (whole), each list the items after the base's.  The runs
    of the base's units between the changed ones are copied as slices of its
    line, digests and all, once each run is checked to be one comma apart; a
    list unit is the base's bytes, checked, extended by the new items.
    """
    header, sections = _split(record)
    head = b"".join([LINE_HEAD, h.hex().encode(), LINE_MID, dumps(header), _UNITS_HEAD])
    writer = _Writer(len(head))
    for parent, name, kind, container in _SECTIONS:
        if kind in sections:
            section = (base[parent] or {}).get(name) if base is not None else None
            (writer.map if container is dict else writer.list)(kind, sections[kind], section)
    rows = b"".join(writer.rows)
    numbers = _number(len(head)) + _number(writer.at + len(_ROWS_HEAD))
    return b"".join([head, *writer.parts, _ROWS_HEAD, rows, _TRAILER_HEAD, numbers,
                     _digest(head, rows, numbers), _LINE_END, b"\n"])


# --- reading record 0 ------------------------------------------------------------


class _Rows:
    """The sorted, fixed-width rows of record 0's index, over the file's bytes."""

    __slots__ = ("data", "at", "count")

    def __init__(self, data: bytes, at: int, count: int):
        self.data, self.at, self.count = data, at, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i: int) -> bytes:
        """Row ``i``'s kind and id, the key the rows are sorted by."""
        at = self.at + i * _ROW
        return self.data[at:at + 1 + _ID]

    def span(self, kind: bytes) -> tuple[int, int]:
        """The rows of ``kind``."""
        return bisect_left(self, kind), bisect_left(self, bytes([kind[0] + 1]))

    def stored(self, i: int) -> tuple[memoryview, bytes]:
        """Row ``i``'s unit: a view of its bytes and its digest, not checked."""
        at = self.at + i * _ROW + _AT
        row = self.data[at:at + 2 * _NUMBER + _DIGEST]
        if not row[:2 * _NUMBER].isdigit():
            raise StateError(f"row {i} of journal record 0's index is malformed")
        offset = int(row[:_NUMBER])
        end = offset + int(row[_NUMBER:2 * _NUMBER])
        return memoryview(self.data)[offset:end], row[2 * _NUMBER:]

    def mismatch(self, i: int) -> StateError:
        """The error for row ``i``'s unit, whose bytes do not match its digest."""
        return StateError(f"unit {self[i].decode().rstrip()} of journal record 0 does not "
                          "match its digest")

    def checked(self, i: int) -> bytes:
        """Row ``i``'s unit bytes, checked against its digest."""
        raw, digest = self.stored(i)
        if _digest(raw) != digest:
            raise self.mismatch(i)
        return bytes(raw)


class _UnitMap(Mapping):
    """A map section of record 0: its units by id (bytes), each checked
    against its digest and decoded when it is read."""

    __slots__ = ("_rows", "_kind", "_lo", "_hi", "_decoded")

    def __init__(self, rows: _Rows, kind: bytes):
        self._rows, self._kind = rows, kind
        self._lo, self._hi = rows.span(kind)
        self._decoded: dict[bytes, dict] = {}

    def _find(self, item_id: bytes) -> int | None:
        key = self._kind + item_id.hex().encode().ljust(_ID)
        i = bisect_left(self._rows, key, self._lo, self._hi)
        return i if i < self._hi and self._rows[i] == key else None

    def __contains__(self, item_id: bytes) -> bool:
        return self._find(item_id) is not None

    def __getitem__(self, item_id: bytes) -> dict:
        """The unit, decoded once: the same object on every read, which
        callers do not change."""
        unit = self._decoded.get(item_id)
        if unit is None:
            i = self._find(item_id)
            if i is None:
                raise KeyError(item_id)
            unit = json.loads(self._rows.checked(i))
            if type(unit) is not dict:
                raise StateError(f"unit {item_id.hex()} of journal record 0 is not an object")
            self._decoded[item_id] = unit
        return unit

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self):
        return (bytes.fromhex(self._rows[i][1:].decode()) for i in range(self._lo, self._hi))

    def index(self) -> tuple[list[bytes], list[int], list[int], bytes]:
        """The map's rows, in order; where each unit starts and ends; and the
        line."""
        data, at = self._rows.data, self._rows.at
        rows = [data[i:i + _ROW] for i in range(at + self._lo * _ROW, at + self._hi * _ROW, _ROW)]
        try:
            offsets = [int(row[_AT:_AT + _NUMBER]) for row in rows]
            ends = [offset + int(row[_AT + _NUMBER:_AT + 2 * _NUMBER])
                    for offset, row in zip(offsets, rows)]
        except ValueError:
            raise StateError("journal record 0's index is malformed") from None
        return rows, offsets, ends, data


class _UnitList(Sequence):
    """A list section of record 0: its length is read from the index, its
    items are checked against the digest and decoded on first use."""

    def __init__(self, rows: _Rows, kind: bytes):
        lo, hi = rows.span(kind)
        if hi - lo != 1:
            raise ValueError(f"journal record 0 indexes {hi - lo} units of kind {kind.decode()}")
        self._rows, self._i, self._items = rows, lo, None
        self._count = int(rows[lo][1:])

    def __len__(self) -> int:
        return self._count

    def extended(self, items: list) -> tuple[tuple, bytes]:
        """The list's bytes (a view) followed by ``items``, and their digest:
        [a,b] then [c] is [a,b,c].  With ``items``, one hash over the list's
        bytes both checks them and digests the result."""
        raw, stored = self._rows.stored(self._i)
        if not items:
            return (raw,), stored
        pieces = (raw[:-1], b"," + dumps(items)[1:])
        digest = hashlib.sha256(pieces[0])
        check = digest.copy()
        check.update(b"]")
        if check.hexdigest().encode() != stored:
            raise self._rows.mismatch(self._i)
        digest.update(pieces[1])
        return pieces, digest.hexdigest().encode()

    def _decoded(self) -> list:
        if self._items is None:
            items = json.loads(self._rows.checked(self._i))
            if type(items) is not list or len(items) != self._count:
                raise StateError(f"journal record 0 does not hold the {self._count} items its "
                                 "index gives a list")
            self._items = items
        return self._items

    def __getitem__(self, i):
        return self._decoded()[i]

    def __iter__(self):
        return iter(self._decoded())


def _frame(data: bytes, end: int) -> tuple[int, int, int, int, bytes]:
    """Where record 0's units start, where its rows start and end, where its
    stored digest lies, and the digest its line up to the units, its rows and
    its trailer's numbers hash to."""
    trailer = end - len(_LINE_END) - _TRAILER
    if (not data.startswith(LINE_HEAD) or not data.startswith(LINE_MID, _BODY - len(LINE_MID))
            or not data.startswith(_LINE_END, end - len(_LINE_END), end)
            or not data.startswith(_TRAILER_HEAD, trailer - len(_TRAILER_HEAD), trailer)):
        raise ValueError("not a journal line with a unit index")
    numbers = data[trailer:trailer + 2 * _NUMBER]
    if not numbers.isdigit():
        raise ValueError("the index trailer is malformed")
    units_at, rows_at = int(numbers[:_NUMBER]), int(numbers[_NUMBER:])
    rows_end = trailer - len(_TRAILER_HEAD)
    if (not _BODY + len(_UNITS_HEAD) <= units_at <= rows_at - len(_ROWS_HEAD) <= rows_end
            or (rows_end - rows_at) % _ROW
            or not data.startswith(_UNITS_HEAD, units_at - len(_UNITS_HEAD), units_at)
            or not data.startswith(_ROWS_HEAD, rows_at - len(_ROWS_HEAD), rows_at)):
        raise ValueError("the unit index is misplaced")
    seal = _digest(memoryview(data)[:units_at], memoryview(data)[rows_at:rows_end], numbers)
    return units_at, rows_at, rows_end, trailer + 2 * _NUMBER, seal


@parses(StateError, "malformed journal record 0")
def decode_record0(data: bytes, end: int) -> tuple[bytes, dict]:
    """The h and the record of record 0, the first line ``data[:end]``.

    Only the header is parsed here; each unit is checked and decoded when a
    section object is asked for it.
    """
    units_at, rows_at, rows_end, seal_at, seal = _frame(data, end)
    if data[seal_at:seal_at + _DIGEST] != seal:
        raise ValueError("its header or index does not match its digest")
    record = json.loads(data[_BODY:units_at - len(_UNITS_HEAD)])
    _check_record(record)
    rows = _Rows(data, rows_at, (rows_end - rows_at) // _ROW)
    for parent, name, kind, container in _SECTIONS:
        holder = record[parent]
        if holder is None:
            continue  # no ledger
        if type(holder[name]) is not container or holder[name]:
            raise ValueError(f"its {parent}.{name} section is not indexed")
        holder[name] = (_UnitMap if container is dict else _UnitList)(rows, kind)
    return bytes.fromhex(data[len(LINE_HEAD):len(LINE_HEAD) + 64].decode()), record


# --- the state dir ---------------------------------------------------------------

#: a commit rewrites the state as one record once the records after record 0
#: would pass this many bytes
COMPACT_BYTES = 16 * 1024


@dataclass
class _Tip:
    """Where the next commit goes: after record ``seq``, hash ``h``, at byte
    ``valid`` of a file of ``size`` bytes whose record 0 ends at byte ``base``."""

    seq: int
    h: bytes
    base: int
    valid: int
    size: int


def _write_file(path: Path, data: bytes, mode: int):
    """Write ``data`` to ``path`` opened with ``mode`` (``os.O_TRUNC`` or ``os.O_APPEND``)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | mode, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def os_seed() -> int:
    """64 bits from the OS: a new dir's zone seed, and a command's given no --seed."""
    return secrets.randbits(64)


def _ledger(records: list[dict]) -> IdentityLedger | None:
    """The ledger each record makes or changes, in order."""
    ledger = None
    for record in records:
        changes = record["ledger"]
        if isinstance(changes, dict) and "group_id" in changes:
            if ledger is not None:
                raise StateError("a journal record makes a ledger that exists")
            ledger = IdentityLedger.lazy_from_state_dict(changes)
        elif changes is not None:
            if ledger is None:
                raise StateError("a journal record changes a ledger that does not exist")
            ledger.apply(changes)
    return ledger


class StateDir:
    """The state dir ``root``: its lock, and the state its ``zone.json`` holds."""

    def __init__(self, root: Path):
        self.root = root
        self.zone_path = root / "zone.json"
        # never read or written; perfbench/tracer.py sizes them
        self.tsa_path = root / "tsa.json"
        self.ledger_path = root / "ledger.json"
        self.lock_path = root / ".lock"
        self._loaded = None  # (zone, tsa, tip, record 0) of the last load_zone

    @contextmanager
    def session(self, seed: int | None = None):
        """Yield ``(zone, tsa)`` under the state dir's lock; save on completion.

        An exception or ``sys.exit`` inside the block saves nothing, so a
        refused or failed command leaves the state dir as it was, and removes
        it if the session created it.  A new dir's zone takes ``seed``, or
        one from the OS.
        """
        created = not self.root.exists()
        self.root.mkdir(parents=True, exist_ok=True)
        fd = self._take_lock()
        try:
            zone, tsa = self.load_zone(seed)
            yield zone, tsa
            self.save_zone(zone, tsa)
        finally:
            self._loaded = None
            # unlink before close: a session that flocks this .lock after the
            # close finds its path gone and refuses
            self.lock_path.unlink(missing_ok=True)
            os.close(fd)
            if created and not self.zone_path.exists():
                # a concurrent session's .lock keeps the dir non-empty
                with suppress(OSError):
                    self.root.rmdir()

    def _take_lock(self) -> int:
        """Open ``.lock`` and ``flock`` it; refuse a lock another process holds."""
        with suppress(FileNotFoundError):  # the dir's creator removed it after our mkdir
            fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # a lock on a .lock its last holder already unlinked locks nothing
                if os.path.samestat(os.fstat(fd), os.stat(self.lock_path)):
                    return fd
            except OSError:
                pass
            os.close(fd)
        raise StateError(f"state dir is locked ({self.lock_path}); another command is using it")

    def _read(self) -> tuple[list[dict], _Tip | None]:
        """Every whole record, and the tip after the last; none in a new state
        dir.  Each record after record 0 must chain from the one before it.
        An unterminated last line is a torn append, left out here and cut off
        by the next commit."""
        try:
            data = self.zone_path.read_bytes()
        except FileNotFoundError:
            return [], None
        end = data.find(b"\n")
        if end < 0:
            raise StateError(f"{self.zone_path} holds no whole record")
        h, record = decode_record0(data, end)
        records, tip = [record], _Tip(record["seq"], h, end + 1, end + 1, len(data))
        start, end = end + 1, data.find(b"\n", end + 1)
        while end >= 0:
            h, body, record = decode_line(data, start, end, len(records))
            if record["seq"] != tip.seq + 1 or sha256(tip.h + body) != h:
                raise StateError(f"journal record {len(records)} in {self.zone_path} does not "
                                 "chain from the record before it")
            tip.seq, tip.h, tip.valid = record["seq"], h, end + 1
            records.append(record)
            start, end = end + 1, data.find(b"\n", end + 1)
        return records, tip

    def load_zone(self, seed: int | None = None) -> tuple[SecureZone, TimestampAuthority]:
        """Record 0's state with the later records applied; each key and
        context is decoded the first time the command uses it."""
        records, tip = self._read()
        if not records:
            # a new dir: save_zone writes a zone it has no tip for whole
            tsa = TimestampAuthority(issuer="edgevault-tsa")
            return SecureZone(os_seed() if seed is None else seed, tsa), tsa
        tsa = TimestampAuthority.from_state_dict(records[-1]["tsa"])
        zone = SecureZone.lazy_from_state_dict(records[0]["zone"], tsa)
        for record in records[1:]:
            zone.apply(record["zone"])
        ledger = _ledger(records)
        if ledger is not None:
            zone.attach_ledger(ledger)
        self._loaded = (zone, tsa, tip, records[0])
        return zone, tsa

    def read_ledger(self) -> IdentityLedger | None:
        """The ledger alone, with no zone decoded; None if there is none."""
        return _ledger(self._read()[0])

    def save_zone(self, zone: SecureZone, tsa: TimestampAuthority):
        """Commit the state: for the zone :meth:`load_zone` last returned,
        append what changed, or compact.  Any other zone is written whole, as
        the first record of a new state dir; a dir that holds state refuses it."""
        self.root.mkdir(parents=True, exist_ok=True)
        loaded, self._loaded = self._loaded, None
        if loaded is None or loaded[0] is not zone or loaded[1] is not tsa:
            if self.zone_path.exists():
                raise StateError(f"{self.root} holds state, and this zone was not loaded from it")
            return self._compact(zone, tsa, 0, bytes(32))  # record 0's h in a new dir
        tip, base = loaded[2], loaded[3]
        ledger = zone.ledger.changes() if zone.ledger is not None else None
        body = dumps(_record(tip.seq + 1, tsa, zone.changes(), ledger))
        h = sha256(tip.h + body)
        line = encode_line(h, body)
        if tip.valid - tip.base + len(line) > COMPACT_BYTES:
            return self._compact(zone, tsa, tip.seq + 1, h, base)
        if tip.size != tip.valid:
            os.truncate(self.zone_path, tip.valid)
        _write_file(self.zone_path, line, os.O_APPEND)

    def _compact(self, zone: SecureZone, tsa: TimestampAuthority, seq: int, h: bytes,
                 base: dict | None = None):
        """Replace the file at once with the whole state as record 0: over
        ``base``, the record 0 the zone was loaded from, only the units that
        changed are encoded and the others are copied."""
        whole = base is None
        ledger = zone.ledger.state_dict(whole=whole) if zone.ledger is not None else None
        line = encode_record0(h, _record(seq, tsa, zone.state_dict(whole=whole), ledger), base)
        tmp = self.zone_path.with_name(self.zone_path.name + ".tmp")
        try:
            _write_file(tmp, line, os.O_TRUNC)
            os.replace(tmp, self.zone_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
