"""The lines of the CLI state file ``zone.json``.

Every line is ``{"h", "r"}`` JSON: ``h`` a chain value in hex and ``r`` a
record, written with sorted keys and no spaces.  Record 0 is the whole state,
``{"seq", "tsa", "zone", "ledger"}``; each later record holds what one command
changed.

Record 0 also carries a unit index, so a load decodes only the units a
command uses.  A unit is one key or context of the zone (the value under its
id in ``zone.keys`` or ``zone.contexts``), the zone's audit list or the
ledger's entry list, and its bytes in the line are exactly its bytes in
``r``.  The line is::

    {"h":"<h>","r":<r>,"u":"<rows>","t":"<trailer>"}

Each row is ``kind | id | offset | length | SHA-256``, fixed width, sorted
by kind and id: kind ``k`` for a key, ``c`` a context, ``a`` the audit and
``e`` the entries; the id is the unit's id in hex, space-padded (a list
unit's row gives its item count instead); offset and length locate the unit
in the line.  The fixed-width trailer holds the byte ranges of the four
sections' contents (the ledger's entries, the audit, the contexts, the keys,
in that order), the offset of the rows, and the SHA-256 of the header (``r``
with those ranges cut out, so each section reads as empty), the rows and the
trailer's numbers.  A load finds the trailer at the end of the line, checks
that digest, parses the header, and puts in each section an object that
finds a unit by binary search over the rows and checks its digest and decodes
it on first use.  A unit whose bytes do not match its digest is a corrupted
record 0.  A rewrite of record 0 over an earlier one copies each unit it does
not change, with its digest, and extends a list unit's bytes in place.
"""

from __future__ import annotations

import hashlib
import json
import re
from bisect import bisect_left
from collections.abc import Mapping, Sequence

from .crypto import U64_LIMIT
from .errors import StateError, parses

__all__ = ["LINE_HEAD", "LINE_MID", "dumps", "encode_line", "decode_line", "encode_record0",
           "decode_record0"]

LINE_HEAD, LINE_MID = b'{"h":"', b'","r":'
_BODY = len(LINE_HEAD) + 64 + len(LINE_MID)  # where r starts in a line
_ROWS_HEAD, _TRAILER_HEAD, _LINE_END = b',"u":"', b'","t":"', b'"}'

_ID, _NUMBER, _DIGEST = 64, 10, 64
_ROW = 1 + _ID + 2 * _NUMBER + _DIGEST
_CUTS = 8 * _NUMBER  # four (start, end) pairs
_TRAILER = _CUTS + _NUMBER + _DIGEST

#: the sections that hold units, in the order their contents lie in r:
#: (path from the record, row kind, the container the section is)
_SECTIONS = ((("ledger", "entries"), b"e", list), (("zone", "audit"), b"a", list),
             (("zone", "contexts"), b"c", dict), (("zone", "keys"), b"k", dict))
_SECTION_AT = {path: (kind, container) for path, kind, container in _SECTIONS}
_PARENTS = {path[:i] for path, _, _ in _SECTIONS for i in range(len(path))}

_UNIT_ID = re.compile(r"(?:[0-9a-f]{2}){1,32}")


def _digest(raw: bytes) -> bytes:
    return hashlib.sha256(raw).hexdigest().encode()


def dumps(value) -> bytes:
    """A record's bytes: JSON with sorted keys and no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _number(value: int) -> bytes:
    if not 0 <= value < 10 ** _NUMBER:
        raise ValueError(f"{value} does not fit the index")
    return b"%010d" % value


def encode_line(h: bytes, body: bytes) -> bytes:
    """The line ``{"h", "r"}`` of a later record whose bytes are ``body``."""
    return LINE_HEAD + h.hex().encode() + LINE_MID + body + b"}\n"


def _check_record(record: dict):
    if type(record["seq"]) is not int or not 0 <= record["seq"] < U64_LIMIT:
        raise ValueError("the sequence number is not an integer in [0, 2**64)")
    record["tsa"], record["zone"], record["ledger"]  # a missing section is a KeyError here


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


class _Writer:
    """Lays out r piece by piece and indexes the units as it goes."""

    def __init__(self, base: dict | None):
        self.base = base
        self.parts: list[bytes] = []
        self.at = 0  # the line offset of the next piece
        self.rows: list[bytes] = []
        self.cuts = {kind: (0, 0) for _, kind, _ in _SECTIONS}

    def put(self, data: bytes):
        self.parts.append(data)
        self.at += len(data)

    def unit(self, kind: bytes, unit_id: bytes, raw: bytes, digest: bytes):
        self.rows.append(kind + unit_id.ljust(_ID) + _number(self.at) + _number(len(raw))
                         + digest)
        self.put(raw)

    def value(self, value, path: tuple):
        section = _SECTION_AT.get(path)
        if section is not None and type(value) is section[1] and (
                section[1] is list or all(map(_UNIT_ID.fullmatch, value))):
            start = self.at + 1
            (self.map if section[1] is dict else self.list)(section[0], value, path)
            self.cuts[section[0]] = (start, self.at - 1)
        elif path in _PARENTS and type(value) is dict:
            self.put(b"{")
            for i, key in enumerate(sorted(value)):
                self.put((b"," if i else b"") + dumps(key) + b":")
                self.value(value[key], (*path, key))
            self.put(b"}")
        else:
            self.put(dumps(value))

    def _base(self, path: tuple):
        section = self.base
        for key in path:
            section = section[key] if section is not None else None
        return section

    def map(self, kind: bytes, units: dict, path: tuple):
        """The units of a map: those in ``units``, encoded, and every other
        unit of the base's map, copied with its digest."""
        base = self._base(path)
        copied = base.stored() if base is not None else {}
        self.put(b"{")
        for i, unit_id in enumerate(sorted({*copied, *units})):
            self.put(b'%s"%s":' % (b"," if i else b"", unit_id.encode()))
            if unit_id in units:
                raw = dumps(units[unit_id])
                self.unit(kind, unit_id.encode(), raw, _digest(raw))
            else:
                self.unit(kind, unit_id.encode(), *copied[unit_id])
        self.put(b"}")

    def list(self, kind: bytes, items: list, path: tuple):
        """A list unit: the base's items, if any, then ``items``."""
        base = self._base(path)
        count = _number(len(items) + (len(base) if base is not None else 0)).rjust(_ID, b"0")
        if base is not None and not items:
            self.unit(kind, count, *base.stored())
            return
        raw = dumps(items)
        if base is not None and len(base):
            # [a,b] then [c] is [a,b,c]: the checked bytes are extended, not decoded
            raw = base.checked()[:-1] + b"," + raw[1:]
        self.unit(kind, count, raw, _digest(raw))


def encode_record0(h: bytes, record: dict, base: dict | None = None) -> bytes:
    """Record 0's line for ``record``, the whole state, with chain value ``h``.

    With ``base``, a record 0 that :func:`decode_record0` returned,
    ``record`` need only hold what differs from it: each map the units
    written since (whole), each list the items after the base's.  Every
    other unit is copied from the base with its digest; a list unit is the
    base's bytes, checked, extended by the new items.
    """
    writer = _Writer(base)
    writer.put(LINE_HEAD + h.hex().encode() + LINE_MID)
    writer.value(record, ())
    rows = b"".join(sorted(writer.rows))
    numbers = b"".join(_number(a) + _number(b) for _, kind, _ in _SECTIONS
                       for a, b in [writer.cuts[kind]])
    numbers += _number(writer.at + len(_ROWS_HEAD))
    line = b"".join(writer.parts)
    seal = _seal(_header(line, writer.cuts.values(), len(line)), rows, numbers)
    return line + _ROWS_HEAD + rows + _TRAILER_HEAD + numbers + seal + _LINE_END + b"\n"


def _header(line: bytes, cuts, end: int) -> bytes:
    """r, ``line[_BODY:end]``, with each section's contents cut out."""
    pieces, at = [], _BODY
    for a, b in sorted(cuts):
        if a == b:
            continue
        if not at <= a <= b <= end:
            raise ValueError("the section ranges overlap or leave r")
        pieces.append(line[at:a])
        at = b
    pieces.append(line[at:end])
    return b"".join(pieces)


def _seal(header: bytes, rows, numbers: bytes) -> bytes:
    """The digest over record 0's header, index rows and trailer numbers."""
    digest = hashlib.sha256(header)
    digest.update(rows)
    digest.update(numbers)
    return digest.hexdigest().encode()


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

    def find(self, key: bytes, lo: int, hi: int) -> int | None:
        i = bisect_left(self, key, lo, hi)
        return i if i < hi and self[i] == key else None

    def stored(self, i: int) -> tuple[bytes, bytes]:
        """Row ``i``'s unit bytes and digest, not checked."""
        at = self.at + i * _ROW + 1 + _ID
        row = self.data[at:at + 2 * _NUMBER + _DIGEST]
        if not row[:2 * _NUMBER].isdigit():
            raise StateError(f"row {i} of journal record 0's index is malformed")
        offset = int(row[:_NUMBER])
        return self.data[offset:offset + int(row[_NUMBER:2 * _NUMBER])], row[2 * _NUMBER:]

    def checked(self, i: int) -> bytes:
        raw, digest = self.stored(i)
        if _digest(raw) != digest:
            raise StateError(f"unit {self[i].decode().rstrip()} of journal record 0 does not "
                             "match its digest")
        return raw


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
        return self._rows.find(key, self._lo, self._hi)

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

    def stored(self) -> dict[str, tuple[bytes, bytes]]:
        """Every unit's bytes and digest, not checked, by id hex."""
        rows = self._rows
        return {rows[i][1:].rstrip().decode(): rows.stored(i) for i in range(self._lo, self._hi)}


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

    def stored(self) -> tuple[bytes, bytes]:
        return self._rows.stored(self._i)

    def checked(self) -> bytes:
        return self._rows.checked(self._i)

    def _decoded(self) -> list:
        if self._items is None:
            items = json.loads(self.checked())
            if type(items) is not list or len(items) != self._count:
                raise StateError(f"journal record 0 does not hold the {self._count} items its "
                                 "index gives a list")
            self._items = items
        return self._items

    def __getitem__(self, i):
        return self._decoded()[i]

    def __iter__(self):
        return iter(self._decoded())


def _frame(data: bytes, end: int) -> tuple[bytes, int, int, int, bytes]:
    """Record 0's header, where its rows start and end, where its stored
    digest lies, and the digest its header, rows and trailer numbers hash to."""
    trailer = end - len(_LINE_END) - _TRAILER
    if (not data.startswith(LINE_HEAD) or not data.startswith(LINE_MID, _BODY - len(LINE_MID))
            or not data.startswith(_LINE_END, end - len(_LINE_END), end)
            or not data.startswith(_TRAILER_HEAD, trailer - len(_TRAILER_HEAD), trailer)):
        raise ValueError("not a journal line with a unit index")
    numbers = data[trailer:trailer + _CUTS + _NUMBER]
    if not numbers.isdigit():
        raise ValueError("the index trailer is malformed")
    rows_at, rows_end = int(numbers[_CUTS:]), trailer - len(_TRAILER_HEAD)
    if (not _BODY < rows_at <= rows_end or (rows_end - rows_at) % _ROW
            or not data.startswith(_ROWS_HEAD, rows_at - len(_ROWS_HEAD), rows_at)):
        raise ValueError("the unit index is misplaced")
    cuts = [(int(numbers[i:i + _NUMBER]), int(numbers[i + _NUMBER:i + 2 * _NUMBER]))
            for i in range(0, _CUTS, 2 * _NUMBER)]
    header = _header(data, cuts, rows_at - len(_ROWS_HEAD))
    seal = _seal(header, memoryview(data)[rows_at:rows_end], numbers)
    return header, rows_at, rows_end, trailer + _CUTS + _NUMBER, seal


@parses(StateError, "malformed journal record 0")
def decode_record0(data: bytes, end: int) -> tuple[bytes, dict]:
    """The h and the record of record 0, the first line ``data[:end]``.

    Only the header is parsed here; each unit is checked and decoded when a
    section object is asked for it.
    """
    header, rows_at, rows_end, seal_at, seal = _frame(data, end)
    if data[seal_at:seal_at + _DIGEST] != seal:
        raise ValueError("its header or index does not match its digest")
    record = json.loads(header)
    _check_record(record)
    rows = _Rows(data, rows_at, (rows_end - rows_at) // _ROW)
    for path, kind, container in _SECTIONS:
        holder = record
        for key in path[:-1]:
            holder = holder[key]
        if holder is None:
            continue  # no ledger
        if type(holder[path[-1]]) is not container or holder[path[-1]]:
            raise ValueError(f"its {'.'.join(path)} section is not indexed")
        holder[path[-1]] = (_UnitMap if container is dict else _UnitList)(rows, kind)
    return bytes.fromhex(data[len(LINE_HEAD):len(LINE_HEAD) + 64].decode()), record
