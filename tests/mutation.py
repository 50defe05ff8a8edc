"""Helpers shared by the tests: byte- and value-edit strategies for the
parser fuzz tests, and writers and editors of a state dir's ``zone.db``."""

import contextlib
import copy
import json
import pathlib
import re
import sqlite3

from hypothesis import strategies as st

from edgevault import statefile
from edgevault.crypto import TimestampAuthority
from edgevault.curves import standard_curve
from edgevault.ledger import IdentityLedger
from edgevault.securezone import SecureZone

# 1-3 edits of a valid encoding: (op, position, byte), positions wrap
_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "insert", "delete"]),
              st.integers(0, 1 << 16), st.integers(0, 255)),
    min_size=1, max_size=3,
)


def _mutate(data, edits):
    buf = bytearray(data)
    for op, pos, byte in edits:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif buf and op == "replace":
            buf[pos % len(buf)] = byte
        elif buf:
            del buf[pos % len(buf)]
    return bytes(buf)


def mutants(valid: bytes):
    """Edited copies of ``valid`` plus arbitrary byte strings."""
    return st.one_of(st.builds(_mutate, st.just(valid), _EDITS), st.binary(max_size=600))


# --- value-level edits of a parsed JSON document ---

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)

# 1-3 edits: (op, node, value); node numbers wrap over the document's nodes
_JSON_EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "drop", "wrap"]), st.integers(0, 1 << 16), JSON_VALUES),
    min_size=1, max_size=3,
)


def _slots(node):
    """(container, key) of every node below ``node``, depth first."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        yield node, key
        yield from _slots(node[key])


def _edit_json(doc, edits):
    holder = [copy.deepcopy(doc)]  # the root is a node too
    for op, pos, value in edits:
        slots = list(_slots(holder))
        container, key = slots[pos % len(slots)]
        if op == "replace":
            container[key] = value
        elif op == "wrap":
            container[key] = [container[key]]
        elif container is not holder:
            del container[key]
    return holder[0]


def json_mutants(valid):
    """Copies of the JSON value ``valid`` with 1-3 nodes replaced by an
    arbitrary JSON value, dropped, or wrapped in a list."""
    return st.builds(_edit_json, st.just(valid), _JSON_EDITS)


# --- the CLI state file, zone.db ---


def write_state(root, document, h: str = "00" * 32):
    """Write ``document``, the state ``{"seq", "tsa", "zone", "ledger"}`` or
    any JSON value, as ``root/zone.db``, laid out as a new dir's: each key,
    context, audit entry and ledger entry a row and the rest the header (with
    ``h`` if it has none), every row with its digest.  A section that is not
    its container, a map of hex ids for the keys and contexts and a list for
    the audit and entries, stays in the header, as an editor might leave it."""
    header, rows = copy.deepcopy(document), []
    if isinstance(header, dict):
        header.setdefault("h", h)
        zone, ledger = header.get("zone"), header.get("ledger")
        for holder, name, kind in ((zone, "keys", "k"), (zone, "contexts", "c"),
                                   (zone, "audit", "a"), (ledger, "entries", "e")):
            section = holder.get(name) if isinstance(holder, dict) else None
            if isinstance(section, list) and kind in "ae":
                rows += [(kind, i.to_bytes(8, "big"), statefile.dumps(item))
                         for i, item in enumerate(section)]
                holder[name] = len(section)
            elif isinstance(section, dict) and kind in "kc" and all(
                    re.fullmatch("(?:[0-9a-f]{2})+", unit_id) for unit_id in section):
                rows += [(kind, bytes.fromhex(unit_id), statefile.dumps(unit))
                         for unit_id, unit in section.items()]
                del holder[name]
    rows.append(("h", b"", statefile.dumps(header)))
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name in ("zone.db", "zone.db-journal"):
        (root / name).unlink(missing_ok=True)
    with contextlib.closing(sqlite3.connect(root / "zone.db")) as db, db:
        for statement in statefile.SCHEMA:
            db.execute(statement)
        db.executemany("INSERT INTO unit VALUES (?, ?, ?, ?)",
                       [(*row, statefile.unit_digest(*row)) for row in rows])


def stored_rows(root) -> dict:
    """Every unit row of ``root/zone.db``, not checked: (body, digest) by (kind, id)."""
    with contextlib.closing(sqlite3.connect(pathlib.Path(root) / "zone.db")) as db:
        return {(kind, unit_id): (body, digest)
                for kind, unit_id, body, digest in db.execute("SELECT * FROM unit")}


def stored_header(root) -> dict:
    """The header row of ``root/zone.db``, decoded and not checked."""
    return json.loads(stored_rows(root)["h", b""][0])


def edit_row(root, kind: str, unit_id: bytes, edit, reseal: bool = False):
    """Replace the body of ``root/zone.db``'s row (``kind``, ``unit_id``) with
    ``edit(body)``; with ``reseal``, recompute its digest as an editor who
    knows the layout would."""
    with contextlib.closing(sqlite3.connect(pathlib.Path(root) / "zone.db")) as db, db:
        (body,), = db.execute("SELECT body FROM unit WHERE kind = ? AND id = ?", (kind, unit_id))
        body = edit(body)
        db.execute("UPDATE unit SET body = ? WHERE kind = ? AND id = ?", (body, kind, unit_id))
        if reseal:
            db.execute("UPDATE unit SET digest = ? WHERE kind = ? AND id = ?",
                       (statefile.unit_digest(kind, unit_id, body), kind, unit_id))


def built_dir(root, devices: int):
    """A dir of ``devices`` registered, split devices, each authorized once,
    written whole as a new dir; and the last device's context (hex) and the
    path of its cloud share."""
    root = pathlib.Path(root)
    tsa = TimestampAuthority(issuer="edgevault-tsa", clock=lambda: 1_700_000_000)
    zone = SecureZone(3, tsa)
    zone.attach_ledger(IdentityLedger(group_id="g", curve=standard_curve()))
    for i in range(devices):
        entry = zone.register_device(f"d{i}", rng_seed=i)
        key_id = zone.generate_key("data-encryption", rng_seed=i)
        share = zone.split_and_distribute(key_id, entry.h2, q_order=16, rng_seed=i).cloud_share
        assert zone.authorize_transaction(entry.h2, share, tsa.issue()).accepted
    statefile.StateDir(root).save_zone(zone, tsa)
    path = root.parent / f"{root.name}.json"
    path.write_text(share.to_json())
    return entry.h2.hex(), path
