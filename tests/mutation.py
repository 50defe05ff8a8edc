"""Byte- and value-edit strategies shared by the parser fuzz tests."""

import copy

from hypothesis import strategies as st

from edgevault import statefile

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


# --- record 0 of the CLI state file ---


def resealed(line: bytes) -> bytes:
    """Record 0's ``line``, edited in place, with the digest over its header
    and index recomputed, as an editor who knows the layout would."""
    *_, seal_at, seal = statefile._frame(line, len(line) - 1)
    return line[:seal_at] + seal + line[seal_at + len(seal):]


def whole_record0(data: bytes) -> dict:
    """Record 0 of the state file ``data`` as ``{"h", "r"}``, read through
    the codec: ``r`` is the whole state, each map by id hex and each list a
    list, as a later record holds them."""
    h, record = statefile.decode_record0(data, data.index(b"\n"))
    for parent, name, _, container in statefile._SECTIONS:
        if record[parent] is not None:
            section = record[parent][name]
            record[parent][name] = ({i.hex(): section[i] for i in section} if container is dict
                                    else list(section))
    return {"h": h.hex(), "r": record}
