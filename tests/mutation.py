"""Byte-edit strategies shared by the parser fuzz tests."""

from hypothesis import strategies as st

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
