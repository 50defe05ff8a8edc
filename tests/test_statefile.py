"""The state file's line codec: record 0 and its unit index, read unit by unit.

The CLI's own tests drive the codec through commands; these pin the codec's
layout and every refusal of a record 0 whose frame, index or units are
malformed.  An edit that keeps the header digest right (``resealed``) is what
an editor who knows the layout could write.
"""

import json

import pytest

from edgevault import statefile
from edgevault.errors import StateError

from mutation import resealed

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


def _line(record=RECORD, h=b"\x07" * 32):
    return statefile.encode_record0(h, record)


def _decoded(line):
    return statefile.decode_record0(line, len(line) - 1)


def test_record_0_is_its_record_with_an_index_and_decodes_to_it():
    line = _line()
    assert json.loads(line)["r"] == RECORD
    assert statefile.dumps(RECORD) in line
    h, record = _decoded(line)
    assert h == b"\x07" * 32 and record["seq"] == 4 and record["tsa"] == RECORD["tsa"]
    zone = record["zone"]
    assert len(zone["keys"]) == 2
    assert set(zone["keys"]) == {bytes.fromhex(KEY), bytes.fromhex(OTHER)}
    assert zone["keys"][bytes.fromhex(KEY)] == RECORD["zone"]["keys"][KEY]
    assert bytes.fromhex(CONTEXT) in zone["contexts"] and bytes.fromhex(KEY) not in zone["contexts"]
    assert zone["contexts"].get(bytes.fromhex(KEY)) is None
    assert len(zone["audit"]) == 2 and zone["audit"][1] == {"op": "b", "sequence": 1}
    assert list(record["ledger"]["entries"]) == [{"index": 0}]


def test_a_new_state_without_a_ledger_has_no_entry_unit():
    line = _line({**RECORD, "ledger": None})
    assert _decoded(line)[1]["ledger"] is None
    assert json.loads(line)["u"].count("e" + "0" * 63) == 0


def test_a_rewrite_over_a_base_copies_what_it_does_not_change():
    line = _line()
    _, base = _decoded(line)
    changes = {**RECORD, "seq": 5,
               "zone": {**RECORD["zone"], "keys": {OTHER: {"uses": 3}},
                        "contexts": {"dd" * 32: {"key_id": KEY, "last_seen": None}},
                        "audit": [{"op": "c", "sequence": 2}]},
               "ledger": {**RECORD["ledger"], "entries": []}}
    whole = {**changes, "zone": {**changes["zone"],
                                 "keys": {**RECORD["zone"]["keys"], OTHER: {"uses": 3}},
                                 "contexts": {**RECORD["zone"]["contexts"],
                                              "dd" * 32: {"key_id": KEY, "last_seen": None}},
                                 "audit": RECORD["zone"]["audit"] + changes["zone"]["audit"]},
             "ledger": RECORD["ledger"]}
    assert statefile.encode_record0(b"\x07" * 32, changes, base) == _line(whole)


def test_an_offset_too_wide_for_the_index_is_refused():
    with pytest.raises(ValueError, match="does not fit the index"):
        statefile._number(10 ** 10)


def _trailer_at(line):
    return line.index(b'","t":"') + len(b'","t":"')


def _refused(line, message):
    with pytest.raises(StateError, match=f"^malformed journal record 0: {message}"):
        _decoded(line)


def test_a_trailer_that_is_not_digits_is_refused():
    line = _line()
    at = _trailer_at(line)
    _refused(line[:at] + b"x" + line[at + 1:], "the index trailer is malformed")


def test_a_section_range_outside_r_is_refused():
    line = _line()
    at = _trailer_at(line)
    _refused(line[:at] + b"9" * 10 + line[at + 10:], "the section ranges overlap or leave r")


def _rows_at(line):
    return line.index(b',"u":"') + len(b',"u":"')


def _row(line, kind):
    """Where the first row of ``kind`` starts."""
    at = _rows_at(line)
    while line[at:at + 1] != kind:
        at += statefile._ROW
    return at


def test_a_row_whose_offset_is_not_digits_is_refused_when_its_unit_is_read():
    line = _line()
    at = _row(line, b"k") + 1 + 64
    _, record = _decoded(resealed(line[:at] + b"x" + line[at + 1:]))
    with pytest.raises(StateError, match="index is malformed"):
        record["zone"]["keys"][bytes.fromhex(KEY)]


def test_a_list_row_whose_count_is_wrong_is_refused_when_the_list_is_read():
    line = _line()
    at = _row(line, b"a") + 64  # the last digit of the audit's item count
    _, record = _decoded(resealed(line[:at] + b"3" + line[at + 1:]))
    assert len(record["zone"]["audit"]) == 3
    with pytest.raises(StateError, match="does not hold the 3 items its index gives a list"):
        list(record["zone"]["audit"])


def test_a_list_section_indexed_twice_is_refused():
    line = _line()
    at = _row(line, b"c")
    _refused(resealed(line[:at] + b"a" + line[at + 1:]),
             "journal record 0 indexes 2 units of kind a")


def test_a_later_line_that_is_not_a_journal_line_is_refused():
    line = statefile.encode_line(bytes(32), statefile.dumps(RECORD))
    with pytest.raises(StateError, match="^malformed journal record 3: not a journal line$"):
        statefile.decode_line(line.replace(b'","r":', b'","x":'), 0, len(line) - 1, 3)


def test_a_map_whose_ids_are_not_hex_is_left_in_the_header_and_refused():
    """The codec indexes only ids it can write in a row; any other map stays
    in the header, where a load refuses it."""
    line = _line({**RECORD, "zone": {**RECORD["zone"], "keys": {"KEY": {}}}})
    assert b'"keys":{"KEY":{}}' in line
    _refused(line, r"its zone\.keys section is not indexed")
