"""The state file's line codec: record 0 and its unit index, read unit by unit.

The CLI's own tests drive the codec through commands; these pin the codec's
layout and every refusal of a record 0 whose frame, index or units are
malformed.  An edit that keeps the header digest right (``resealed``) is what
an editor who knows the layout could write.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevault import cli, statefile
from edgevault.errors import StateError

from mutation import resealed, whole_record0

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
    """``r`` is the record with its unit sections empty, ``d`` the units in
    row order; no id of a key or context is written before its unit."""
    line = _line()
    document = json.loads(line)
    assert list(document) == ["h", "r", "d", "u", "t"]
    empty = {**RECORD, "zone": {**RECORD["zone"], "keys": {}, "contexts": {}, "audit": []},
             "ledger": {**RECORD["ledger"], "entries": []}}
    assert document["r"] == empty
    assert document["d"] == [RECORD["zone"]["audit"], RECORD["zone"]["contexts"][CONTEXT],
                             RECORD["ledger"]["entries"], *RECORD["zone"]["keys"].values()]
    assert all(b'"%s":' % unit_id.encode() not in line for unit_id in (KEY, OTHER, CONTEXT))
    assert whole_record0(line)["r"] == RECORD
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


def test_a_trailer_number_that_does_not_point_at_its_field_is_refused():
    """Where the units start and where the rows start, each moved."""
    line = _line()
    for at in (_trailer_at(line), _trailer_at(line) + statefile._NUMBER):
        for moved in (b"0" * 10, b"9" * 10, b"%010d" % (int(line[at:at + 10]) - 1)):
            _refused(line[:at] + moved + line[at + 10:], "the unit index is misplaced")


def _rows_at(line):
    return line.index(b',"u":"') + len(b',"u":"')


def _row(line, kind):
    """Where the first row of ``kind`` starts."""
    at = _rows_at(line)
    while line[at:at + 1] != kind:
        at += statefile._ROW
    return at


def test_a_row_whose_offset_is_not_digits_is_refused_when_its_unit_is_read():
    """And when a rewrite would copy the units around it."""
    line = _line()
    at = _row(line, b"k") + 1 + 64
    _, record = _decoded(resealed(line[:at] + b"x" + line[at + 1:]))
    with pytest.raises(StateError, match="index is malformed"):
        record["zone"]["keys"][bytes.fromhex(KEY)]
    with pytest.raises(StateError, match="^journal record 0's index is malformed$"):
        statefile.encode_record0(b"\x07" * 32, {**RECORD, "zone": {**RECORD["zone"], "keys": {}}},
                                 record)


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


@pytest.mark.parametrize("document", [[RECORD], None, {**RECORD, "zone": 7, "ledger": None}],
                         ids=["a-list", "null", "a-zone-that-is-no-object"])
def test_a_document_with_nothing_to_index_is_kept_in_the_header_and_refused(document):
    """The codec writes any JSON document; what it cannot index stays in the
    header, and a load refuses it with the state's error."""
    line = _line(document)
    assert json.loads(line)["r"] == document and json.loads(line)["d"] == []
    with pytest.raises(StateError, match="^malformed journal record 0: "):
        _decoded(line)


def test_a_section_that_is_not_its_container_is_left_in_the_header_and_refused():
    line = _line({**RECORD, "zone": {**RECORD["zone"], "keys": [{}]}})
    assert b'"keys":[{}]' in line
    _refused(line, r"its zone\.keys section is not indexed")


def test_an_edited_comma_between_two_units_is_refused_only_by_a_copy_of_them():
    """No digest covers the commas between the units of ``d``: each unit is
    found by its row, so both still decode, but a rewrite that would copy
    them as one run refuses."""
    sep = b',{"uses":0}'
    line = _line()
    assert line.count(sep) == 1
    _, record = _decoded(line.replace(sep, b" " + sep[1:]))
    keys = record["zone"]["keys"]
    assert [keys[unit_id] for unit_id in keys] == list(RECORD["zone"]["keys"].values())
    changes = {**RECORD, "zone": {**RECORD["zone"], "keys": {}, "contexts": {}, "audit": []},
               "ledger": {**RECORD["ledger"], "entries": []}}
    with pytest.raises(StateError, match=f"^unit k{OTHER} of journal record 0 is not one comma "
                                         "after the unit before it$"):
        statefile.encode_record0(b"\x07" * 32, changes, record)
    # a rewrite that encodes either unit again copies no run across the comma
    rewritten = {**changes, "zone": {**changes["zone"], "keys": {OTHER: {"uses": 1}}}}
    _, record = _decoded(statefile.encode_record0(b"\x07" * 32, rewritten, record))
    assert record["zone"]["keys"][bytes.fromhex(OTHER)] == {"uses": 1}


# --- a rewrite over a base is the whole rewrite --------------------------------------

_IDS = st.binary(min_size=1, max_size=32).map(bytes.hex)  # every width a row can hold
_UNITS = st.fixed_dictionaries({"n": st.integers(0, 2 ** 53), "s": st.text(max_size=4)})
_ITEMS = st.lists(st.fixed_dictionaries({"i": st.integers(0, 99)}), max_size=3)


@st.composite
def _changed(draw, units: dict) -> dict:
    """New units for the first, the last, two adjacent, every, none or any
    of the map ``units``, and for new ids before, between or after them."""
    ids = sorted(units)
    pick = draw(st.sampled_from(["first", "last", "adjacent", "every", "none", "any"]))
    if pick == "adjacent":
        at = draw(st.integers(0, max(len(ids) - 2, 0)))
        changed = ids[at:at + 2]
    elif pick == "any":
        changed = draw(st.lists(st.sampled_from(ids), unique=True)) if ids else []
    else:
        changed = {"first": ids[:1], "last": ids[-1:], "every": ids, "none": []}[pick]
    new = draw(st.lists(_IDS | st.sampled_from(["00", "ff" * 32]), max_size=3))
    return {unit_id: draw(_UNITS) for unit_id in [*changed, *new]}


def _state(seq, keys, contexts, audit, ledger):
    return {"seq": seq, "tsa": {"issuer": "t", "last_epoch": seq, "sequence": seq},
            "zone": {"op_counter": seq, "kek_id": "aa", "keys": keys, "contexts": contexts,
                     "audit": audit},
            "ledger": ledger}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_rewrite_over_a_base_is_the_whole_rewrite(data):
    keys, contexts = (data.draw(st.dictionaries(_IDS, _UNITS, max_size=40)) for _ in range(2))
    audit, entries = data.draw(_ITEMS), data.draw(st.none() | _ITEMS)
    ledger = None if entries is None else {"group_id": "g", "entries": entries}
    _, base = _decoded(_line(_state(1, keys, contexts, audit, ledger)))
    new_keys, new_contexts = data.draw(_changed(keys)), data.draw(_changed(contexts))
    new_audit, new_entries = data.draw(_ITEMS), data.draw(_ITEMS)
    changes = _state(2, new_keys, new_contexts, new_audit,
                     None if ledger is None else {**ledger, "entries": new_entries})
    whole = _state(2, {**keys, **new_keys}, {**contexts, **new_contexts}, audit + new_audit,
                   None if ledger is None else {**ledger, "entries": entries + new_entries})
    line = statefile.encode_record0(b"\x07" * 32, changes, base)
    assert line == _line(whole)
    _, record = _decoded(line)
    for name in ("keys", "contexts"):
        units = record["zone"][name]
        assert {unit_id.hex(): units[unit_id] for unit_id in units} == whole["zone"][name]
    assert list(record["zone"]["audit"]) == whole["zone"]["audit"]
    if ledger is not None:
        assert list(record["ledger"]["entries"]) == whole["ledger"]["entries"]


# --- a rewrite's Python work does not grow with the units it copies ----------------


def _devices(count: int) -> dict:
    """The whole state of ``count`` devices: a key and a context each, three
    more keys, an entry each, with the zone's id widths."""
    keys = {f"{i:032x}": {"material": "00" * 32, "uses": i} for i in range(count + 3)}
    contexts = {f"{i:064x}": {"key_id": f"{i:032x}", "last_seen": None} for i in range(count)}
    audit = [{"op": "authorize", "sequence": i} for i in range(count)]
    return _state(1, keys, contexts, audit, {"group_id": "g", "entries": [{"index": i}
                                                                          for i in range(count)]})


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


def test_a_rewrite_makes_as_many_python_calls_over_400_devices_as_over_25():
    """The same changes over 25 and over 400 devices' untouched units: three
    keys and two contexts changed, one context and two audit entries new.  A
    generator resumed once per copied unit would count one call per unit."""
    changes = _state(2, {f"{i:032x}": {"uses": 0} for i in (0, 7, 23)},
                     {**{f"{i:064x}": {"key_id": "", "last_seen": None} for i in (3, 4)},
                      "ff" * 32: {"key_id": "", "last_seen": None}},
                     [{"op": "authorize", "sequence": -1}] * 2, {"group_id": "g", "entries": []})
    calls = {}
    for count in (25, 400):
        _, base = _decoded(_line(_devices(count)))
        calls[count] = _python_calls(lambda: statefile.encode_record0(b"\x07" * 32, changes, base))
    assert calls[400] <= 1.2 * calls[25], calls


# --- one module owns the state file ------------------------------------------------


def test_the_state_file_layer_is_statefile_alone():
    """``statefile`` loads without click, in a fresh interpreter, and
    ``cli`` defines no part of the layer, so a second copy cannot grow
    back there."""
    src = str(Path(statefile.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = "import sys, edgevault.statefile; print('click' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    own = set(vars(cli)).union(*(vars(value) for value in vars(cli).values()
                                 if isinstance(value, type) and value.__module__ == cli.__name__))
    assert not own & {"_read", "_compact", "COMPACT_BYTES"}
    assert issubclass(cli.AppState, statefile.StateDir)
