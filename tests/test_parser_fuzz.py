"""Hypothesis fuzz of the byte parsers on the authorize and CLI input paths.

Each parser gets 1-3 byte edits of a valid encoding plus arbitrary bytes;
only ``EdgeVaultError`` may escape.  Inputs that once leaked something else
are kept below as named cases.
"""

import pytest
from hypothesis import given, settings

from edgevault.bloom import BloomFilter
from edgevault.crypto import AeadRecord, NonceSequence
from edgevault.errors import EdgeVaultError, FilterParameterError, StateError
from edgevault.quasigroup import Quasigroup, generate_quasigroup
from edgevault.shares import PlainShare, SealedShare, seal_share, split

from mutation import mutants

CTX = bytes(32)
_Q = generate_quasigroup(16, 77)
_EDGE, _CLOUD, _ = split(b"attack at dawn..", _Q, CTX, rng_seed=5)
_SEALED = seal_share(_CLOUD, bytes(range(32)), CTX, NonceSequence(1))

PLAIN_SHARE = _EDGE.to_bytes()
AEAD_RECORD = _SEALED.record.to_bytes()
SEALED_JSON = _SEALED.to_json().encode()
TABLE = generate_quasigroup(5, 2).to_bytes()


def _filter_bytes():
    filt = BloomFilter.create(8, 0.01)
    for i in range(8):
        filt.insert(bytes([i]) * 32)
    return filt.to_bytes()


FILTER = _filter_bytes()

FUZZ = settings(max_examples=300, deadline=None)


@FUZZ
@given(mutants(PLAIN_SHARE))
def test_mutated_plain_share_raises_only_edgevault_errors(payload):
    try:
        share = PlainShare.from_bytes(payload)
    except EdgeVaultError:
        return
    assert share.to_bytes() == payload


@FUZZ
@given(mutants(AEAD_RECORD))
def test_mutated_aead_record_raises_only_edgevault_errors(payload):
    try:
        record = AeadRecord.from_bytes(payload)
    except EdgeVaultError:
        return
    assert record.to_bytes() == payload


@FUZZ
@given(mutants(SEALED_JSON))
def test_mutated_sealed_share_raises_only_edgevault_errors(payload):
    try:
        SealedShare.from_json(payload.decode("utf-8", "surrogateescape")).to_json()
    except EdgeVaultError:
        pass


@FUZZ
@given(mutants(TABLE))
def test_mutated_table_raises_only_edgevault_errors(payload):
    try:
        q = Quasigroup.from_bytes(payload)
    except EdgeVaultError:
        return
    assert q.to_bytes() == payload


@FUZZ
@given(mutants(FILTER))
def test_mutated_filter_raises_only_edgevault_errors(payload):
    try:
        BloomFilter.from_bytes(payload).contains(CTX)
    except EdgeVaultError:
        pass


def test_deeply_nested_sealed_share_is_state_error():
    # json.loads raised a raw RecursionError through from_json
    with pytest.raises(StateError):
        SealedShare.from_json("[" * 100_000)


@pytest.mark.parametrize("m,k", [(1, 2), (8, (1 << 64) - 1)])
def test_filter_with_more_probes_than_bits_is_rejected(m, k):
    # a parsed k of 2^64 - 1 made every contains() loop for ever
    payload = BloomFilter(m, 1).to_bytes()
    payload = payload[:8] + k.to_bytes(8, "big") + payload[16:]
    with pytest.raises(FilterParameterError):
        BloomFilter.from_bytes(payload)
