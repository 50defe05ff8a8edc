"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criteria with runtime ceilings measure and assert them.
"""

import struct
import time

import numpy as np
import pytest
from scipy import stats

from edgevault.bloom import BloomFilter
from edgevault.crypto import AeadRecord, NonceSequence, TimestampAuthority, Timestamp
from edgevault.curves import (
    CurvePoint,
    WeierstrassCurve,
    is_on_curve,
    select_unique_point,
    standard_curve,
    tiny_curve,
)
from edgevault.errors import CurveError
from edgevault.ledger import IdentityLedger, LedgerEntry
from edgevault.profiler import Sample, detect_outliers, fit_distribution
from edgevault.quasigroup import generate_quasigroup, is_latin_square, verify_parastroph_identities
from edgevault.securezone import SecureZone
from edgevault.shares import SealedShare, combine_and_verify, seal_share, split
from edgevault.simnet import builtin_scenarios, events_to_jsonl, run_scenario

KEY = bytes(range(32))


class Tick:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1
        return self.now


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_quasigroup_laws():
    """All six identities hold exhaustively for generated tables."""
    start = time.perf_counter()
    failures = 0
    for order in (2, 3, 4, 8, 16, 32, 64):
        for seed in range(50):
            q = generate_quasigroup(order, seed)
            if not is_latin_square(q.table):
                failures += 1
                continue
            if not verify_parastroph_identities(q, mode="exhaustive").passed:
                failures += 1
    elapsed = time.perf_counter() - start
    _report(1, failures == 0 and elapsed < 10.0,
            f"350 tables, {failures} failures, {elapsed:.2f}s < 10s")


def test_criterion_2_round_trip():
    """combine(split(secret)) is the identity for 1000 random secrets."""
    rng = np.random.default_rng(2024)
    orders = (2, 16, 256)
    start = time.perf_counter()
    failures = 0
    ctx = bytes(32)
    for i in range(1000):
        order = orders[i % 3]
        secret = rng.bytes(int(rng.integers(1, 4097)))
        q = generate_quasigroup(order, int(rng.integers(0, 2 ** 63)))
        s1, s2, record = split(secret, q, ctx, rng_seed=int(rng.integers(0, 2 ** 63)))
        nonces = NonceSequence(i)
        sealed1 = seal_share(s1, KEY, ctx, nonces)
        sealed2 = seal_share(s2, KEY, ctx, nonces)
        if combine_and_verify(sealed1, sealed2, record, KEY) != secret:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(2, failures == 0 and elapsed < 30.0,
            f"1000 secrets x orders {orders}, {failures} failures, {elapsed:.2f}s < 30s")


def test_criterion_3_per_digit_hiding():
    """Share-1 digits are uniform for a fixed secret digit (chi-square)."""
    n = 16
    fixed_digit_secret = b"\xaa" * 50_000  # 100000 base-16 digits, all = 10
    q = generate_quasigroup(n, 7)
    s1, _, _ = split(fixed_digit_secret, q, bytes(32), rng_seed=2024)
    assert s1.digits.shape[0] == 100_000
    counts = np.bincount(s1.digits, minlength=n)
    result = stats.chisquare(counts)
    _report(3, result.pvalue > 0.01,
            f"n=16, 1e5 draws, chi-square p={result.pvalue:.4f} > 0.01")


def test_criterion_4_impersonation_resistance():
    """Zero false accepts over forgeries and replays; zero false rejects."""
    start = time.perf_counter()
    tsa = TimestampAuthority(issuer="acc-tsa", clock=Tick())
    zone = SecureZone(zone_seed=4, tsa=tsa)
    ctx = bytes(range(32))
    key_id = zone.generate_key("data-encryption", rng_seed=1)
    dist = zone.split_and_distribute(key_id, ctx, q_order=256, rng_seed=2)
    genuine = dist.cloud_share
    rng = np.random.default_rng(4)

    # 10^3 honest transactions, all must be accepted
    false_rejects = 0
    accepted_ts: list[Timestamp] = []
    for _ in range(1000):
        ts = tsa.issue()
        if zone.authorize_transaction(ctx, genuine, ts).accepted:
            accepted_ts.append(ts)
        else:
            false_rejects += 1

    # 10^3 replays of previously accepted timestamps, none may pass
    false_accepts = 0
    for _ in range(1000):
        ts = accepted_ts[int(rng.integers(0, len(accepted_ts)))]
        if zone.authorize_transaction(ctx, genuine, ts).accepted:
            false_accepts += 1

    # 10^5 random forged shares with fresh timestamps, none may pass
    ct_len = len(genuine.record.ciphertext)
    stride = 12 + ct_len + 16 + 32
    slab = rng.bytes(100_000 * stride)  # one draw; slices below are the forgeries
    for i in range(100_000):
        base = i * stride
        forged = SealedShare(
            index=2,
            record=AeadRecord(
                slab[base:base + 12],
                slab[base + 12:base + 12 + ct_len],
                slab[base + 12 + ct_len:base + 28 + ct_len],
            ),
            binding_tag=slab[base + 28 + ct_len:base + stride],
        )
        if zone.authorize_transaction(ctx, forged, tsa.issue()).accepted:
            false_accepts += 1
    elapsed = time.perf_counter() - start
    _report(4, false_accepts == 0 and false_rejects == 0 and elapsed < 60.0,
            f"1e5 forgeries + 1e3 replays: {false_accepts} accepted; "
            f"1e3 honest: {false_rejects} rejected; {elapsed:.2f}s < 60s")


def test_criterion_5_ledger_integrity():
    """Exhaustive single-bit tamper detection with exact index reporting."""
    tsa = TimestampAuthority(issuer="led-tsa", clock=Tick())
    ledger = IdentityLedger(group_id="acc", curve=tiny_curve())
    for i in range(5):
        ledger.register_device(f"dev-{i}", tsa, KEY, rng_seed=i)
    assert ledger.verify_chain().valid
    assert ledger.entries[0].h2 == ledger.entries[0].h1  # first-entry rule

    base = [
        (e.ciphertext_record.to_bytes(), e.timestamp.to_bytes(), e.h1, e.h2)
        for e in ledger.entries
    ]
    record_len = len(base[0][0])
    total = 0
    missed = 0
    wrong_index = 0
    for i in range(5):
        blob = b"".join(base[i])
        for bit in range(len(blob) * 8):
            mutated = bytearray(blob)
            mutated[bit // 8] ^= 1 << (bit % 8)
            mrec = bytes(mutated[:record_len])
            epoch, seq = struct.unpack(">QQ", mutated[record_len:record_len + 16])
            mh1 = bytes(mutated[record_len + 16:record_len + 48])
            mh2 = bytes(mutated[record_len + 48:])
            tampered = IdentityLedger(group_id="acc", curve=tiny_curve())
            for j, entry in enumerate(ledger.entries):
                if j == i:
                    tampered.entries.append(LedgerEntry(
                        device_label=entry.device_label,
                        ciphertext_record=AeadRecord.from_bytes(mrec),
                        timestamp=Timestamp(epoch, entry.timestamp.issuer, seq),
                        h1=mh1,
                        h2=mh2,
                    ))
                else:
                    tampered.entries.append(entry)
            report = tampered.verify_chain()
            total += 1
            if report.valid:
                missed += 1
            elif report.first_bad_index != i:
                wrong_index += 1
    _report(5, missed == 0 and wrong_index == 0,
            f"{total} single-bit tampers: {missed} missed, {wrong_index} wrong index; "
            f"untampered valid; h2==h1 on first entry")


def test_criterion_6_curve_correctness():
    """Desk-scale exhaustive point sets, singular rejection, 256-bit sampling."""
    f5 = {(x, y) for x in range(5) for y in range(5)
          if (y * y - (x ** 3 + x + 1)) % 5 == 0}
    assert len(f5) == 8
    curve5 = tiny_curve()
    matches = all(
        is_on_curve(curve5, CurvePoint(x, y)) == ((x, y) in f5)
        for x in range(5) for y in range(5)
    )

    singular_rejected = False
    try:
        WeierstrassCurve.short(5, 0, 0)  # y^2 = x^3, discriminant 0
    except CurveError:
        singular_rejected = True

    curve = standard_curve()
    used: set[tuple[int, int]] = set()
    off_curve = 0
    for seed in range(10_000):
        pt = select_unique_point(curve, used, rng_seed=seed)
        if not is_on_curve(curve, pt):
            off_curve += 1
        used.add(pt)
    _report(6, matches and singular_rejected and off_curve == 0 and len(used) == 10_000,
            f"F5 set exact; singular rejected; 10^4 selected points on curve "
            f"({off_curve} off)")


def test_criterion_7_profiler_recovery():
    """>= 95% correct family at N=1000 over 200 trials; affine invariance."""
    generators = {
        "normal": lambda r: r.normal(0, 1, 1000),
        "exponential": lambda r: r.exponential(1.0, 1000),
        "uniform": lambda r: r.uniform(0, 1, 1000),
        "lognormal": lambda r: r.lognormal(0.0, 0.5, 1000),
    }
    rates = {}
    for family, gen in generators.items():
        hits = sum(
            fit_distribution(Sample(gen(np.random.default_rng(seed)))).best_family == family
            for seed in range(200)
        )
        rates[family] = hits / 200

    rng = np.random.default_rng(9)
    values = rng.normal(5, 2, 4000)
    base = detect_outliers(Sample(values), 2.5).tolist()
    invariant = all(
        detect_outliers(Sample(a * values + b), 2.5).tolist() == base
        for a, b in ((3.0, 1.0), (-2.0, 10.0), (0.01, -5.0))
    )
    ok = all(rate >= 0.95 for rate in rates.values()) and invariant
    _report(7, ok, f"recovery rates {rates}; affine invariance {invariant}")


def test_criterion_8_bloom_filter():
    """No false negatives; observed FPR within 2x of the 0.01 design."""
    rng = np.random.default_rng(8)
    filt = BloomFilter.create(10_000, 0.01)
    inserted = [rng.bytes(32) for _ in range(10_000)]
    for device_id in inserted:
        filt.insert(device_id)
    false_negatives = sum(not filt.contains(d) for d in inserted)
    hits = sum(filt.contains(rng.bytes(32)) for _ in range(100_000))
    fpr = hits / 100_000
    _report(8, false_negatives == 0 and 0.005 <= fpr <= 0.02,
            f"{false_negatives} false negatives; observed fpr {fpr:.4f} in [0.005, 0.02]")


def test_criterion_9_simulator_determinism():
    """Byte-identical event logs on repeated runs of every built-in scenario."""
    mismatches = []
    for name, scenario in builtin_scenarios().items():
        first = events_to_jsonl(scenario, run_scenario(scenario).events)
        second = events_to_jsonl(scenario, run_scenario(scenario).events)
        if first != second:
            mismatches.append(name)
        result = run_scenario(scenario)
        if not result.verdict.passed:
            mismatches.append(f"{name}:verdict")
    _report(9, not mismatches,
            f"{len(builtin_scenarios())} scenarios byte-identical and passing; "
            f"mismatches={mismatches}")
