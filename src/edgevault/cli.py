"""Command-line surface.

State lives in one directory (``--state-dir`` or ``EDGEVAULT_STATE_DIR``,
default ``.edgevault``) as a snapshot plus a journal.  The snapshot,
``zone.json``, is the document ``{"tsa", "zone", "ledger", "journal"}``: the
timestamp authority's counters, the secure zone's internal storage, the
identity ledger (``null`` before ``ledger init``), and the sequence number
and hash of the last journal record folded into it.  ``journal.jsonl`` holds
one line per completed command, ``{"h", "r"}``: the record ``r`` of what the
command changed (the TSA counters; the op counter; each changed key's or
context's changed fields, or the whole of a new one; new audit entries; new
ledger entries and used points, or a new ledger) and
``h = SHA-256(previous h || r's bytes)``, chained from the snapshot's hash.

Every mutating command runs in one ``AppState.session()``: it takes an
``flock`` on ``.lock`` (the kernel drops it when the holder exits, however it
exits, so no lock is ever stale), loads the state, and commits once, only if
the command completes.  A load parses the snapshot and replays the journal,
but decodes a key, context or ledger entry only when the command uses it;
``keys authorize`` decodes its own context and key and the three
infrastructure keys.  A commit appends the record as one write, or, once the journal would
pass ``COMPACT_BYTES``, replaces the snapshot (a temporary file renamed over
``zone.json``) and then removes the journal.  A crashed process therefore
leaves the old state or the new one: a torn last line is left out on load and
cut off by the next commit, and a journal whose records the snapshot already
holds is left out whole.  A bad ``h`` on any other line is a corrupted state
that names the record's index.  Nothing is fsynced: a power loss is not
covered.

The old layout kept the TSA and the ledger in ``tsa.json`` and ``ledger.json``
beside a bare zone ``zone.json``.  It still loads as the first snapshot; the
next commit writes the document, then removes those two files.

Exit codes are frozen so shell tests need no output parsing:
0 success / chain valid / transaction accepted; 2 ledger tamper detected;
3 transaction rejected (reason on stderr); 1 domain errors (uniform
``{"error": {"code", "message"}}`` envelope on stderr); 64 usage errors.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import click

from .bloom import BloomFilter
from .crypto import U64_LIMIT, Timestamp, TimestampAuthority, sha256
from .curves import WeierstrassCurve, standard_curve, tiny_curve
from .errors import EdgeVaultError, StateError, parses
from .ledger import IdentityLedger
from .profiler import Sample, detect_outliers, fit_distribution
from .quasigroup import Quasigroup, generate_quasigroup, verify_parastroph_identities
from .securezone import DEFAULT_BUDGET, SecureZone
from .shares import SealedShare
from .simnet import SimScenario, builtin_scenarios, events_to_jsonl, run_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TAMPER = 2
EXIT_REJECTED = 3
EXIT_USAGE = 64

# keep the usage exit code clear of the tamper-detected contract (2)
click.exceptions.UsageError.exit_code = EXIT_USAGE

STATE_ENV = "EDGEVAULT_STATE_DIR"

_EXHAUSTIVE_CHECK_LIMIT = 512

#: the --seed of every state or scenario command; out of range is a usage error
SEED_RANGE = click.IntRange(0, U64_LIMIT - 1)


#: a save rewrites the snapshot, and empties the journal, once the journal
#: would pass this many bytes
COMPACT_BYTES = 16 * 1024

_GENESIS = bytes(32)  # the h a state dir's first journal record chains from
_LINE_HEAD, _LINE_MID = b'{"h":"', b'","r":'


@dataclass
class _Tip:
    """Where the next commit goes: after record ``seq`` whose hash is ``h``,
    at byte ``valid`` of a journal file of ``size`` bytes.  ``rewrite`` asks
    for a whole snapshot: the dir is new or in the old layout."""

    seq: int
    h: bytes
    valid: int = 0
    size: int = 0
    rewrite: bool = False


def _write_file(path: Path, data: bytes, mode: int):
    """Write ``data`` to ``path`` opened with ``mode`` (``os.O_TRUNC`` or ``os.O_APPEND``)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | mode, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


@parses(StateError, "malformed journal record {1}")
def _journal_line(line: bytes, index: int) -> tuple[bytes, bytes, dict]:
    """A journal line's h, the record bytes the h covers, and the record."""
    mid = len(_LINE_HEAD) + 64
    body = mid + len(_LINE_MID)
    if line[:len(_LINE_HEAD)] != _LINE_HEAD or line[mid:body] != _LINE_MID or line[-1:] != b"}":
        raise ValueError("not a journal line")
    record = json.loads(line[body:-1])
    if type(record["seq"]) is not int:
        raise ValueError("the sequence number is not an integer")
    record["tsa"], record["zone"], record["ledger"]  # a missing section is a KeyError here
    return bytes.fromhex(line[len(_LINE_HEAD):mid].decode()), line[body:-1], record


class AppState:
    """Paths and loaders for the state directory."""

    def __init__(self, root: Path, fmt: str):
        self.root = root
        self.fmt = fmt
        self.zone_path = root / "zone.json"
        self.journal_path = root / "journal.jsonl"
        # the old layout's other files, read by the upgrade
        self.tsa_path = root / "tsa.json"
        self.ledger_path = root / "ledger.json"
        self.lock_path = root / ".lock"
        self._loaded = None  # (zone, tsa, tip) of the last load_zone

    @contextmanager
    def session(self, seed: int = 0):
        """Yield ``(zone, tsa)`` under the state dir's lock; save on completion.

        The lock is an ``flock`` on ``.lock``, which the kernel drops when the
        holder exits, however it exits.  An exception or ``sys.exit`` inside
        the block saves nothing, so a refused or failed command leaves the
        state dir as it was, and removes it if the session created it.
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

    @staticmethod
    @parses(StateError, "corrupted JSON file {0}")
    def _read_json(path: str | Path) -> dict:
        """Parse a JSON file; the caller's parser validates its structure."""
        return json.loads(Path(path).read_bytes())

    @parses(StateError, "corrupted state document {0.zone_path}")
    def _read_snapshot(self) -> tuple[dict, _Tip] | None:
        """The document and the journal tip it records; None in a new state dir."""
        if not self.zone_path.exists():
            if self.journal_path.exists():
                raise StateError(f"{self.journal_path} has no snapshot {self.zone_path}")
            return None
        doc = self._read_json(self.zone_path)
        old_layout = isinstance(doc, dict) and "tsa" not in doc
        if old_layout:
            # this is the zone section
            if not self.tsa_path.exists():
                raise StateError(f"{self.tsa_path} is missing")
            ledger = self._read_json(self.ledger_path) if self.ledger_path.exists() else None
            doc = {"tsa": self._read_json(self.tsa_path), "zone": doc, "ledger": ledger}
        journal = doc.get("journal", {"seq": 0, "h": _GENESIS.hex()})
        tip = _Tip(int(journal["seq"]), bytes.fromhex(journal["h"]))
        if not 0 <= tip.seq < U64_LIMIT or len(tip.h) != len(_GENESIS):
            raise ValueError("the journal tip needs a sequence number and a 32-byte h")
        # an upgrade that stopped before removing the old layout's files
        tip.rewrite = old_layout or self.tsa_path.exists() or self.ledger_path.exists()
        doc["tsa"], doc["zone"], doc["ledger"]  # a missing section is a KeyError here
        return doc, tip

    def _read_journal(self, tip: _Tip) -> list[dict]:
        """The journal's records after the snapshot at ``tip``; moves ``tip``
        to the last of them.

        An unterminated last line is a torn append: it is left out, and the
        next commit cuts it off.  A journal whose first record is not after
        the snapshot was folded into it by a compaction that stopped before
        removing the file; it is left out whole.
        """
        try:
            data = self.journal_path.read_bytes()
        except FileNotFoundError:
            return []
        tip.size = len(data)
        records = []
        for index, line in enumerate(data[:data.rfind(b"\n") + 1].split(b"\n")[:-1]):
            h, body, record = _journal_line(line, index)
            if index == 0 and record["seq"] <= tip.seq:
                return []
            if record["seq"] != tip.seq + 1 or sha256(tip.h + body) != h:
                raise StateError(f"journal record {index} in {self.journal_path} does not "
                                 "chain from the record before it")
            tip.seq, tip.h, tip.valid = record["seq"], h, tip.valid + len(line) + 1
            records.append(record)
        return records

    @staticmethod
    def _ledger(doc: dict, records: list[dict]) -> IdentityLedger | None:
        """The snapshot's ledger with each record's ledger changes applied."""
        ledger = doc["ledger"]
        ledger = None if ledger is None else IdentityLedger.lazy_from_state_dict(ledger)
        for record in records:
            changes = record["ledger"]
            if isinstance(changes, dict) and "group_id" in changes:
                ledger = IdentityLedger.lazy_from_state_dict(changes)
            elif changes is not None:
                if ledger is None:
                    raise StateError("a journal record changes a ledger that does not exist")
                ledger.apply(changes)
        return ledger

    def load_zone(self, seed: int = 0) -> tuple[SecureZone, TimestampAuthority]:
        """The snapshot with the journal replayed; each key and context is
        decoded the first time the command uses it."""
        snapshot = self._read_snapshot()
        if snapshot is None:
            tsa = TimestampAuthority(issuer="edgevault-tsa")
            zone, tip = SecureZone(seed, tsa), _Tip(0, _GENESIS, rewrite=True)
        else:
            doc, tip = snapshot
            records = self._read_journal(tip)
            tsa = TimestampAuthority.from_state_dict(records[-1]["tsa"] if records else doc["tsa"])
            zone = SecureZone.lazy_from_state_dict(doc["zone"], tsa)
            for record in records:
                zone.apply(record["zone"])
            ledger = self._ledger(doc, records)
            if ledger is not None:
                zone.attach_ledger(ledger)
        self._loaded = (zone, tsa, tip)
        return zone, tsa

    def save_zone(self, zone: SecureZone, tsa: TimestampAuthority):
        """Commit the state.

        For the zone :meth:`load_zone` last returned, append one journal
        record of what changed, or rewrite the snapshot once the journal
        would pass ``COMPACT_BYTES``.  Any other zone is written whole.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        loaded, self._loaded = self._loaded, None
        if loaded is None or loaded[0] is not zone or loaded[1] is not tsa:
            tip = self._current_tip()
            self._write_snapshot(zone, tsa, tip.seq, tip.h)
            return
        tip = loaded[2]
        ledger = zone.ledger.changes() if zone.ledger is not None else None
        body = json.dumps({"seq": tip.seq + 1, "tsa": tsa.state_dict(), "zone": zone.changes(),
                           "ledger": ledger}, sort_keys=True, separators=(",", ":")).encode()
        h = sha256(tip.h + body)
        line = _LINE_HEAD + h.hex().encode() + _LINE_MID + body + b"}\n"
        if tip.rewrite or tip.valid + len(line) > COMPACT_BYTES:
            self._write_snapshot(zone, tsa, tip.seq + 1, h)
            return
        if tip.size != tip.valid:
            os.truncate(self.journal_path, tip.valid)
        _write_file(self.journal_path, line, os.O_APPEND)

    def _current_tip(self) -> _Tip:
        snapshot = self._read_snapshot()
        if snapshot is None:
            return _Tip(0, _GENESIS)
        _, tip = snapshot
        self._read_journal(tip)
        return tip

    def _write_snapshot(self, zone: SecureZone, tsa: TimestampAuthority, seq: int, h: bytes):
        """Replace the document at once, then remove the journal it folds in
        and the old layout's files."""
        ledger = zone.ledger.state_dict() if zone.ledger is not None else None
        doc = {"tsa": tsa.state_dict(), "zone": zone.state_dict(), "ledger": ledger,
               "journal": {"seq": seq, "h": h.hex()}}
        tmp = self.zone_path.with_name(self.zone_path.name + ".tmp")
        try:
            _write_file(tmp, json.dumps(doc).encode(), os.O_TRUNC)
            os.replace(tmp, self.zone_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        for path in (self.journal_path, self.tsa_path, self.ledger_path):
            path.unlink(missing_ok=True)

    def load_ledger(self) -> IdentityLedger:
        """The ledger alone: the snapshot's ledger section and the journal's
        ledger changes, with no zone decoded."""
        snapshot = self._read_snapshot()
        ledger = None
        if snapshot is not None:
            doc, tip = snapshot
            ledger = self._ledger(doc, self._read_journal(tip))
        if ledger is None:
            raise StateError(f"no ledger in {self.zone_path}; run 'ledger init' first")
        return ledger

    def emit(self, payload: dict, text: str | None = None):
        if self.fmt == "json":
            click.echo(json.dumps(payload, sort_keys=True))
        else:
            click.echo(text if text is not None else json.dumps(payload, sort_keys=True))


def _hex_bytes(value: str, length: int | None = None, what: str = "value") -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise click.UsageError(f"{what} must be hex, got {value!r}")
    if length is not None and len(raw) != length:
        raise click.UsageError(f"{what} must be {length} bytes ({2 * length} hex chars)")
    return raw


class _RootGroup(click.Group):
    """Maps any domain error a command raises to the envelope and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except EdgeVaultError as exc:
            envelope = {"error": {"code": exc.code, "message": str(exc)}}
            click.echo(json.dumps(envelope), err=True)
            sys.exit(EXIT_ERROR)


@click.group(cls=_RootGroup)
@click.option(
    "--state-dir",
    type=click.Path(file_okay=False, path_type=Path),
    envvar=STATE_ENV,
    default=".edgevault",
    help=f"State directory (default: ${STATE_ENV} or .edgevault).",
)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.pass_context
def main(ctx, state_dir, fmt):
    """Confidential-computing toolkit for the edge/cloud hierarchy."""
    ctx.obj = AppState(state_dir, fmt)


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------

@main.group()
def ledger():
    """Hash-chained device identity ledger."""


def _curve_from_options(preset: str, curve_json: str | None) -> WeierstrassCurve:
    if curve_json:
        return WeierstrassCurve.from_json_dict(AppState._read_json(curve_json))
    return tiny_curve() if preset == "tiny" else standard_curve()


@ledger.command("init")
@click.option("--group", required=True, help="Group identifier for this ledger.")
@click.option("--preset", type=click.Choice(["standard", "tiny"]), default="standard")
@click.option("--curve-json", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with explicit curve parameters p, a1..a6.")
@click.option("--seed", type=SEED_RANGE, default=0, help="Zone seed if the zone is new.")
@click.pass_obj
def ledger_init(state: AppState, group, preset, curve_json, seed):
    """Create an empty ledger (and the secure zone, if missing)."""
    with state.session(seed) as (zone, _):
        if zone.ledger is not None:
            raise StateError(f"ledger already exists in {state.zone_path}")
        zone.attach_ledger(IdentityLedger(group_id=group, curve=_curve_from_options(preset, curve_json)))
    state.emit({"group_id": group, "entries": 0}, f"initialized ledger for group {group}")


def _exit_if_tampered(state: AppState, ledger: IdentityLedger):
    report = ledger.verify_chain()
    if not report.valid:
        state.emit(
            {"valid": False, "first_bad_index": report.first_bad_index},
            f"chain INVALID at index {report.first_bad_index}",
        )
        sys.exit(EXIT_TAMPER)


@ledger.command("register")
@click.argument("label")
@click.option("--seed", type=SEED_RANGE, default=0, help="Point-selection seed.")
@click.pass_obj
def ledger_register(state: AppState, label, seed):
    """Register a device: select + seal a point, extend the hash chain.

    Refuses (exit 2) if the stored chain no longer verifies.
    """
    with state.session() as (zone, _):
        if zone.ledger is None:
            raise StateError("no ledger; run 'ledger init' first")
        _exit_if_tampered(state, zone.ledger)
        entry = zone.register_device(label, rng_seed=seed)
    payload = {"device_label": label, "device_id": entry.h2.hex(), "h1": entry.h1.hex()}
    state.emit(payload, f"registered {label}: {entry.h2.hex()}")


@ledger.command("verify")
@click.pass_obj
def ledger_verify(state: AppState):
    """Recompute the whole chain; exit 2 with the index on any mismatch."""
    _exit_if_tampered(state, state.load_ledger())
    state.emit({"valid": True}, "chain valid")


@ledger.command("export")
@click.option("-o", "output", type=click.Path(path_type=Path), default=None)
@click.pass_obj
def ledger_export(state: AppState, output):
    """Write the ledger entries as JSON Lines; exit 2 on a tampered chain."""
    ldg = state.load_ledger()
    _exit_if_tampered(state, ldg)
    text = ldg.export_jsonl()
    if output:
        Path(output).write_text(text)
        state.emit({"written": str(output)}, f"wrote {output}")
    else:
        click.echo(text, nl=False)


@ledger.command("sync")
@click.option("-o", "output", type=click.Path(path_type=Path), required=True)
@click.pass_obj
def ledger_sync(state: AppState, output):
    """Write a cloud snapshot (entries only, no key material)."""
    ldg = state.load_ledger()
    _exit_if_tampered(state, ldg)
    Path(output).write_bytes(ldg.sync_to_cloud())
    state.emit({"written": str(output), "entries": len(ldg)}, f"wrote snapshot {output}")


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

@main.group()
def keys():
    """Key lifecycle inside the emulated secure zone."""


@keys.command("generate")
@click.option("--purpose", type=click.Choice(["data-encryption", "key-encryption", "point-sealing"]),
              default="data-encryption")
@click.option("--budget", type=int, default=DEFAULT_BUDGET)
@click.option("--seed", type=SEED_RANGE, default=0)
@click.pass_obj
def keys_generate(state: AppState, purpose, budget, seed):
    """Generate a key; only its identifier leaves the zone."""
    with state.session() as (zone, _):
        key_id = zone.generate_key(purpose, budget=budget, rng_seed=seed)
    state.emit({"key_id": key_id.hex(), "purpose": purpose}, key_id.hex())


@keys.command("split")
@click.argument("key_id")
@click.option("--context", default=None, help="32-byte context id (hex).")
@click.option("--device", default=None, help="Use a registered device's ledger id as context.")
@click.option("--order", type=int, default=256)
@click.option("--seed", type=SEED_RANGE, default=0)
@click.option("-o", "output", type=click.Path(path_type=Path), default=None,
              help="Where to write the cloud share JSON (default stdout).")
@click.pass_obj
def keys_split(state: AppState, key_id, context, device, order, seed, output):
    """Split a key 2-of-2; the edge share stays in the zone."""
    if (context is None) == (device is None):
        raise click.UsageError("provide exactly one of --context or --device")
    with state.session() as (zone, _):
        if device is not None:
            if zone.ledger is None:
                raise StateError("no ledger; register the device first")
            entry = zone.ledger.find_device(device)
            if entry is None:
                raise StateError(f"device {device!r} not in the ledger")
            context_id = entry.h2
        else:
            context_id = _hex_bytes(context, 32, "--context")
        result = zone.split_and_distribute(
            _hex_bytes(key_id, 16, "key id"), context_id, q_order=order, rng_seed=seed
        )
    share_json = result.cloud_share.to_json()
    if output:
        Path(output).write_text(share_json + "\n")
        state.emit({"context": context_id.hex(), "written": str(output)},
                   f"cloud share -> {output}")
    else:
        click.echo(share_json)


@keys.command("authorize")
@click.option("--context", required=True, help="Context id (hex).")
@click.option("--share", "share_file", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Cloud share JSON file presented for the transaction.")
@click.option("--timestamp", "ts_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Timestamp JSON to present (default: issue a fresh one).")
@click.option("--save-timestamp", type=click.Path(path_type=Path), default=None,
              help="Write the presented timestamp (useful for replay testing).")
@click.pass_obj
def keys_authorize(state: AppState, context, share_file, ts_file, save_timestamp):
    """Verify a cloud share for a transaction; exit 0 accepted, 3 rejected."""
    context_id = _hex_bytes(context, 32, "--context")
    with state.session() as (zone, tsa):
        share = SealedShare.from_json_dict(state._read_json(share_file))
        if ts_file:
            ts = Timestamp.from_json_dict(state._read_json(ts_file))
        else:
            ts = tsa.issue()
        decision = zone.authorize_transaction(context_id, share, ts)
    # the exit's traceback keeps this frame alive until the cyclic GC runs;
    # an in-process caller should not keep the loaded state with it
    del zone, tsa
    if save_timestamp:
        # only once committed: a timestamp the TSA may issue again never leaves
        Path(save_timestamp).write_text(json.dumps(ts.to_json_dict()))
    if decision.accepted:
        state.emit({"accepted": True}, "accepted")
        sys.exit(EXIT_OK)
    click.echo(decision.reason, err=True)
    state.emit({"accepted": False, "reason": decision.reason}, "rejected")
    sys.exit(EXIT_REJECTED)


# ---------------------------------------------------------------------------
# qg
# ---------------------------------------------------------------------------

@main.group()
def qg():
    """Quasigroup generation and verification."""


@qg.command("generate")
@click.option("-n", "--order", type=int, required=True)
@click.option("--seed", type=int, default=0)
@click.option("-o", "output", type=click.Path(path_type=Path), default=None,
              help="Write canonical bytes (default: hex on stdout).")
@click.pass_obj
def qg_generate(state: AppState, order, seed, output):
    """Generate a Latin-square table from (order, seed)."""
    q = generate_quasigroup(order, seed)
    blob = q.to_bytes()
    if output:
        Path(output).write_bytes(blob)
        state.emit({"order": order, "seed": seed, "written": str(output)},
                   f"wrote order-{order} table to {output}")
    else:
        state.emit({"order": order, "seed": seed, "table_hex": blob.hex()}, blob.hex())


@qg.command("check")
@click.argument("table_file", type=click.Path(exists=True, dir_okay=False), required=False)
@click.option("-n", "--order", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.pass_obj
def qg_check(state: AppState, table_file, order, seed):
    """Verify all six parastroph identities; exit 0 iff they all hold.

    Exhaustive up to order 512, sampled (64k pairs) above that.
    """
    if (table_file is None) == (order is None):
        raise click.UsageError("provide a table file or -n/--seed")
    if table_file:
        q = Quasigroup.from_bytes(Path(table_file).read_bytes())
    else:
        q = generate_quasigroup(order, seed)
    if q.order <= _EXHAUSTIVE_CHECK_LIMIT:
        report = verify_parastroph_identities(q, mode="exhaustive")
    else:
        report = verify_parastroph_identities(q, mode="sampled", k=65536, seed=seed)
    payload = {
        "order": q.order,
        "mode": report.mode,
        "checked_pairs": report.checked_pairs,
        "passed": report.passed,
        "failures": report.failures[:10],
    }
    state.emit(payload, "all identities hold" if report.passed else "identity FAILURES")
    sys.exit(EXIT_OK if report.passed else EXIT_ERROR)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

@parses(StateError, "{0} is not UTF-8 text")
def _read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file; StateError if it is not UTF-8."""
    return Path(path).read_bytes().decode("utf-8").splitlines()


def _read_csv_values(path: str) -> list[float]:
    values: list[float] = []
    for i, line in enumerate(_read_lines(path)):
        cell = line.strip().split(",")[0]
        if not cell:
            continue
        try:
            values.append(float(cell))
        except ValueError:
            if i == 0:
                continue  # header
            raise StateError(f"non-numeric value on line {i + 1}: {cell!r}")
    return values


@main.group()
def profile():
    """Distribution fitting and outlier detection over CSV input."""


@profile.command("fit")
@click.argument("csv_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--device", default="", help="Device label for the report.")
@click.pass_obj
def profile_fit(state: AppState, csv_file, device):
    """Best-fit family by RSS against the density histogram."""
    report = fit_distribution(Sample(_read_csv_values(csv_file), device_label=device))
    state.emit(
        report.to_json_dict(),
        f"{report.best_family} (rss={report.rss:.6g}) params={report.params}",
    )


@profile.command("outliers")
@click.argument("csv_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--sigmas", type=float, default=3.0)
@click.pass_obj
def profile_outliers(state: AppState, csv_file, sigmas):
    """Indices deviating more than --sigmas standard deviations."""
    idx = detect_outliers(Sample(_read_csv_values(csv_file)), threshold_sigmas=sigmas)
    state.emit({"threshold_sigmas": sigmas, "outliers": [int(i) for i in idx]},
               " ".join(str(int(i)) for i in idx))


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------

@main.group(name="filter")
def filter_group():
    """Bloom-filter allowlist over device ids."""


@filter_group.command("build")
@click.option("-o", "output", type=click.Path(path_type=Path), required=True)
@click.option("--fpr", type=float, default=0.01)
@click.option("--from-ledger", "from_ledger", is_flag=True,
              help="Insert every device id from the state ledger.")
@click.option("--ids-file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="File with one hex device id per line.")
@click.pass_obj
def filter_build(state: AppState, output, fpr, from_ledger, ids_file):
    """Build and serialize a filter sized for the inserted ids."""
    if from_ledger == (ids_file is not None):
        raise click.UsageError("provide exactly one of --from-ledger or --ids-file")
    if from_ledger:
        ids = [e.h2 for e in state.load_ledger().entries]
    else:
        ids = [_hex_bytes(line.strip(), what="device id") for line
               in _read_lines(ids_file) if line.strip()]
    filt = BloomFilter.create(max(len(ids), 1), fpr)
    for device_id in ids:
        filt.insert(device_id)
    Path(output).write_bytes(filt.to_bytes())
    state.emit({"written": str(output), "inserted": len(ids), "m": filt.m, "k": filt.k},
               f"filter with {len(ids)} ids -> {output}")


@filter_group.command("query")
@click.argument("filter_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("device_id_hex")
@click.pass_obj
def filter_query(state: AppState, filter_file, device_id_hex):
    """Membership pre-check (false positives possible, negatives authoritative)."""
    filt = BloomFilter.from_bytes(Path(filter_file).read_bytes())
    present = filt.contains(_hex_bytes(device_id_hex, what="device id"))
    state.emit({"device_id": device_id_hex, "present": present},
               "maybe-present" if present else "absent")


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

@main.group()
def sim():
    """Deterministic edge/cloud scenario simulation."""


@sim.command("builtin")
@click.argument("name", type=click.Choice(sorted(builtin_scenarios())), required=False)
@click.option("-o", "output", type=click.Path(path_type=Path), default=None)
@click.pass_obj
def sim_builtin(state: AppState, name, output):
    """Emit a built-in scenario as JSON (or list them)."""
    if name is None:
        state.emit({"scenarios": sorted(builtin_scenarios())},
                   "\n".join(sorted(builtin_scenarios())))
        return
    text = builtin_scenarios()[name].to_json()
    if output:
        Path(output).write_text(text + "\n")
        state.emit({"written": str(output)}, f"wrote {output}")
    else:
        click.echo(text)


@sim.command("run")
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--log", "log_file", type=click.Path(path_type=Path), default=None,
              help="Write the event log as JSON Lines.")
@click.option("--seed", type=SEED_RANGE, default=None, help="Override the scenario seed.")
@click.pass_obj
def sim_run(state: AppState, scenario_file, log_file, seed):
    """Run a scenario; exit 0 iff the verdict passes."""
    scenario = SimScenario.from_json(Path(scenario_file).read_bytes())
    if seed is not None:
        scenario.seed = seed
    events, verdict = run_scenario(scenario)
    log_bytes = events_to_jsonl(scenario, events)
    if log_file:
        Path(log_file).write_bytes(log_bytes)
    attacks = sum(1 for e in events if e.actor == "adversary")
    payload = {
        "scenario": scenario.name,
        "events": len(events),
        "adversary_actions": attacks,
        "passed": verdict.passed,
        "diffs": verdict.diffs,
    }
    state.emit(payload,
               f"{scenario.name}: {'PASS' if verdict.passed else 'FAIL'} "
               f"({len(events)} events, {attacks} adversary actions)")
    sys.exit(EXIT_OK if verdict.passed else EXIT_ERROR)


if __name__ == "__main__":
    main()
