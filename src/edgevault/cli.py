"""Command-line surface.

State lives in one directory (``--state-dir`` or ``EDGEVAULT_STATE_DIR``,
default ``.edgevault``): ``zone.json`` (secure-zone internal storage),
``tsa.json`` (timestamp authority counters), ``ledger.json`` (identity
ledger), and whatever filters/snapshots commands write.  An advisory
``.lock`` file serializes mutating commands.

Exit codes are frozen so shell tests need no output parsing:
0 success / chain valid / transaction accepted; 2 ledger tamper detected;
3 transaction rejected (reason on stderr); 1 domain errors (uniform
``{"error": {"code", "message"}}`` envelope on stderr); 64 usage errors.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from .bloom import BloomFilter
from .crypto import Timestamp, TimestampAuthority
from .curves import WeierstrassCurve, standard_curve, tiny_curve
from .errors import EdgeVaultError, StateError
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


class AppState:
    """Paths and loaders for the state directory."""

    def __init__(self, root: Path, fmt: str):
        self.root = root
        self.fmt = fmt
        self.zone_path = root / "zone.json"
        self.tsa_path = root / "tsa.json"
        self.ledger_path = root / "ledger.json"
        self.lock_path = root / ".lock"

    def ensure_root(self):
        self.root.mkdir(parents=True, exist_ok=True)

    @contextmanager
    def lock(self):
        self.ensure_root()
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StateError(
                f"state dir is locked ({self.lock_path}); remove the stale lock if no "
                "other process is running"
            )
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            self.lock_path.unlink(missing_ok=True)

    @staticmethod
    def _read_json(path: str | Path) -> dict:
        """Parse a JSON file; the caller's parser validates its structure."""
        try:
            return json.loads(Path(path).read_bytes())
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise StateError(f"corrupted JSON file {path}: {exc}") from exc

    def _write_json(self, path: Path, obj: dict):
        """Replace ``path`` atomically: a crash leaves the old or the new file."""
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(obj))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def load_tsa(self) -> TimestampAuthority:
        if self.tsa_path.exists():
            return TimestampAuthority.from_state_dict(self._read_json(self.tsa_path))
        return TimestampAuthority(issuer="edgevault-tsa")

    def save_tsa(self, tsa: TimestampAuthority):
        self.ensure_root()
        self._write_json(self.tsa_path, tsa.state_dict())

    def load_zone(self, seed: int = 0) -> tuple[SecureZone, TimestampAuthority]:
        tsa = self.load_tsa()
        if self.zone_path.exists():
            zone = SecureZone.from_state_dict(self._read_json(self.zone_path), tsa)
        else:
            zone = SecureZone(seed, tsa)
        if self.ledger_path.exists():
            zone.attach_ledger(IdentityLedger.from_state_dict(self._read_json(self.ledger_path)))
        return zone, tsa

    def save_zone(self, zone: SecureZone, tsa: TimestampAuthority):
        # the TSA goes first: a crash before the zone is written leaves the
        # TSA sequence ahead of the zone's last-seen timestamps, never behind
        self.save_tsa(tsa)
        self._write_json(self.zone_path, zone.state_dict())
        if zone.ledger is not None:
            self._write_json(self.ledger_path, zone.ledger.state_dict())

    def load_ledger(self) -> IdentityLedger:
        if not self.ledger_path.exists():
            raise StateError(f"no ledger at {self.ledger_path}; run 'ledger init' first")
        return IdentityLedger.from_state_dict(self._read_json(self.ledger_path))

    def emit(self, payload: dict, text: str | None = None):
        if self.fmt == "json":
            click.echo(json.dumps(payload, sort_keys=True))
        else:
            click.echo(text if text is not None else json.dumps(payload, sort_keys=True))


def handle_errors(fn):
    """Map domain errors to the uniform envelope and exit code 1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EdgeVaultError as exc:
            envelope = {"error": {"code": exc.code, "message": str(exc)}}
            click.echo(json.dumps(envelope), err=True)
            sys.exit(EXIT_ERROR)

    return wrapper


def _hex_bytes(value: str, length: int | None = None, what: str = "value") -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise click.UsageError(f"{what} must be hex, got {value!r}")
    if length is not None and len(raw) != length:
        raise click.UsageError(f"{what} must be {length} bytes ({2 * length} hex chars)")
    return raw


@click.group()
@click.option(
    "--state-dir",
    type=click.Path(path_type=Path),
    default=None,
    help=f"State directory (default: ${STATE_ENV} or .edgevault).",
)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.pass_context
def main(ctx, state_dir, fmt):
    """Confidential-computing toolkit for the edge/cloud hierarchy."""
    root = state_dir or Path(os.environ.get(STATE_ENV, ".edgevault"))
    ctx.obj = AppState(Path(root), fmt)


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
@click.option("--curve-json", type=click.Path(exists=True), default=None,
              help="JSON file with explicit curve parameters p, a1..a6.")
@click.option("--seed", type=int, default=0, help="Zone seed if the zone is new.")
@click.pass_obj
@handle_errors
def ledger_init(state: AppState, group, preset, curve_json, seed):
    """Create an empty ledger (and the secure zone, if missing)."""
    if state.ledger_path.exists():
        raise StateError(f"ledger already exists at {state.ledger_path}")
    with state.lock():
        zone, tsa = state.load_zone(seed)
        zone.attach_ledger(IdentityLedger(group_id=group, curve=_curve_from_options(preset, curve_json)))
        state.save_zone(zone, tsa)
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
@click.option("--seed", type=int, default=0, help="Point-selection seed.")
@click.pass_obj
@handle_errors
def ledger_register(state: AppState, label, seed):
    """Register a device: select + seal a point, extend the hash chain.

    Refuses (exit 2) if the stored chain no longer verifies.
    """
    with state.lock():
        zone, tsa = state.load_zone()
        if zone.ledger is None:
            raise StateError("no ledger; run 'ledger init' first")
        _exit_if_tampered(state, zone.ledger)
        entry = zone.register_device(label, rng_seed=seed)
        state.save_zone(zone, tsa)
    payload = {"device_label": label, "device_id": entry.h2.hex(), "h1": entry.h1.hex()}
    state.emit(payload, f"registered {label}: {entry.h2.hex()}")


@ledger.command("verify")
@click.pass_obj
@handle_errors
def ledger_verify(state: AppState):
    """Recompute the whole chain; exit 2 with the index on any mismatch."""
    report = state.load_ledger().verify_chain()
    if report.valid:
        state.emit({"valid": True}, "chain valid")
        sys.exit(EXIT_OK)
    state.emit(
        {"valid": False, "first_bad_index": report.first_bad_index},
        f"chain INVALID at index {report.first_bad_index}",
    )
    sys.exit(EXIT_TAMPER)


@ledger.command("export")
@click.option("-o", "output", type=click.Path(path_type=Path), default=None)
@click.pass_obj
@handle_errors
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
@handle_errors
def ledger_sync(state: AppState, output):
    """Write a cloud snapshot (entries only, no key material)."""
    ldg = state.load_ledger()
    report = ldg.verify_chain()
    if not report.valid:
        state.emit(
            {"valid": False, "first_bad_index": report.first_bad_index},
            f"refusing to sync: chain invalid at {report.first_bad_index}",
        )
        sys.exit(EXIT_TAMPER)
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
@click.option("--seed", type=int, default=0)
@click.pass_obj
@handle_errors
def keys_generate(state: AppState, purpose, budget, seed):
    """Generate a key; only its identifier leaves the zone."""
    with state.lock():
        zone, tsa = state.load_zone()
        key_id = zone.generate_key(purpose, budget=budget, rng_seed=seed)
        state.save_zone(zone, tsa)
    state.emit({"key_id": key_id.hex(), "purpose": purpose}, key_id.hex())


@keys.command("split")
@click.argument("key_id")
@click.option("--context", default=None, help="32-byte context id (hex).")
@click.option("--device", default=None, help="Use a registered device's ledger id as context.")
@click.option("--order", type=int, default=256)
@click.option("--seed", type=int, default=0)
@click.option("-o", "output", type=click.Path(path_type=Path), default=None,
              help="Where to write the cloud share JSON (default stdout).")
@click.pass_obj
@handle_errors
def keys_split(state: AppState, key_id, context, device, order, seed, output):
    """Split a key 2-of-2; the edge share stays in the zone."""
    if (context is None) == (device is None):
        raise click.UsageError("provide exactly one of --context or --device")
    with state.lock():
        zone, tsa = state.load_zone()
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
        state.save_zone(zone, tsa)
    share_json = result.cloud_share.to_json()
    if output:
        Path(output).write_text(share_json + "\n")
        state.emit({"context": context_id.hex(), "written": str(output)},
                   f"cloud share -> {output}")
    else:
        click.echo(share_json)


@keys.command("authorize")
@click.option("--context", required=True, help="Context id (hex).")
@click.option("--share", "share_file", type=click.Path(exists=True), required=True,
              help="Cloud share JSON file presented for the transaction.")
@click.option("--timestamp", "ts_file", type=click.Path(exists=True), default=None,
              help="Timestamp JSON to present (default: issue a fresh one).")
@click.option("--save-timestamp", type=click.Path(path_type=Path), default=None,
              help="Write the presented timestamp (useful for replay testing).")
@click.pass_obj
@handle_errors
def keys_authorize(state: AppState, context, share_file, ts_file, save_timestamp):
    """Verify a cloud share for a transaction; exit 0 accepted, 3 rejected."""
    context_id = _hex_bytes(context, 32, "--context")
    with state.lock():
        zone, tsa = state.load_zone()
        share = SealedShare.from_json_dict(state._read_json(share_file))
        if ts_file:
            ts = Timestamp.from_json_dict(state._read_json(ts_file))
        else:
            ts = tsa.issue()
        if save_timestamp:
            Path(save_timestamp).write_text(json.dumps(ts.to_json_dict()))
        decision = zone.authorize_transaction(context_id, share, ts)
        state.save_zone(zone, tsa)
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
@handle_errors
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
@click.argument("table_file", type=click.Path(exists=True), required=False)
@click.option("-n", "--order", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.pass_obj
@handle_errors
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

def _read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file; StateError if it is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise StateError(f"{path} is not UTF-8 text: {exc}") from exc


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
@click.argument("csv_file", type=click.Path(exists=True))
@click.option("--device", default="", help="Device label for the report.")
@click.pass_obj
@handle_errors
def profile_fit(state: AppState, csv_file, device):
    """Best-fit family by RSS against the density histogram."""
    report = fit_distribution(Sample(_read_csv_values(csv_file), device_label=device))
    state.emit(
        report.to_json_dict(),
        f"{report.best_family} (rss={report.rss:.6g}) params={report.params}",
    )


@profile.command("outliers")
@click.argument("csv_file", type=click.Path(exists=True))
@click.option("--sigmas", type=float, default=3.0)
@click.pass_obj
@handle_errors
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
@click.option("--ids-file", type=click.Path(exists=True), default=None,
              help="File with one hex device id per line.")
@click.pass_obj
@handle_errors
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
@click.argument("filter_file", type=click.Path(exists=True))
@click.argument("device_id_hex")
@click.pass_obj
@handle_errors
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
@handle_errors
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
@click.argument("scenario_file", type=click.Path(exists=True))
@click.option("--log", "log_file", type=click.Path(path_type=Path), default=None,
              help="Write the event log as JSON Lines.")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.pass_obj
@handle_errors
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
