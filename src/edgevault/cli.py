"""Command-line surface: the ``edgevault`` command and its groups ``ledger``,
``keys``, ``qg``, ``profile``, ``filter`` and ``sim``.

State lives in one directory (``--state-dir`` or ``EDGEVAULT_STATE_DIR``,
default ``.edgevault``); :mod:`edgevault.statefile` owns it: the layout of its
one file, the lock, the load and the commit of each mutating command.

Exit codes are frozen so shell tests need no output parsing:
0 success / chain valid / transaction accepted; 2 ledger tamper detected;
3 transaction rejected (reason on stderr); 1 domain errors (uniform
``{"error": {"code", "message"}}`` envelope on stderr); 64 usage errors.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import statefile
from .bloom import BloomFilter
from .crypto import U64_LIMIT, Timestamp
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


@parses(StateError, "corrupted JSON file {0}")
def _read_json(path: str | Path) -> dict:
    """Parse a JSON file; the caller's parser validates its structure."""
    return json.loads(Path(path).read_bytes())


class AppState(statefile.StateDir):
    """The state dir, the output format, and exit 2 on a ledger that does not verify."""

    def __init__(self, root: Path, fmt: str):
        super().__init__(root)
        self.fmt = fmt

    def load_ledger(self, zone: SecureZone | None = None) -> IdentityLedger:
        """A session ``zone``'s ledger or, with no zone, the ledger alone from
        every record's ledger section, with no zone decoded.  Exit 2 with the
        index of the first bad entry if its chain does not verify."""
        ledger = zone.ledger if zone is not None else self.read_ledger()
        if ledger is None:
            raise StateError(f"no ledger in {self.zone_path}; run 'ledger init' first")
        report = ledger.verify_chain()
        if not report.valid:
            self.emit({"valid": False, "first_bad_index": report.first_bad_index},
                      f"chain INVALID at index {report.first_bad_index}")
            sys.exit(EXIT_TAMPER)
        return ledger

    def emit(self, payload: dict, text: str):
        click.echo(json.dumps(payload, sort_keys=True) if self.fmt == "json" else text)


def _hex_bytes(value: str, length: int | None = None, what: str = "value") -> bytes:
    try:
        raw = bytes.fromhex(value)
    except ValueError:
        raise click.UsageError(f"{what} must be hex, got {value!r}")
    if length is not None and len(raw) != length:
        raise click.UsageError(f"{what} must be {length} bytes ({2 * length} hex chars)")
    return raw


class _OutputFile(click.Path):
    """A file a command writes, after its commit if it has one: not a
    directory, and in a directory that exists and is writable, so that the
    write cannot fail on either once the state has moved on."""

    def __init__(self):
        super().__init__(dir_okay=False, path_type=Path)

    def convert(self, value, param, ctx) -> Path:
        path = super().convert(value, param, ctx)
        if not (path.parent.is_dir() and os.access(path.parent, os.W_OK)):
            self.fail(f"cannot create a file in {str(path.parent)!r}", param, ctx)
        return path


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
        return WeierstrassCurve.from_json_dict(_read_json(curve_json))
    return tiny_curve() if preset == "tiny" else standard_curve()


@ledger.command("init")
@click.option("--group", required=True, help="Group identifier for this ledger.")
@click.option("--preset", type=click.Choice(["standard", "tiny"]), default="standard")
@click.option("--curve-json", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file with explicit curve parameters p, a1..a6.")
@click.option("--seed", type=SEED_RANGE, default=None,
              help="Zone seed if the zone is new (default: from the OS).")
@click.pass_obj
def ledger_init(state: AppState, group, preset, curve_json, seed):
    """Create an empty ledger (and the secure zone, if missing)."""
    with state.session(seed) as (zone, _):
        if zone.ledger is not None:
            raise StateError(f"ledger already exists in {state.zone_path}")
        zone.attach_ledger(IdentityLedger(group_id=group, curve=_curve_from_options(preset, curve_json)))
    state.emit({"group_id": group, "entries": 0}, f"initialized ledger for group {group}")


@ledger.command("register")
@click.argument("label")
@click.option("--seed", type=SEED_RANGE, default=statefile.os_seed,
              help="Point-selection seed (default: from the OS).")
@click.pass_obj
def ledger_register(state: AppState, label, seed):
    """Register a device: select + seal a point, extend the hash chain.

    Refuses (exit 2) if the stored chain no longer verifies.
    """
    with state.session() as (zone, _):
        state.load_ledger(zone)
        entry = zone.register_device(label, rng_seed=seed)
    payload = {"device_label": label, "device_id": entry.h2.hex(), "h1": entry.h1.hex()}
    state.emit(payload, f"registered {label}: {entry.h2.hex()}")


@ledger.command("verify")
@click.pass_obj
def ledger_verify(state: AppState):
    """Recompute the whole chain; exit 2 with the index on any mismatch."""
    state.load_ledger()
    state.emit({"valid": True}, "chain valid")


@ledger.command("export")
@click.option("-o", "output", type=_OutputFile(), default=None)
@click.pass_obj
def ledger_export(state: AppState, output):
    """Write the ledger entries as JSON Lines; exit 2 on a tampered chain."""
    ldg = state.load_ledger()
    text = ldg.export_jsonl()
    if output:
        Path(output).write_text(text)
        state.emit({"written": str(output)}, f"wrote {output}")
    else:
        click.echo(text, nl=False)


@ledger.command("sync")
@click.option("-o", "output", type=_OutputFile(), required=True)
@click.pass_obj
def ledger_sync(state: AppState, output):
    """Write a cloud snapshot (entries only, no key material)."""
    ldg = state.load_ledger()
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
@click.option("--budget", type=click.IntRange(1, U64_LIMIT - 1), default=DEFAULT_BUDGET)
@click.option("--seed", type=SEED_RANGE, default=statefile.os_seed, help="Default: from the OS.")
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
@click.option("--seed", type=SEED_RANGE, default=statefile.os_seed, help="Default: from the OS.")
@click.option("-o", "output", type=_OutputFile(), default=None,
              help="Where to write the cloud share JSON (default stdout).")
@click.pass_obj
def keys_split(state: AppState, key_id, context, device, order, seed, output):
    """Split a key 2-of-2; the edge share stays in the zone.  With --device,
    exit 2 if the ledger's chain does not verify."""
    if (context is None) == (device is None):
        raise click.UsageError("provide exactly one of --context or --device")
    with state.session() as (zone, _):
        if device is not None:
            entry = state.load_ledger(zone).find_device(device)
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
@click.option("--save-timestamp", type=_OutputFile(), default=None,
              help="Write the presented timestamp (useful for replay testing).")
@click.pass_obj
def keys_authorize(state: AppState, context, share_file, ts_file, save_timestamp):
    """Verify a cloud share for a transaction; exit 0 accepted, 3 rejected."""
    context_id = _hex_bytes(context, 32, "--context")
    with state.session() as (zone, tsa):
        share = SealedShare.from_json_dict(_read_json(share_file))
        if ts_file:
            ts = Timestamp.from_json_dict(_read_json(ts_file))
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
@click.option("-o", "output", type=_OutputFile(), default=None,
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
@click.option("-o", "output", type=_OutputFile(), required=True)
@click.option("--fpr", type=float, default=0.01)
@click.option("--from-ledger", "from_ledger", is_flag=True,
              help="Insert every device id from the state ledger.")
@click.option("--ids-file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="File with one hex device id per line.")
@click.pass_obj
def filter_build(state: AppState, output, fpr, from_ledger, ids_file):
    """Build and serialize a filter sized for the inserted ids.  With
    --from-ledger, exit 2 if the ledger's chain does not verify."""
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
@click.option("-o", "output", type=_OutputFile(), default=None)
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
@click.option("--log", "log_file", type=_OutputFile(), default=None,
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
