"""In-memory span recorder for the traced benchmark run.

The traced run wraps public functions and methods of the edgevault modules
at run time; nothing under ``src/`` changes, and the untraced run installs
nothing.  Every call to a wrapped target becomes one span: name, start, end,
parent span, op id, and an optional amount (bytes hashed, entries verified,
the reject reason of a decision).  Spans stay in memory until the run ends,
then are written out and reduced to per-layer metrics.

A span's self time is its duration minus the durations of its direct
children.  The zone is single-threaded, so children never overlap and that
difference is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path


def _len_first_arg(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


def _ledger_entries(args, result):
    return len(args[0].entries)


def _state_bytes(args, result):
    state = args[0]
    paths = (state.zone_path, state.tsa_path, state.ledger_path)
    return sum(p.stat().st_size for p in paths if p.exists())


def _reject_reason(args, result):
    return None if result.accepted else result.reason


# (span name, module, attribute or Class.attribute, amount taken from the call)
TARGETS = (
    ("quasigroup.generate_quasigroup", "edgevault.quasigroup", "generate_quasigroup", None),
    ("quasigroup.Quasigroup.to_bytes", "edgevault.quasigroup", "Quasigroup.to_bytes", _len_result),
    ("quasigroup.verify_parastroph_identities", "edgevault.quasigroup",
     "verify_parastroph_identities", None),
    ("kernels.identity_violations", "edgevault.kernels", "identity_violations", None),
    ("kernels.latin_square_ok", "edgevault.kernels", "latin_square_ok", None),
    ("kernels.pair_lookup", "edgevault.kernels", "pair_lookup", None),
    ("crypto.sha256", "edgevault.crypto", "sha256", _len_first_arg),
    ("crypto.aead_encrypt", "edgevault.crypto", "aead_encrypt", None),
    ("crypto.aead_decrypt", "edgevault.crypto", "aead_decrypt", None),
    ("shares.split", "edgevault.shares", "split", None),
    ("shares.unseal_share", "edgevault.shares", "unseal_share", None),
    ("shares.combine_and_verify", "edgevault.shares", "combine_and_verify", None),
    ("securezone.authorize_transaction", "edgevault.securezone",
     "SecureZone.authorize_transaction", _reject_reason),
    ("securezone.split_and_distribute", "edgevault.securezone",
     "SecureZone.split_and_distribute", None),
    ("curves.select_unique_point", "edgevault.curves", "select_unique_point", None),
    ("ledger.register_device", "edgevault.ledger", "IdentityLedger.register_device", None),
    ("ledger.verify_chain", "edgevault.ledger", "IdentityLedger.verify_chain", _ledger_entries),
    ("ledger.sync_to_cloud", "edgevault.ledger", "IdentityLedger.sync_to_cloud", _len_result),
    ("ledger.import_snapshot", "edgevault.ledger", "IdentityLedger.import_snapshot", None),
    ("bloom.insert", "edgevault.bloom", "BloomFilter.insert", None),
    ("bloom.contains", "edgevault.bloom", "BloomFilter.contains", None),
    ("simnet.run_scenario", "edgevault.simnet", "run_scenario", None),
    ("cli.load_zone", "edgevault.cli", "AppState.load_zone", None),
    ("cli.save_zone", "edgevault.cli", "AppState.save_zone", _state_bytes),
)

#: every Decision.reason the zone can return
REJECT_REASONS = (
    "replay", "budget-exhausted", "decrypt-failure", "tag-mismatch",
    "algebra-failure", "checksum-mismatch",
)

_BUSY = ("ms/op", "lower")
_CALLS = ("calls/op", "lower")
_BYTES = ("B/op", "lower")

#: per-layer metric name -> (unit, better); names encode how each is derived
PER_LAYER = {
    "quasigroup.generate_quasigroup.calls_per_op": _CALLS,
    "quasigroup.generate_quasigroup.busy_ms_per_op": _BUSY,
    "shares.qg_rebuilds_per_combine": ("ratio", "lower"),
    "shares.combine_and_verify.calls_per_op": _CALLS,
    "quasigroup.Quasigroup.to_bytes.busy_ms_per_op": _BUSY,
    "quasigroup.Quasigroup.to_bytes.bytes_per_op": _BYTES,
    "quasigroup.verify_parastroph_identities.busy_ms_per_op": _BUSY,
    "kernels.identity_violations.busy_ms_per_op": _BUSY,
    "crypto.sha256.bytes_per_op": _BYTES,
    "crypto.sha256.busy_ms_per_op": _BUSY,
    "kernels.latin_square_ok.busy_ms_per_op": _BUSY,
    "kernels.pair_lookup.busy_ms_per_op": _BUSY,
    "crypto.aead_decrypt.calls_per_op": _CALLS,
    "crypto.aead_decrypt.busy_ms_per_op": _BUSY,
    "crypto.aead_encrypt.calls_per_op": _CALLS,
    "crypto.aead_encrypt.busy_ms_per_op": _BUSY,
    "shares.unseal_share.busy_ms_per_op": _BUSY,
    "shares.combine_and_verify.busy_ms_per_op": _BUSY,
    "securezone.authorize_transaction.busy_ms_per_op": _BUSY,
    **{f"securezone.rejects.{reason}": ("count/op", "lower") for reason in REJECT_REASONS},
    "securezone.split_and_distribute.busy_ms_per_op": _BUSY,
    "shares.split.busy_ms_per_op": _BUSY,
    "curves.select_unique_point.busy_ms_per_op": _BUSY,
    "ledger.register_device.busy_ms_per_op": _BUSY,
    "ledger.verify_chain.entries_per_op": ("entries/op", "lower"),
    "ledger.sync_to_cloud.busy_ms_per_op": _BUSY,
    "ledger.sync_to_cloud.bytes_per_op": _BYTES,
    "ledger.import_snapshot.busy_ms_per_op": _BUSY,
    "bloom.insert.busy_ms_per_op": _BUSY,
    "bloom.contains.busy_ms_per_op": _BUSY,
    "simnet.run_scenario.busy_ms_per_op": _BUSY,
    "cli.load_zone.busy_ms_per_op": _BUSY,
    "cli.save_zone.busy_ms_per_op": _BUSY,
    "cli.state_bytes_written_per_op": _BYTES,
    "cli.invoke.busy_ms_per_op": _BUSY,
    "trace.ops_per_s_untraced": ("ops/s", "higher"),
    "trace.ops_per_s_traced": ("ops/s", "higher"),
    "trace.ops_per_s_ratio": ("ratio", "higher"),
}


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, op id, amount)
        self.spans: list = []
        self.op_id = 0
        self._stack: list[int] = []
        self._undo: list = []
        self._origin = time.perf_counter_ns()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, amount):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op_id, None)
            if amount is not None:
                spans[index] = (name_id, start, end, parent, self.op_id, amount(args, result))
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Call ``fn`` inside a span; for calls the benchmark itself makes."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        """Wrap every target; module functions are replaced in every
        edgevault module that imported them by name."""
        for name, module_name, attr, amount in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = inspect.getattr_static(owner, leaf)
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__, amount))
                else:
                    new = self._wrap(name, raw, amount)
                self._undo.append((owner, leaf, raw))
                setattr(owner, leaf, new)
                continue
            original = getattr(module, leaf)
            new = self._wrap(name, original, amount)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("edgevault"):
                    continue
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, new)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def write(self, path: Path):
        """Write the spans as gzipped TSV, one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\tamount\n")
            for index, (name_id, start, end, parent, op, amount) in enumerate(self.spans):
                fh.write(f"{index}\t{self.names[name_id]}\t{start - self._origin}\t"
                         f"{end - self._origin}\t{parent}\t{op}\t"
                         f"{'' if amount is None else amount}\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Reduce the spans to the per-layer metrics (``trace.*`` excluded)."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        busy_ns: Counter = Counter()
        amounts: Counter = Counter()
        rejects: Counter = Counter()
        for index, (name_id, start, end, _, _, amount) in enumerate(spans):
            calls[name_id] += 1
            busy_ns[name_id] += end - start - child_ns[index]
            if isinstance(amount, str):
                rejects[amount] += 1
            elif amount is not None:
                amounts[name_id] += amount

        combine = self._ids.get("shares.combine_and_verify")
        generate = self._ids.get("quasigroup.generate_quasigroup")
        rebuilds = self._count_under(generate, combine)
        combines = calls[combine] if combine is not None else 0

        out: dict[str, float] = {}
        for metric in PER_LAYER:
            if metric.startswith("trace."):
                continue
            if metric == "shares.qg_rebuilds_per_combine":
                out[metric] = rebuilds / combines if combines else 0.0
            elif metric == "cli.state_bytes_written_per_op":
                out[metric] = amounts[self._ids.get("cli.save_zone")] / ops
            elif metric.startswith("securezone.rejects."):
                out[metric] = rejects[metric.rsplit(".", 1)[1]] / ops
            else:
                span_name, stat = metric.rsplit(".", 1)
                name_id = self._ids.get(span_name)
                if stat == "busy_ms_per_op":
                    out[metric] = busy_ns[name_id] / 1e6 / ops
                elif stat == "calls_per_op":
                    out[metric] = calls[name_id] / ops
                else:  # bytes_per_op, entries_per_op
                    out[metric] = amounts[name_id] / ops
        return out

    def _count_under(self, name_id, ancestor_id) -> int:
        """Spans named ``name_id`` with a span named ``ancestor_id`` above them."""
        if name_id is None or ancestor_id is None:
            return 0
        spans = self.spans
        count = 0
        for span in spans:
            if span[0] != name_id:
                continue
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == ancestor_id:
                    count += 1
                    break
                parent = spans[parent][3]
        return count
