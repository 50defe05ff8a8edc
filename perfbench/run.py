#!/usr/bin/env python3
"""edgevault benchmark: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload authorize-wide --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` sets the workload up several times (reporting the median
set-up time), then runs rounds of ops until ``--seconds`` have passed and
prints the end-to-end metrics; their timings are process CPU seconds at a
reference interpreter speed (see speed.py).  ``--trace 1`` runs a fixed number of
rounds, each first untraced and then traced, checks that both passes made
the same decisions, and prints the per-layer metrics.  ``--smoke`` runs
every workload at a small size in both modes, each in its own process, and
checks that every metric named in BENCHMARK.json is emitted with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
starts with ``report`` and holds the run's metadata, sample counts, the
failed fraction and the decision or event-log digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "edgevault" / "__init__.py").is_file():
    _fail(f"no edgevault sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import edgevault  # noqa: E402

if Path(edgevault.__file__).resolve().parent != (SRC / "edgevault").resolve():
    _fail(f"imported edgevault from {edgevault.__file__}, not from {SRC}")

from edgevault import kernels  # noqa: E402
from speed import ReferenceClock, WallClock  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import Tally, make_workloads  # noqa: E402

END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


#: ops per block for the latency percentiles; a p99 needs ten beyond it
BLOCK_OPS = 1000


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def block_percentile(values: list[float], q: float) -> float:
    """The median, over consecutive blocks of ``BLOCK_OPS`` ops, of each
    block's percentile; the ops left over join the last block.  A phase of
    contention from other tenants that covers part of a run then moves the
    tail of the blocks it covers, not of the whole run."""
    blocks = max(1, len(values) // BLOCK_OPS)
    bounds = [i * BLOCK_OPS for i in range(blocks)] + [len(values)]
    return statistics.median(_percentile(values[a:b], q) for a, b in zip(bounds, bounds[1:]))


def _decoy_seed(seed: int, rep: int) -> int:
    """A seed for an extra set-up repetition: distinct per (seed, rep) and,
    with bit 62 set, never equal to a small seed a caller passes."""
    return (seed << 4) | (rep + 1) | (1 << 62)


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cryptography": metadata.version("cryptography"),
        "click": metadata.version("click"),
        "kernels_backend": kernels.BACKEND,
        "commit": _git_commit(),
    }


def _set_up(workload, seed: int, seconds: float):
    """Set the workload up several times and return the clock and state of
    the last one, which is built from ``seed``; the earlier ones use other
    seeds so their warm-up is not served from the caches the previous one
    filled.  A set-up longer than a quarter of the run is repeated once
    instead of twice.  Also returns each set-up's time at the reference
    speed: its time on its clock over the factor measured during it."""
    times = []
    decoys, rep = 2, 0
    while True:
        last = rep == decoys
        clock = ReferenceClock()
        start = clock.now()
        state = workload.setup(seed if last else _decoy_seed(seed, rep), clock)
        elapsed = clock.now() - start
        clock.sample()
        times.append(elapsed / clock.factor_since(0))
        if last:
            return clock, state, times
        workload.teardown(state)
        del state
        if rep == 0 and elapsed > seconds / 4:
            decoys = 1
        rep += 1


def measure(workload, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    """The untraced run: set-up, then rounds until ``seconds`` of wall time
    have passed.

    A workload runs at least ``min_rounds`` rounds, enough for 1000 latency
    samples.  After that a new round starts only if it is expected to end
    less than half a round past the deadline.  ``peak_rss_mb`` is read
    after the first ``min_rounds`` rounds, so it covers the same work
    however fast the machine or the program runs.

    Timings are process CPU time at the reference interpreter speed (see
    speed.py): a round's time and its ops' latencies are divided by the
    factor measured from the end of the round before to the end of this
    one.
    """
    clock, state, setup_times = _set_up(workload, seed, seconds)
    try:
        tally = Tally(head_ops=workload.round_ops)
        round_rates, latencies, factors = [], [], []
        since = clock.sample()
        start = time.perf_counter()
        while True:
            workload.prepare_round(state)
            begin, ops_before = clock.now(), tally.attempted
            workload.run_round(state, len(round_rates), tally)
            took = clock.now() - begin
            factor = clock.factor_since(since)
            since = clock.sample()
            factors.append(factor)
            round_rates.append((tally.attempted - ops_before) / took * factor)
            latencies += [ns / factor for ns in tally.latencies_ns[ops_before:]]
            if len(round_rates) == workload.min_rounds:
                peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = time.perf_counter() - start
            if (len(round_rates) >= workload.min_rounds
                    and elapsed + elapsed / len(round_rates) / 2 > seconds):
                break
    finally:
        workload.teardown(state)
    metrics = {
        "ops_per_s": statistics.median(round_rates),
        "latency_p50_ms": block_percentile(latencies, 50) / 1e6,
        "latency_p99_ms": block_percentile(latencies, 99) / 1e6,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    details = {
        "rounds": len(round_rates),
        "timed_s": elapsed,
        "latency_samples": len(latencies),
        "setup_runs_s": setup_times,
        "factor_per_round": factors,
        "peak_rss_mb_at_end": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, metrics, details


def measure_traced(workload, seed: int, spans_path: Path) -> tuple[Tally, dict, dict]:
    """The traced run: each round first untraced, then again traced, with the
    caches warmed the same way before each, so drift in machine speed hits
    both passes alike.  It reads plain wall time."""
    state = workload.setup(seed, WallClock())
    plain, traced = Tally(head_ops=workload.round_ops), Tally(head_ops=workload.round_ops)
    tracer = Tracer()
    traced.tracer = tracer
    plain_s = traced_s = 0.0
    try:
        for index in range(workload.trace_rounds):
            for tally in (plain, traced):
                workload.warm(state)
                workload.prepare_round(state)
                if tally is traced:
                    tracer.install()
                begin = time.perf_counter()
                try:
                    workload.run_round(state, index, tally)
                finally:
                    elapsed = time.perf_counter() - begin
                    tracer.uninstall()
                if tally is traced:
                    traced_s += elapsed
                else:
                    plain_s += elapsed
    finally:
        workload.teardown(state)

    if plain.all_digest != traced.all_digest:
        traced.checks_failed.append("traced run made different decisions from the untraced run")
    ops = len(traced.latencies_ns)
    metrics = tracer.layer_metrics(ops)
    metrics["trace.ops_per_s_untraced"] = len(plain.latencies_ns) / plain_s
    metrics["trace.ops_per_s_traced"] = ops / traced_s
    metrics["trace.ops_per_s_ratio"] = metrics["trace.ops_per_s_traced"] / metrics["trace.ops_per_s_untraced"]
    tracer.write(spans_path)

    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.false_accepts += plain.false_accepts
    traced.checks_failed += plain.checks_failed
    traced.mismatches += plain.mismatches
    details = {"rounds": workload.trace_rounds, "traced_ops": ops, "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT))}
    return traced, metrics, details


def run_one(args) -> int:
    work_dir = OUT / f"work-{os.getpid()}"
    workloads = make_workloads(work_dir, small=args.small)
    workload = workloads[args.workload]
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tally, values, details = measure_traced(workload, args.seed, spans)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            tally, values, details = measure(workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = tally.failed == 0 and not tally.checks_failed
    report = {
        **run_metadata(args.workload, args.seed, args.trace),
        **details,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "false_accepts": tally.false_accepts,
        "digest": tally.head_digest,
        "mismatches": tally.mismatches,
        "checks_failed": tally.checks_failed,
    }
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=2) + "\n")
    for name, unit in units.items():
        print(f"{name:<56} {values[name]:>14.6g} {unit}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Run every workload small, in both modes, each in its own process, and
    check the result lines against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for entry in spec["workloads"]:
        name = entry["name"]
        digests = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--small"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            where = f"{name} --trace {trace}"
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
            digests[trace] = report["digest"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']} {report['mismatches']} "
                                f"{report['checks_failed']}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != wanted[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(emitted.items()) ^ set(wanted[trace].items()))}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{where}: non-numeric metric value")
            print(f"{where}: ok={result['correct']} attempted={result['attempted']}")
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{name}: traced and untraced runs differ in their first round")
    for problem in problems:
        print("FAIL " + problem)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(make_workloads(OUT)))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="small sizes (used by --smoke)")
    parser.add_argument("--smoke", action="store_true", help="run the benchmark's own test")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
