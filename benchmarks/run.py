#!/usr/bin/env python3
"""capsim benchmark: run one workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Workloads: matrix, heap_churn, revoke_sweep (see benchmarks/README.md).
With --trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a traced run.  The lines before it give the run's metadata and
every number under the workload's own names, with sample counts.
Everything the run produces is also written to benchmarks/results/.

capsim is imported from the src/ directory next to this one and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 11


def import_capsim() -> None:
    sys.path[:0] = [str(SRC), str(HERE)]
    import capsim
    if Path(capsim.__file__).resolve().parent != SRC / "capsim":
        raise ImportError(f"capsim imported from {capsim.__file__}, not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["matrix", "heap_churn", "revoke_sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes, of the time from process start to the
    point where the workload's first timed call could be made."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
    return statistics.median(times)


def capsim_commit() -> str:
    """HEAD of the checkout's git repository, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "capsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "capsim_commit": capsim_commit(),
        "capsim_src_sha256": digest.hexdigest(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def measure(wl, seconds: float):
    """Untraced run: pass 0 in full, then further passes until time is up."""
    from capbench.workloads import Recorder
    rec = Recorder()
    deadline = time.perf_counter() + seconds
    wl.run_pass(0, rec)
    index = 1
    while time.perf_counter() < deadline:
        wl.run_pass(index, rec, deadline)
        index += 1
    return rec


# How each workload names its timings in the report lines: (latency name,
# unit, scale from ms, what one sample is, percentiles, throughput name).
# The last percentile is the highest with at least ten samples beyond it
# in a run.
REPORT_NAMES = {
    "matrix": ("matrix_ms", "ms", 1, "matrices", (50, 90, 95, 99), "cells_per_s"),
    "heap_churn": ("churn_op_us", "us", 1e3, "operations", (50, 90, 95, 99), "churn_ops_per_s"),
    "revoke_sweep": ("revoke_ms", "ms", 1, "sweeps", (50, 90, 95), "sweeps_per_s"),
}


def end_to_end(args, rec, setup_s: float, rss_mb: float):
    """(metrics for the result line, report lines under workload names).

    The result line's latency is the median in units of the host reference
    time (see Recorder): the host's speed swings move a run's median,
    throughput and tails in ms by more than any bound allows, but not that
    ratio.  The ms figures are still printed and written to the results
    file.
    """
    from capbench.workloads import Matrix

    name, unit, scale, what, percentiles, per_s_name = REPORT_NAMES[args.workload]
    n = rec.count()
    work = Matrix.cells if args.workload == "matrix" else 1  # a matrix is 34 cells
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "latency_p50_ref": (rec.percentile_ref(50), "ref"),
    }
    report = [("setup_s", setup_s, "s", f"median of {SETUP_PROBES} fresh processes"),
              ("peak_rss_mb", rss_mb, "MB", "ru_maxrss"),
              ("error_rate", rec.failed / rec.attempted, "ratio",
               f"{rec.failed} of {rec.attempted} checked operations"),
              ("latency_p50_ref", rec.percentile_ref(50), "ref", f"n={n} {what}"),
              ("host_reference_ms", rec.reference_ms(), "ms",
               f"median of {sum(rec.reference_ns.values())} reference runs"),
              (per_s_name, n * work / (rec.total_ns() / 1e9), "1/s", f"n={n} {what}")]
    report += [(f"{name}_p{q}", rec.percentile_ms(q) * scale, unit, f"n={n} {what}")
               for q in percentiles]
    if args.workload == "heap_churn":
        report.append(("unsafe_caps", rec.sim["sim.churn.unsafe_caps"], "count",
                       "end-of-pass scan of pass 0"))
    return metrics, report


def per_layer(args, wl, seconds: float):
    """Traced run: pairs of (untraced, traced) runs of pass 0 until time is
    up.  Counts come from one pass; times are medians over the pairs."""
    from capbench.tracer import Tracer
    from capbench.workloads import Recorder, revoke_curve

    rec = Recorder()
    plain_s, traced_s, summaries, counters, cells = [], [], [], [], []
    first = None
    deadline = time.perf_counter() + seconds
    while first is None or time.perf_counter() < deadline:
        plain = Recorder()
        wl.run_pass(0, plain)
        tracer = Tracer()
        traced = Recorder()
        tracer.install()
        try:
            wl.run_pass(0, traced, tracer=tracer)
        finally:
            tracer.uninstall()
        for r in (plain, traced):
            rec.attempted += r.attempted
            rec.failed += r.failed
            rec.problems += r.problems[:5]
        rec.sim = plain.sim
        plain_s.append(plain.total_ns())
        traced_s.append(traced.total_ns())
        summaries.append(tracer.summary())
        counters.append(dict(tracer.counters))
        by_sid: dict[str, list[float]] = {}
        for label, ms in tracer.durations_by_request("scenarios.run_scenario").items():
            by_sid.setdefault(label.split()[1], []).extend(ms)
        cells.append(by_sid)
        if first is None:
            first = tracer

    def calls(name):
        return summaries[0].get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_ms"] = (
            statistics.median(s.get(name, {}).get("self_ms", 0.0) for s in summaries), "ms")
    c = counters[0]
    metrics["memory.iter_tagged.calls"] = (c.get("memory.iter_tagged.calls", 0), "count")
    for key in ("capability.check_access.faults", "memory.mprotect.pages",
                "memory.iter_tagged.yielded", "allocator.malloc.oom",
                "allocator.revoke.cleared", "allocator.revoke.quarantine_regions"):
        metrics[key] = (c.get(key, 0), "count")
    metrics["allocator.realloc.in_place_ratio"] = (
        ratio(c.get("allocator.realloc.in_place", 0), calls("allocator.realloc")), "ratio")
    metrics["allocator.revoke.cleared_ratio"] = (
        ratio(c.get("allocator.revoke.cleared", 0), c.get("allocator.revoke.visited", 0)), "ratio")
    metrics["vm.gc_mark.marked_ratio"] = (
        ratio(c.get("vm.gc_mark.marked", 0), calls("vm.gc_mark")), "ratio")
    for i in range(1, 13):
        sid = f"S{i}"
        per_pass = [statistics.fmean(cell[sid]) if cell.get(sid) else 0.0 for cell in cells]
        metrics[f"scenarios.run_scenario.cell_ms.{sid}"] = (statistics.median(per_pass), "ms")
    for key, value in revoke_curve(args.seed, rec).items():
        metrics[key] = (value, "ms" if ".ms_" in key else "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t / p for t, p in zip(traced_s, plain_s)), "ratio")
    for key in SIM_KEYS:
        metrics[key] = (rec.sim.get(key, 0), "count")
    return metrics, rec, first, len(summaries)


LAYER_FUNCTIONS = (
    "capability.set_address", "capability.set_bounds", "capability.check_access",
    "capability.capint_binop", "capability.seal_entry", "capability.encode",
    "memory.TaggedMemory", "memory.store_cap", "memory.load_cap", "memory.store_bytes",
    "memory.load_bytes", "memory.mprotect", "memory.iter_tagged", "memory.clear_granule_tag",
    "allocator.malloc", "allocator.free", "allocator.realloc", "allocator.revoke",
    "vm.MiniVm", "vm.lay_out_stack", "vm.gc_mark", "vm.vm_immediate_p",
    "vm.MarkBitmap.set", "vm.MarkBitmap.bits", "vm.count_utf8_lead_bytes",
    "vm.insn_hash_capint", "scenarios.run_scenario", "harness.run_matrix", "cli.main",
)
SIM_KEYS = (
    "sim.matrix.faults.bounds", "sim.matrix.faults.tag", "sim.matrix.faults.seal",
    "sim.matrix.corrupt", "sim.churn.tag_faults", "sim.churn.tagged_granules_end",
    "sim.churn.oom", "sim.churn.unsafe_caps", "sim.revoke.cleared_total",
)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_capsim()
    except ImportError as exc:
        print(f"error: cannot import capsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    from capbench.workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, str(RESULTS))
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    meta = metadata(args)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, rec, tracer, pairs = per_layer(args, wl, args.seconds)
        tracer.write(f"{stem}.spans.jsonl.gz")
        named = [(k, v, u, "") for k, (v, u) in metrics.items()]
        meta["traced_pairs"] = pairs
    else:
        rec = measure(wl, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, named = end_to_end(args, rec, setup_seconds(args.workload, args.seed), rss_mb)
        named += [(k, v, "count", "pass 0") for k, v in sorted(rec.sim.items())]

    correct = rec.failed == 0 and rec.attempted > 0
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value, unit, note in named:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    for problem in rec.problems:
        print(f"  FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(f"{stem}.json", "w") as fh:
        json.dump({**result, "meta": meta, "sim": rec.sim, "problems": rec.problems,
                   "report": [{"name": n, "value": v, "unit": u, "note": note}
                              for n, v, u, note in named]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
