"""The benchmark's workloads.

Each workload is a closed loop on one thread: the next call into capsim is
made only after the previous one returned.  Work comes in passes; pass `i`
of a workload is generated from (workload seed, i) alone, so it is the same
on every run and every commit.  The simulated statistics (`sim.*`) are
taken from pass 0, which a run always completes, so they repeat exactly.

Constructing a workload builds the state its first timed call needs; that
is what the set-up time measures.
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate
from time import perf_counter, perf_counter_ns as clock

import capsim.cli as cli
from capsim.allocator import CapAllocator, OutOfMemory
from capsim.capability import CapFault, FaultKind, Perm, make_root, set_bounds
from capsim.memory import GRANULE, PAGE, PageProtRequest, TaggedMemory

from .oracles import (
    MATRIX_TABLE,
    ShadowHeap,
    check_bytes,
    check_matrix,
    check_revoke,
    matrix_outcome_counts,
    revoke_oracle,
)

MAX_PROBLEMS = 20
REF_INTERVAL_NS = 50_000_000


@dataclass(frozen=True)
class _RefCap:
    tag: bool
    address: int
    base: int
    top: int


_REF_TAGS = [i % 7 == 0 for i in range(1 << 16)]  # granule tags of a 1 MiB heap


def host_reference() -> None:
    """Fixed pure-Python work shaped like the simulator's: frozen-dataclass
    copies, a walk over a 1 MiB heap's granule tags, dict and tuple churn.
    It never calls capsim, so its time measures the host's current speed."""
    cap = _RefCap(True, 0, 0, 4096)
    for i in range(300):
        cap = replace(cap, address=i)
    tagged = 0
    for _, tag in enumerate(_REF_TAGS):
        if tag:
            tagged += 1
    table = {}
    for i in range(2000):
        table[i] = (i, i + 1)


def _percentile(counts: Counter, q: float) -> int:
    """Nearest-rank q-th percentile of a value -> occurrences table."""
    rank = max(1, math.ceil(q / 100 * sum(counts.values())))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise ValueError("no latencies recorded")


class Recorder:
    """Latencies of the timed calls and oracle verdicts of a run.

    The host this benchmark runs on changes speed by up to 1.8x for spells
    of seconds to minutes.  So every REF_INTERVAL_NS the recorder also times
    `host_reference()` and keeps each latency a second time in units of the
    latest reference time, which cancels the host's speed swings.
    """

    def __init__(self):
        # value -> how often it occurred: exact percentiles in memory that
        # does not grow with the millions of calls a churn run times
        self.latency_ns: Counter[int] = Counter()
        self.latency_uref: Counter[int] = Counter()  # in millionths of a reference
        self.reference_ns: Counter[int] = Counter()
        self._ref_ns = 0
        self._ref_at = -REF_INTERVAL_NS
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sim: dict[str, int] = {}

    def add(self, ns: int) -> None:
        """Record one timed call that took `ns` nanoseconds."""
        now = clock()
        if now - self._ref_at > REF_INTERVAL_NS:
            host_reference()
            self._ref_at = clock()
            self._ref_ns = self._ref_at - now
            self.reference_ns[self._ref_ns] += 1
        self.latency_ns[ns] += 1
        self.latency_uref[ns * 1_000_000 // self._ref_ns] += 1

    def count(self) -> int:
        return sum(self.latency_ns.values())

    def total_ns(self) -> int:
        return sum(ns * n for ns, n in self.latency_ns.items())

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank q-th percentile of the latencies, in ms."""
        return _percentile(self.latency_ns, q) / 1e6

    def percentile_ref(self, q: float) -> float:
        """Nearest-rank q-th percentile of the latencies, in reference times."""
        return _percentile(self.latency_uref, q) / 1e6

    def reference_ms(self) -> float:
        """Median time of host_reference() during the run, in ms."""
        return _percentile(self.reference_ns, 50) / 1e6

    def check(self, problems: list[str], weight: int = 1) -> None:
        """Count `weight` checked operations, failing as many as `problems`."""
        self.attempted += weight
        if problems:
            self.failed += min(weight, len(problems))
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _round_up(n: int) -> int:
    return (n + GRANULE - 1) // GRANULE * GRANULE


# -- matrix -----------------------------------------------------------------

class Matrix:
    """`capsim run all --format json --out FILE`, in process, one seed per
    iteration; each report is checked against MATRIX_TABLE."""

    name = "matrix"
    per_pass = 50
    cells = len(MATRIX_TABLE)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out = os.path.join(out_dir, f"matrix-report-{seed}.json")

    def run_pass(self, index: int, rec: Recorder, deadline=None, tracer=None) -> None:
        rng = pass_rng(self.name, self.seed, index)
        sim = {f"sim.matrix.{k}": 0 for k in ("faults.bounds", "faults.tag", "faults.seal", "corrupt")}
        for _ in range(self.per_pass):
            if deadline is not None and perf_counter() > deadline:
                return
            run_seed = rng.randrange(1 << 32)
            argv = ["run", "all", "--format", "json", "--seed", str(run_seed), "--out", self.out]
            if tracer:
                tracer.new_request(f"matrix seed {run_seed}")
            t0 = clock()
            rc = cli.main(argv)
            rec.add(clock() - t0)
            try:
                with open(self.out) as fh:
                    report = json.load(fh)
                problems = check_matrix(report)
                if report["seed"] != run_seed:
                    problems.append(f"report seed {report['seed']} != {run_seed}")
                for key, n in matrix_outcome_counts(report).items():
                    sim[f"sim.matrix.{key}"] = sim.get(f"sim.matrix.{key}", 0) + n
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            if rc != 0:
                problems.append(f"capsim exited {rc}")
            rec.check(problems, self.cells)
        if index == 0:
            rec.sim.update(sim)


# -- heap_churn ----------------------------------------------------------------

CHURN_MEM = 2 << 20
CHURN_OPS = (  # (operation, weight)
    ("malloc", 12), ("free", 10), ("realloc", 8), ("store_cap", 12),
    ("load_cap", 12), ("store_bytes", 20), ("load_bytes", 20),
    ("past_top", 5), ("mprotect", 1),
)
CHURN_OP_NAMES = [op for op, _ in CHURN_OPS]
CHURN_CUM_WEIGHTS = list(accumulate(w for _, w in CHURN_OPS))
CHURN_MIN_LIVE = 16


class HeapChurn:
    """A seeded stream of public allocator and memory calls on a fresh
    2 MiB heap per pass, never revoking.  Every call is checked against a
    ShadowHeap of what the stream wrote."""

    name = "heap_churn"
    per_pass = 40_000

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self._heap = self._new_heap()

    @staticmethod
    def _new_heap():
        mem = TaggedMemory(CHURN_MEM)
        root = make_root(0, CHURN_MEM, Perm.LOAD | Perm.STORE)
        return mem, root, CapAllocator(mem, root)

    def run_pass(self, index: int, rec: Recorder, deadline=None, tracer=None) -> None:
        rng = pass_rng(self.name, self.seed, index)
        (self.mem, self.root, self.alloc), self._heap = self._heap or self._new_heap(), None
        self.shadow = ShadowHeap(CHURN_MEM)
        self.rec = rec
        self.stats = {"tag_faults": 0, "oom": 0}
        for k in range(self.per_pass):
            if deadline is not None and k % 64 == 0 and perf_counter() > deadline:
                return
            if len(self.shadow.live_bases) < CHURN_MIN_LIVE:
                op = "malloc"
            else:
                op = rng.choices(CHURN_OP_NAMES, cum_weights=CHURN_CUM_WEIGHTS)[0]
            if tracer:
                tracer.new_request(f"op {k} {op}")
            try:
                problems = getattr(self, "_" + op)(rng)
            except Exception as exc:  # any stray exception is a failed operation
                problems = [f"{op}: unexpected {exc!r}"]
            rec.check(problems)
        rec.check(self._check_slot_tags())
        if index == 0 and tracer is None:  # the scan's load_cap calls are not churn traffic
            tagged, unsafe = self._scan()
            rec.sim.update({
                "sim.churn.tag_faults": self.stats["tag_faults"],
                "sim.churn.tagged_granules_end": tagged,
                "sim.churn.oom": self.stats["oom"],
                "sim.churn.unsafe_caps": unsafe,
            })

    def _pick(self, rng):
        return self.shadow.live[rng.choice(self.shadow.live_bases)]

    def _time(self, t0: float) -> None:
        self.rec.add(clock() - t0)

    # each operation returns the problems its oracle found

    def _malloc(self, rng):
        n = rng.randint(1, 256) if rng.random() < 0.9 else rng.randint(257, 1024)
        want = _round_up(n)
        t0 = clock()
        try:
            cap = self.alloc.malloc(n)
        except OutOfMemory:
            self._time(t0)
            self.stats["oom"] += 1
            gap = self.shadow.largest_gap()
            return [f"malloc({n}) out of memory with a {gap}-byte gap"] if gap >= want else []
        self._time(t0)
        if not (cap.tag and cap.length == want and cap.address == cap.base
                and self.shadow.is_free(cap.base, cap.top)):
            return [f"malloc({n}) returned {cap}"]
        self.shadow.add(cap)
        return []

    def _free(self, rng):
        obj = self._pick(rng)
        t0 = clock()
        self.alloc.free(obj.cap)
        self._time(t0)
        self.shadow.quarantine(obj.cap.base)
        return []

    def _realloc(self, rng):
        obj = self._pick(rng)
        old = obj.cap
        if rng.random() < 0.5:
            n = old.length + rng.randint(1, 256)
        else:
            n = rng.randint(1, old.length)
        want = _round_up(n)
        in_place = want <= old.length or self.shadow.gap_after(old.top) >= want - old.length
        t0 = clock()
        try:
            cap = self.alloc.realloc(old, n)
        except OutOfMemory:
            self._time(t0)
            self.stats["oom"] += 1
            if in_place or self.shadow.largest_gap() >= want:
                return [f"realloc to {n} out of memory although it fits"]
            return []
        self._time(t0)
        if not (cap.tag and cap.length == want and cap.address == cap.base):
            return [f"realloc({old}, {n}) returned {cap}"]
        if in_place:
            if cap.base != old.base:
                return [f"realloc to {n} moved although it fits in place"]
            if want < old.length:
                self.shadow.shrink(obj, cap)
            elif want > old.length:
                self.shadow.grow_in_place(obj, cap)
            obj.cap = cap
        elif cap.base == old.base or not self.shadow.is_free(cap.base, cap.top):
            return [f"realloc to {n} moved onto a used region: {cap}"]
        else:
            self.shadow.move(obj, cap)
        return []

    def _store_cap(self, rng):
        holder = self._pick(rng)
        value = self._pick(rng).cap
        off = GRANULE * rng.randrange(holder.cap.length // GRANULE)
        t0 = clock()
        self.mem.store_cap(holder.cap, holder.cap.base + off, value)
        self._time(t0)
        self.shadow.write_cap(holder, off, value)
        return []

    def _load_cap(self, rng):
        for _ in range(8):
            holder = self._pick(rng)
            if holder.slots:
                break
        else:
            return self._load_bytes(rng)
        off = rng.choice(list(holder.slots))
        value, tagged = holder.slots[off]
        fault = None
        t0 = clock()
        copy = self.mem.load_cap(holder.cap, holder.cap.base + off)
        try:
            self.mem.load_bytes(copy, copy.address, 8)
        except CapFault as f:
            fault = f.kind
        self._time(t0)
        if fault is FaultKind.TAG:
            self.stats["tag_faults"] += 1
        if tagged and (copy != value or fault is not None):
            return [f"load_cap of a tagged slot gave {copy}, dereference fault {fault}"]
        if not tagged and (copy.tag or fault is not FaultKind.TAG):
            return [f"load_cap of an untagged slot gave {copy}, dereference fault {fault}"]
        return []

    def _span(self, rng, obj, limit=64):
        off = rng.randrange(obj.cap.length)
        return off, rng.randint(1, min(limit, obj.cap.length - off))

    def _store_bytes(self, rng):
        obj = self._pick(rng)
        off, n = self._span(rng, obj)
        payload = rng.randbytes(n)
        t0 = clock()
        self.mem.store_bytes(obj.cap, obj.cap.base + off, payload)
        self._time(t0)
        self.shadow.write_bytes(obj, off, payload)
        return []

    def _load_bytes(self, rng):
        obj = self._pick(rng)
        off, n = self._span(rng, obj)
        t0 = clock()
        got = self.mem.load_bytes(obj.cap, obj.cap.base + off, n)
        self._time(t0)
        return check_bytes(obj.data[off:off + n], obj.known[off:off + n], got)

    def _past_top(self, rng):
        cap = self._pick(rng).cap
        n = rng.randint(1, 8)
        fault = None
        t0 = clock()
        try:
            self.mem.load_bytes(cap, cap.top - n + 1, n)
        except CapFault as f:
            fault = f.kind
        self._time(t0)
        return [] if fault is FaultKind.BOUNDS else [f"one-past-top load of {cap}: fault {fault}"]

    def _mprotect(self, rng):
        cap = self._pick(rng).cap
        lo = cap.base // PAGE * PAGE
        hi = -(-cap.top // PAGE) * PAGE
        prot_cap = rng.random() < 0.5
        t0 = clock()
        self.mem.mprotect(PageProtRequest(lo, hi - lo, Perm(0)))
        self.mem.mprotect(PageProtRequest(lo, hi - lo, Perm.LOAD | Perm.STORE, prot_cap))
        self._time(t0)
        if not prot_cap:
            self.shadow.strip_tags(lo, hi)
        return []

    def _check_slot_tags(self):
        """End of a pass: every slot the shadow tracks holds exactly the tag
        the shadow predicts."""
        return [f"slot {base + off:#x}: tag {not tagged}, want {tagged}"
                for base, obj in self.shadow.live.items()
                for off, (_, tagged) in obj.slots.items()
                if self.mem.granule_tag(base + off) != tagged]

    def _scan(self):
        """Tagged granules, and tagged capabilities whose bounds escape the
        live or quarantined region holding their base."""
        tagged = unsafe = 0
        for addr in range(0, CHURN_MEM, GRANULE):
            if self.mem.granule_tag(addr):
                tagged += 1
                unsafe += self.shadow.unsafe(self.mem.load_cap(self.root, addr))
        return tagged, unsafe


# -- revoke_sweep ---------------------------------------------------------------

REVOKE_MEM = 1 << 20
SWEEP_T, SWEEP_Q = 512, 256
CURVE = ((256, 128), (512, 256), (1024, 512))
CURVE_REPEATS = 5


def _new_sweep_heap():
    mem = TaggedMemory(REVOKE_MEM)
    root = make_root(0, REVOKE_MEM, Perm.LOAD | Perm.STORE)
    return mem, root, CapAllocator(mem, root)


def sweep(rng: random.Random, t: int, q: int, rec: Recorder, heap=None) -> tuple[int, int]:
    """Store `t` capability copies, free `q` of 2q objects, time one revoke()
    and check it against the brute-force oracle.  Returns (ns, cleared)."""
    mem, root, alloc = heap or _new_sweep_heap()
    objs = [alloc.malloc(rng.randint(16, 256)) for _ in range(2 * q)]
    holder = alloc.malloc(t * GRANULE)
    slots = []
    for k in range(t):
        i = rng.randrange(len(objs) - 1)
        if rng.random() < 0.25:  # spans two neighbours: only intersection catches it
            value = set_bounds(root, objs[i].base, objs[i + 1].top - objs[i].base)
        else:
            value = objs[i]
        mem.store_cap(holder, holder.base + k * GRANULE, value)
        slots.append((value.base, value.top))
    freed = []
    for i in rng.sample(range(len(objs)), q):
        alloc.free(objs[i])
        freed.append((objs[i].base, objs[i].top))
    t0 = clock()
    cleared = alloc.revoke()
    elapsed = clock() - t0
    actual = [mem.granule_tag(holder.base + k * GRANULE) for k in range(t)]
    rec.check(check_revoke(revoke_oracle(slots, freed), actual, cleared))
    return elapsed, cleared


class RevokeSweep:
    """Fresh 1 MiB heap per sweep: T=512 stored copies, Q=256 freed
    objects, one timed revoke()."""

    name = "revoke_sweep"
    per_pass = 8

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self._heap = _new_sweep_heap()

    def run_pass(self, index: int, rec: Recorder, deadline=None, tracer=None) -> None:
        rng = pass_rng(self.name, self.seed, index)
        cleared_total = 0
        for k in range(self.per_pass):
            if deadline is not None and perf_counter() > deadline:
                return
            if tracer:
                tracer.new_request(f"sweep {k}")
            heap, self._heap = self._heap, None  # the first sweep uses the set-up heap
            try:
                elapsed, cleared = sweep(rng, SWEEP_T, SWEEP_Q, rec, heap)
            except Exception as exc:  # any stray exception is a failed sweep
                rec.check([f"sweep: unexpected {exc!r}"])
                continue
            rec.add(elapsed)
            cleared_total += cleared
        if index == 0:
            rec.sim["sim.revoke.cleared_total"] = cleared_total


def revoke_curve(seed: int, rec: Recorder) -> dict[str, float]:
    """Median revoke() time at each (T, Q) of CURVE and the log-log slope
    of time against T.  The sizes take turns, so a slow spell of the host
    does not fall on one size only."""
    rng = pass_rng("revoke_curve", seed, 0)
    times: dict[int, list[float]] = {t: [] for t, _ in CURVE}
    for _ in range(CURVE_REPEATS):
        for t, q in CURVE:
            times[t].append(sweep(rng, t, q, rec)[0] / 1e6)
    out = {}
    points = []
    for t, _ in CURVE:
        ms = statistics.median(times[t])
        out[f"allocator.revoke.ms_t{t}"] = ms
        points.append((math.log(t), math.log(ms)))
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    out["allocator.revoke.growth_exponent"] = (
        sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x, _ in points))
    return out


WORKLOADS = {w.name: w for w in (Matrix, HeapChurn, RevokeSweep)}
