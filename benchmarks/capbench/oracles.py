"""The benchmark's own oracles.  None of them asks capsim what to expect.

- `MATRIX_TABLE`: the 34 cells of `capsim run all`, transcribed from the
  README scenario table (every fixed variant succeeds).
- `revoke_oracle`: brute-force bounds-intersection test of every stored
  capability against every freed region.
- `ShadowHeap`: the heap as the churn workload wrote it: live and
  quarantined regions, the bytes last written into each live object, and
  which capability slots should still hold a tag.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

# (scenario, mode, seal_mode, opt_level) -> (outcome kind, fault kind)
MATRIX_TABLE: dict[tuple, tuple] = {
    ("S1", "buggy", None, None): ("fault", "bounds"),
    ("S1", "fixed", None, None): ("ok", None),
    ("S2", "buggy", None, None): ("fault", "tag"),
    ("S2", "fixed", None, None): ("ok", None),
    ("S3", "buggy", None, None): ("fault", "bounds"),
    ("S3", "fixed", None, None): ("ok", None),
    ("S4", "buggy", None, None): ("corrupt", None),
    ("S4", "fixed", None, None): ("ok", None),
    ("S5", "buggy", None, None): ("corrupt", None),
    ("S5", "fixed", None, None): ("ok", None),
    ("S6", "buggy", None, None): ("corrupt", None),
    ("S6", "fixed", None, None): ("ok", None),
    ("S7", "buggy", "fault", None): ("fault", "seal"),
    ("S7", "buggy", "invalidate", None): ("ok", None),
    ("S7", "fixed", "fault", None): ("ok", None),
    ("S7", "fixed", "invalidate", None): ("ok", None),
    ("S8", "buggy", "fault", None): ("fault", "seal"),
    ("S8", "buggy", "invalidate", None): ("ok", None),
    ("S8", "fixed", "fault", None): ("ok", None),
    ("S8", "fixed", "invalidate", None): ("ok", None),
    ("S9", "buggy", "fault", "O0"): ("fault", "seal"),
    ("S9", "buggy", "fault", "O1"): ("ok", None),
    ("S9", "buggy", "invalidate", "O0"): ("ok", None),
    ("S9", "buggy", "invalidate", "O1"): ("ok", None),
    ("S9", "fixed", "fault", "O0"): ("ok", None),
    ("S9", "fixed", "fault", "O1"): ("ok", None),
    ("S9", "fixed", "invalidate", "O0"): ("ok", None),
    ("S9", "fixed", "invalidate", "O1"): ("ok", None),
    ("S10", "buggy", None, None): ("fault", "tag"),
    ("S10", "fixed", None, None): ("ok", None),
    ("S11", "buggy", None, None): ("fault", "tag"),
    ("S11", "fixed", None, None): ("ok", None),
    ("S12", "buggy", None, None): ("fault", "tag"),
    ("S12", "fixed", None, None): ("ok", None),
}


def check_matrix(report: dict) -> list[str]:
    """Problems with one `capsim run all --format json` report; [] if none."""
    problems = []
    seen = set()
    for rec in report.get("records", []):
        key = (rec["scenario"], rec["mode"], rec["seal_mode"], rec["opt_level"])
        out = rec["outcome"]
        if key in seen:
            problems.append(f"duplicate cell {key}")
        seen.add(key)
        want = MATRIX_TABLE.get(key)
        if want is None:
            problems.append(f"unexpected cell {key}")
        elif (out["kind"], out["fault"]) != want:
            problems.append(f"cell {key}: got {out['kind']}:{out['fault']}, want {want[0]}:{want[1]}")
        if rec["mode"] == "fixed" and out["expected"] != out["actual"]:
            problems.append(f"cell {key}: expected {out['expected']!r} != actual {out['actual']!r}")
    for key in MATRIX_TABLE.keys() - seen:
        problems.append(f"missing cell {key}")
    return problems


def matrix_outcome_counts(report: dict) -> dict[str, int]:
    """Simulated statistics of one report: faults by kind and corrupt cells."""
    counts = {"faults.bounds": 0, "faults.tag": 0, "faults.seal": 0, "corrupt": 0}
    for rec in report["records"]:
        out = rec["outcome"]
        if out["kind"] == "fault":
            counts[f"faults.{out['fault']}"] = counts.get(f"faults.{out['fault']}", 0) + 1
        elif out["kind"] == "corrupt":
            counts["corrupt"] += 1
    return counts


def revoke_oracle(slots: list[tuple[int, int]], freed: list[tuple[int, int]]) -> list[bool]:
    """For each stored capability's bounds [base, top), whether it must keep
    its tag: it loses it exactly when it intersects some freed [base, top)."""
    return [not (base < top and any(fb < top and base < ft for fb, ft in freed))
            for base, top in slots]


def check_revoke(expected: list[bool], actual: list[bool], returned: int) -> list[str]:
    problems = [f"slot {i}: tag {got}, want {want}"
                for i, (want, got) in enumerate(zip(expected, actual)) if want != got]
    if len(expected) != len(actual):
        problems.append(f"{len(actual)} slots read back, {len(expected)} stored")
    want_cleared = expected.count(False)
    if returned != want_cleared:
        problems.append(f"revoke() returned {returned}, oracle clears {want_cleared}")
    return problems


def check_bytes(data: bytes, known: bytes, got: bytes) -> list[str]:
    """Compare bytes read back with the shadow; only bytes the workload
    wrote itself (`known[i] == 1`) are compared."""
    if len(got) != len(data):
        return [f"read {len(got)} bytes, want {len(data)}"]
    return [f"byte {i}: {g:#04x} != written {d:#04x}"
            for i, (d, k, g) in enumerate(zip(data, known, got)) if k and d != g]


@dataclass
class ShadowObject:
    cap: object  # the live capability the allocator returned last
    data: bytearray
    known: bytearray  # 1 where `data` holds bytes the workload wrote
    # granule offset -> (capability stored there, whether it must be tagged)
    slots: dict[int, tuple[object, bool]] = field(default_factory=dict)


class ShadowHeap:
    """Regions and contents as the churn workload wrote them.  Regions are
    [base, top) intervals; quarantined regions are never reused here
    because the churn workload never revokes."""

    def __init__(self, size: int):
        self.size = size
        self.starts: list[int] = []   # sorted bases of live + quarantined regions
        self.tops: dict[int, int] = {}
        self.live: dict[int, ShadowObject] = {}  # base -> object
        self.live_bases: list[int] = []  # for uniform random choice
        self._index: dict[int, int] = {}

    # -- regions -----------------------------------------------------------

    def region_at(self, addr: int) -> tuple[int, int] | None:
        i = bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.tops[self.starts[i]]:
            return self.starts[i], self.tops[self.starts[i]]
        return None

    def is_free(self, base: int, top: int) -> bool:
        if base < 0 or top > self.size or base >= top:
            return False
        i = bisect_right(self.starts, base) - 1
        if i >= 0 and self.tops[self.starts[i]] > base:
            return False
        return i + 1 >= len(self.starts) or self.starts[i + 1] >= top

    def gap_after(self, top: int) -> int:
        """Length of the free gap starting at `top`."""
        i = bisect_left(self.starts, top)
        end = self.starts[i] if i < len(self.starts) else self.size
        return end - top

    def largest_gap(self) -> int:
        best, cursor = 0, 0
        for base in self.starts:
            best = max(best, base - cursor)
            cursor = self.tops[base]
        return max(best, self.size - cursor)

    def _add_region(self, base: int, top: int) -> None:
        self.starts.insert(bisect_right(self.starts, base), base)
        self.tops[base] = top

    # -- live objects --------------------------------------------------------

    def add(self, cap) -> ShadowObject:
        self._add_region(cap.base, cap.top)
        obj = ShadowObject(cap, bytearray(cap.length), bytearray(cap.length))
        self.live[cap.base] = obj
        self._index[cap.base] = len(self.live_bases)
        self.live_bases.append(cap.base)
        return obj

    def quarantine(self, base: int) -> ShadowObject:
        """The object at `base` is freed; its region stays reserved."""
        i = self._index.pop(base)
        last = self.live_bases.pop()
        if last != base:
            self.live_bases[i] = last
            self._index[last] = i
        return self.live.pop(base)

    def shrink(self, obj: ShadowObject, cap) -> None:
        """realloc to a smaller size: the tail becomes free memory."""
        self.tops[obj.cap.base] = cap.top
        del obj.data[cap.length:]
        del obj.known[cap.length:]
        for off in [o for o in obj.slots if o >= cap.length]:
            del obj.slots[off]
        obj.cap = cap

    def grow_in_place(self, obj: ShadowObject, cap) -> None:
        self.tops[obj.cap.base] = cap.top
        extra = cap.length - obj.cap.length
        obj.data.extend(bytes(extra))
        obj.known.extend(bytes(extra))
        obj.cap = cap

    def move(self, obj: ShadowObject, cap) -> ShadowObject:
        """realloc that moved: the old region is quarantined and the bytes are
        copied as plain data, so no copied slot keeps a tag."""
        self.quarantine(obj.cap.base)
        new = self.add(cap)
        n = obj.cap.length
        new.data[:n] = obj.data
        new.known[:n] = obj.known
        new.slots = {off: (value, False) for off, (value, _) in obj.slots.items()}
        return new

    def write_bytes(self, obj: ShadowObject, off: int, payload: bytes) -> None:
        end = off + len(payload)
        obj.data[off:end] = payload
        obj.known[off:end] = b"\x01" * len(payload)
        for g in range(off - off % 16, end, 16):
            if g in obj.slots:
                obj.slots[g] = (obj.slots[g][0], False)

    def write_cap(self, obj: ShadowObject, off: int, value) -> None:
        obj.slots[off] = (value, bool(value.tag))
        obj.known[off:off + 16] = bytes(16)

    def strip_tags(self, lo: int, hi: int) -> None:
        """Page protection restored without prot_cap: every slot in [lo, hi)
        loses its tag."""
        for base, obj in self.live.items():
            if obj.slots and base < hi and obj.cap.top > lo:
                for off, (value, _) in obj.slots.items():
                    if lo <= base + off < hi:
                        obj.slots[off] = (value, False)

    def unsafe(self, cap) -> bool:
        """A tagged stored capability is unsafe when its bounds are not
        inside the live or quarantined region that holds its base."""
        region = self.region_at(cap.base)
        return region is None or cap.top > region[1]
