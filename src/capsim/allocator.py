"""Heap allocator issuing tightly-bounded capabilities.

Freed regions go into quarantine instead of back onto the free list;
an explicit revocation sweep clears the tag of every stored capability
whose bounds intersect a quarantined region, after which the regions
become reusable.  realloc follows capability semantics: the returned
capability is always a fresh derivation and the caller's old capability
keeps its old bounds.  free and realloc require a tagged, unsealed
capability whose base is that of a live allocation, so bits that merely
look like a pointer cannot release or resize an object.

The free list is a sorted list of disjoint, coalesced (base, length)
regions; with F entries, in-place realloc growth bisects it for the
block at the object's end in O(log F), and a shrinking realloc returns
its tail in O(log F) plus the list insert, merging it only with its
neighbours.  A growth that does not fit in place is malloc, copy, free.
malloc takes the lowest-addressed block that fits (first fit, a linear
scan); it and in-place growth carve bytes from the front of a free block.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right

from .capability import Capability, SealState, set_address, set_bounds
from .memory import GRANULE, TaggedMemory

ALIGN = GRANULE  # allocation granularity


class AllocError(Exception):
    pass


class OutOfMemory(AllocError):
    pass


def _round_up(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def _require_authority(cap: Capability, what: str) -> None:
    if not cap.tag or cap.seal is not SealState.UNSEALED:
        raise AllocError(f"{what} through an untagged or sealed capability @{cap.base:#x}")


def _coalesce(regions) -> list[tuple[int, int]]:
    """Sort (base, length) regions and merge those that touch, overlap or
    contain each other into disjoint spans, dropping empty ones."""
    merged: list[tuple[int, int]] = []
    start = end = None  # the open span [start, end), appended when it closes
    for base, length in sorted(regions):
        if length <= 0:
            continue
        top = base + length
        if end is not None and base <= end:  # touches or reaches into it
            if top > end:
                end = top
        else:
            if end is not None:
                merged.append((start, end - start))
            start, end = base, top
    if end is not None:
        merged.append((start, end - start))
    return merged


class CapAllocator:
    def __init__(self, mem: TaggedMemory, arena: Capability):
        self.mem = mem
        self.arena = arena
        self.live: dict[int, int] = {}
        self.free_list: list[tuple[int, int]] = [(arena.base, arena.length)]
        self.quarantine: list[tuple[int, int]] = []
        self.epoch = 0

    # -- internal free-list management --------------------------------

    def _carve(self, i: int, size: int) -> int:
        """Take `size` bytes from the front of free block `i` (which holds
        at least that many) and return their base; a used-up block goes."""
        base, length = self.free_list[i]
        if length == size:
            del self.free_list[i]
        else:
            self.free_list[i] = (base + size, length - size)
        return base

    def _take(self, size: int) -> int:
        """First-fit: carve `size` bytes out of the free list."""
        for i, (base, length) in enumerate(self.free_list):
            if length >= size:
                return self._carve(i, size)
        raise OutOfMemory(f"no free region of {size} bytes")

    def _release(self, base: int, length: int) -> None:
        """Return one non-empty region that no free block overlaps to the
        free list, merged with the blocks it touches on either side, so
        the list stays `_coalesce` of its old blocks plus the region."""
        free_list = self.free_list
        top = base + length
        lo = hi = bisect_left(free_list, (base,))
        if lo and sum(free_list[lo - 1]) == base:  # the block before ends here
            lo -= 1
            base = free_list[lo][0]
        if hi < len(free_list) and free_list[hi][0] == top:
            top += free_list[hi][1]
            hi += 1
        free_list[lo:hi] = [(base, top - base)]

    # -- public surface ------------------------------------------------

    def malloc(self, n: int) -> Capability:
        if n < 1:
            raise AllocError("allocation size must be >= 1")
        size = _round_up(n)
        base = self._take(size)
        self.live[base] = size
        return set_bounds(self.arena, base, size)

    def free(self, cap: Capability) -> None:
        _require_authority(cap, "free")
        size = self.live.pop(cap.base, None)
        if size is None:
            raise AllocError(f"free of unknown or already-freed base {cap.base:#x}")
        self.quarantine.append((cap.base, size))

    def revoke(self) -> int:
        """Sweep memory: clear the tag of every stored capability whose
        bounds intersect quarantine, then recycle the regions.

        A capability is revoked when [base, top) intersects a quarantined
        region, not only when its base lies inside one: a capability
        whose base is outside the region still reaches into it.  Empty or
        inverted bounds reach nothing and survive.  The quarantine is
        coalesced into sorted disjoint, non-empty spans once.  Earlier
        spans end at or before a capability's base, so only the first span
        ending after `base` can intersect it, and it does exactly when it
        starts below `top` and `base < top`; each tagged capability bisects
        the span ends for that span.  With T tagged granules, Q quarantined
        regions and F free-list entries the sweep costs
        O(T log Q + Q log Q + F).  Returns the number of tags cleared.
        """
        spans = _coalesce(self.quarantine)
        starts = [start for start, _ in spans]
        ends = [start + length for start, length in spans]
        n = len(spans)
        clear = self.mem.clear_granule_tag
        cleared = 0
        for addr, cap in self.mem.iter_tagged():
            base, top = cap.base, cap.top
            i = bisect_right(ends, base)
            if i < n and starts[i] < top and base < top:
                clear(addr)
                cleared += 1
        self.free_list = _coalesce(self.free_list + spans)
        self.quarantine = []
        self.epoch += 1
        return cleared

    def realloc(self, old: Capability, n: int) -> Capability:
        _require_authority(old, "realloc")
        old_size = self.live.get(old.base)
        if old_size is None:
            raise AllocError(f"realloc of unknown base {old.base:#x}")
        if n < 1:
            raise AllocError("allocation size must be >= 1")
        size = _round_up(n)
        extra = size - old_size
        if extra < 0:
            self._release(old.base + size, -extra)
        elif extra > 0:
            # growth: in place if the free block at the object's end fits
            tail = old.base + old_size
            free_list = self.free_list
            i = bisect_left(free_list, (tail,))  # (tail,) sorts before (tail, length)
            if i < len(free_list) and free_list[i][0] == tail and free_list[i][1] >= extra:
                self._carve(i, extra)
            else:
                # move; allocating first leaves the heap unchanged on OutOfMemory
                new = self.malloc(n)
                payload = self.mem.load_bytes(self.arena, old.base, old_size)
                self.mem.store_bytes(self.arena, new.base, payload)
                self.free(old)
                return new
        self.live[old.base] = size
        return set_address(set_bounds(self.arena, old.base, size), old.address)
