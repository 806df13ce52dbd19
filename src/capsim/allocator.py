"""Heap allocator issuing tightly-bounded capabilities.

Freed regions go into quarantine instead of back onto the free list;
a revocation sweep clears the tag of every stored capability whose
bounds intersect a quarantined region, after which the regions become
reusable.  The sweep finds stored capabilities only through the
memory's `iter_tagged`.  A sweep runs when `revoke` is called, and
inside `malloc` when no free block fits and the quarantine is not
empty: `malloc` then revokes once and retries, so a `malloc` may clear
tags.  realloc follows capability semantics: the returned capability is
always a fresh derivation and the caller's old capability keeps its old
bounds.  Only an object's own capability frees or resizes it: tagged,
unsealed, with exactly its bounds and the arena's permissions (at any
address), so neither bits that look like a pointer nor a narrowed or
read-only view can release, resize or widen it.

The free list is a sorted list of disjoint, coalesced (base, length)
regions.  malloc takes the lowest-addressed block that fits (first fit,
a linear scan) and carves bytes from its front.  realloc to `size` bytes
has one rule: with `after` the length of the free block that starts at
the object's end (0 if none) and `rest = after + old_size - size`, the
object moves (malloc, copy, free) if `rest < 0`; otherwise one free-list
write makes (base + size, rest) that block, inserting it, or dropping it
when `rest` is 0.  A shrink, an equal size and growth in place are all
this write, after one O(log F) bisection of the F-entry free list.
A size that fails `check_int` (not an int, or a `bool`) and a freed or
resized value that is not a `Capability` raise `ValueError`, and an int
size below one byte raises `AllocError`, all before the heap is touched.
A memory that is not a `TaggedMemory`, and an arena that is not a tagged,
unsealed, non-empty `Capability` with `ALIGN`-aligned bounds inside that
memory, raise `ValueError` at construction.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .capability import Capability, check_int, not_a, set_address, set_bounds
from .memory import GRANULE, TaggedMemory

ALIGN = GRANULE  # allocation granularity
_BASE = itemgetter(0)  # a (base, length) region's sort and search key


class AllocError(Exception):
    pass


class OutOfMemory(AllocError):
    pass


def _round_up(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


def _coalesce(regions) -> list[tuple[int, int]]:
    """Sort (base, length) regions by base and merge those that touch,
    overlap or contain each other into disjoint spans, dropping empty ones.

    The sort compares the int bases alone, not the tuples element by
    element, which is nearly three times as fast on 256 regions.  It is
    stable, so regions sharing a base keep their input order; merging
    takes the furthest top among them whatever that order, so the spans
    are the same for any order of the input."""
    merged: list[tuple[int, int]] = []
    start = end = None  # the open span [start, end), appended when it closes
    for base, length in sorted(regions, key=_BASE):
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
        if not isinstance(mem, TaggedMemory):
            raise not_a("allocator memory", TaggedMemory, mem)
        if not isinstance(arena, Capability):
            raise not_a("allocator arena", Capability, arena)
        base, top = arena.base, arena.top
        if (not arena.tag or arena.sealed or top <= base
                or base % ALIGN or top % ALIGN or top > mem.size):
            raise ValueError(f"an allocator's arena must be tagged, unsealed, non-empty,"
                             f" {ALIGN}-byte aligned and inside memory, not {arena!r}")
        self.mem = mem
        self.arena = arena
        self.live: dict[int, int] = {}
        self.free_list: list[tuple[int, int]] = [(base, top - base)]
        self.quarantine: list[tuple[int, int]] = []

    # -- internal free-list management --------------------------------

    def _take(self, size: int) -> int:
        """First-fit: carve `size` bytes from the front of the lowest free
        block that holds them and return their base; a used-up block goes."""
        free_list = self.free_list
        for i, (base, length) in enumerate(free_list):
            if length >= size:
                if length == size:
                    del free_list[i]
                else:
                    free_list[i] = (base + size, length - size)
                return base
        raise OutOfMemory(f"no free region of {size} bytes")

    def _object_size(self, cap: Capability, what: str) -> int:
        """The size of the live object whose own capability `cap` is:
        tagged, unsealed, with exactly the object's bounds and the arena's
        permissions, at any address.  A value that is not a `Capability`
        raises ValueError."""
        if not isinstance(cap, Capability):
            raise not_a(f"{what}'s operand", Capability, cap)
        size = self.live.get(cap.base)
        if (size != cap.top - cap.base or not cap.tag
                or cap.sealed or cap.perms != self.arena.perms):
            raise AllocError(f"{what} needs a live object's own capability,"
                             f" not [{cap.base:#x},{cap.top:#x})")
        return size

    # -- public surface ------------------------------------------------

    def malloc(self, n: int) -> Capability:
        if check_int(n, "allocation size") < 1:
            raise AllocError("allocation size must be >= 1")
        size = _round_up(n)
        try:
            base = self._take(size)
        except OutOfMemory:
            if not self.quarantine:
                raise
            self.revoke()
            base = self._take(size)
        self.live[base] = size
        return set_bounds(self.arena, base, size)

    def free(self, cap: Capability) -> None:
        size = self._object_size(cap, "free")
        del self.live[cap.base]
        self.quarantine.append((cap.base, size))

    def revoke(self) -> int:
        """Sweep memory: clear the tag of every stored capability whose
        bounds intersect quarantine, then recycle the regions.

        A capability is revoked when [base, top) intersects a quarantined
        region, not only when its base lies inside one: a capability
        whose base is outside the region still reaches into it.  Empty or
        inverted bounds reach nothing and survive.  The quarantine is
        coalesced into sorted disjoint, non-empty spans once, by a sort on
        the regions' int bases (see `_coalesce`).  Earlier
        spans end at or before a capability's base, so only the first span
        ending after `base` can intersect it, and it does exactly when it
        starts below `top` and `base < top`; each tagged capability bisects
        the span ends for that span.  A sentinel start of 2**65, above any
        `top`, stands for "no such span", so the test needs no bounds check.
        One comprehension over `iter_tagged`, the memory's live view of its
        tagged granules, collects the revoked granule addresses first; their
        tags are cleared after it, one `clear_granule_tag` call each, in the
        order the view yields them.  The view copies and sorts nothing, so
        no tag is cleared while the comprehension reads it.  With T tagged
        granules, Q quarantined regions and F free-list entries the sweep
        costs O(T log Q + Q log Q + F), whatever order the capabilities
        were stored in.
        Returns the number of tags cleared.
        """
        spans = _coalesce(self.quarantine)
        starts = [start for start, _ in spans]
        starts.append(1 << 65)
        ends = [start + length for start, length in spans]
        revoked = [addr for addr, cap in self.mem.iter_tagged()
                   if starts[bisect_right(ends, cap.base)] < cap.top and cap.base < cap.top]
        clear = self.mem.clear_granule_tag
        for addr in revoked:
            clear(addr)
        self.free_list = _coalesce(self.free_list + spans)
        self.quarantine = []
        return len(revoked)

    def realloc(self, old: Capability, n: int) -> Capability:
        old_size = self._object_size(old, "realloc")
        if check_int(n, "allocation size") < 1:
            raise AllocError("allocation size must be >= 1")
        size = _round_up(n)
        end = old.base + old_size
        free_list = self.free_list
        i = bisect_left(free_list, end, key=_BASE)
        after = free_list[i][1] if i < len(free_list) and free_list[i][0] == end else 0
        rest = after + old_size - size
        if rest < 0:
            # move; allocating first leaves `old` live and in place on OutOfMemory
            new = self.malloc(n)
            payload = self.mem.load_bytes(self.arena, old.base, old_size)
            self.mem.store_bytes(self.arena, new.base, payload)
            self.free(old)
            return new
        free_list[i:i + 1 if after else i] = [(old.base + size, rest)] if rest else []
        self.live[old.base] = size
        return set_address(set_bounds(self.arena, old.base, size), old.address)
