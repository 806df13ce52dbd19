"""Byte-addressable memory with per-granule validity tags.

The bytes are one writable `memoryview` over a `bytearray`, `data`:
`store_bytes` assigns through it and `load_bytes` copies a slice of it
out as `bytes`, so a loaded value never aliases memory.  A memoryview
cannot be pickled, so neither a `TaggedMemory` nor a `MiniVm` that holds
one can be deep-copied or pickled.
Every 16-byte aligned granule carries one tag bit.  The side table
`granule_caps` holds the full capability of each tagged granule and
nothing else: a granule is tagged exactly when it has an entry, so
clearing a tag removes the entry, and a sweep or a page's tag strip
visits only tagged granules.  Its keys are granule base addresses, so a
capability access uses its address as the key and a tag query masks an
address down to its granule; this module and the allocator's sweep are
the only code that reads the table.  Any plain byte write into a granule
clears its tag.
Pages have an mprotect-style protection call.  Of a page's permissions
only two facts are ever tested, whether it denies a load and whether it
denies a store, so the memory keeps two sets of page indices,
`load_denied` and `store_denied`, and `mprotect` is their only writer.
A page in both sets (its mask `Perm(0)` or EXECUTE alone) is
inaccessible, and loses the tags of all its granules when a later
`mprotect` gives back LOAD or STORE without `prot_cap`; with `prot_cap`
the tags are kept, and a change between two accessible masks never
strips.
Every load and store names an authorising capability and an address,
and is checked in the ISA's order.  `check_access` tests the address and
size (`check_int`), then the capability's tag, seal, permission and
bounds at that address, with no moved copy derived; a capability load
or store then tests alignment to a granule; the memory's own check,
`_check`, then tests the end of memory (unmapped) and the pages first to
last, naming the first that denies the access.  An accessor calls
`_check` only when the access runs past memory or its kind's set of
denying pages is not empty; otherwise neither can fail.  The memory size
and the `mprotect` start and length must pass `check_int`, its
`prot_cap` must be `True` or `False` and every other operand, the
authority too, must be of its annotated type (a byte payload may be
`bytes`, a `bytearray` or a `memoryview`), else `ValueError` is raised
before any fault check.
Every fault is raised with its check and operands; its kind and wording
live in `capability.FAULTS`.
"""
from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import Iterator

from .capability import (
    CapFault,
    Capability,
    Perm,
    check_access,
    check_int,
    int64_to_capint,
    not_a,
)

GRANULE = 16
PAGE = 4096
# `addr & _GRANULE_MASK` is the base of addr's granule: a constant, because
# `-GRANULE` written in place is negated again on every call
_GRANULE_MASK = -GRANULE
_LOAD, _STORE = Perm.LOAD, Perm.STORE  # cheaper to read than the enum's attributes
_BYTES_LIKE = (bytes, bytearray, memoryview)  # what `store_bytes` writes


@dataclass(frozen=True)
class PageProtRequest:
    start: int
    length: int
    perms: Perm
    prot_cap: bool = False


class TaggedMemory:
    def __init__(self, size: int):
        # a bytearray holds fewer than sys.maxsize bytes
        if check_int(size, "memory size", 1, sys.maxsize) % PAGE != 0:
            raise ValueError("size must be a positive multiple of the page size")
        self.size = size
        self.data = memoryview(bytearray(size))
        # granule base address -> capability, for tagged granules only
        self.granule_caps: dict[int, Capability] = {}
        # the indices of the pages that deny a load, and of those that deny a store
        self.load_denied: set[int] = set()
        self.store_denied: set[int] = set()

    # -- capability-checked access ------------------------------------

    def _check(self, authority: Capability, addr: int, kind: Perm, size: int) -> None:
        """The memory's own checks of an access whose capability check has
        passed: the access must end within memory, then no page it touches
        may be in the denying set of its kind, LOAD or STORE.  Neither can
        fail unless `addr + size > self.size` or that set, `load_denied` or
        `store_denied`, is not empty, so an accessor calls this only then."""
        end = addr + size
        if end > self.size:
            raise CapFault("unmapped", cap=authority, access=kind, size=size, address=addr)
        denied = self.load_denied if kind is _LOAD else self.store_denied
        page = addr // PAGE
        last = (end - 1) // PAGE
        while page not in denied:
            if page == last:
                return
            page += 1
        raise CapFault("page", cap=authority, access=kind, size=size, address=addr, page=page)

    def store_cap(self, authority: Capability, addr: int, value: Capability) -> None:
        if not isinstance(value, Capability):
            raise not_a("stored value", Capability, value)
        check_access(authority, _STORE, GRANULE, addr)
        if addr % GRANULE != 0:
            raise CapFault("alignment", cap=authority, access=_STORE, size=GRANULE,
                           address=addr, op="store")
        if addr + GRANULE > self.size or self.store_denied:
            self._check(authority, addr, _STORE, GRANULE)
        value.encode(self.data, addr)
        if value.tag:
            self.granule_caps[addr] = value
        else:
            self.granule_caps.pop(addr, None)

    def load_cap(self, authority: Capability, addr: int) -> Capability:
        check_access(authority, _LOAD, GRANULE, addr)
        if addr % GRANULE != 0:
            raise CapFault("alignment", cap=authority, access=_LOAD, size=GRANULE,
                           address=addr, op="load")
        if addr + GRANULE > self.size or self.load_denied:
            self._check(authority, addr, _LOAD, GRANULE)
        cap = self.granule_caps.get(addr)
        if cap is not None:
            return cap
        # untagged granule: the low 64 bits load as a pointer-like integer
        return int64_to_capint(struct.unpack_from("<Q", self.data, addr)[0])

    def store_bytes(self, authority: Capability, addr: int, payload: bytes) -> None:
        if type(payload) is not bytes:
            if not isinstance(payload, _BYTES_LIKE):
                raise not_a("byte payload", _BYTES_LIKE, payload)
            payload = bytes(payload)  # a memoryview's len counts items, not bytes
        n = len(payload)
        check_access(authority, _STORE, n, addr)
        end = addr + n
        if end > self.size or self.store_denied:
            self._check(authority, addr, _STORE, n)
        self.data[addr:end] = payload
        # nearly every covered granule is untagged, and a missed `in` costs
        # less than a missed `pop(g, None)`
        caps = self.granule_caps
        g = addr & _GRANULE_MASK
        while g < end:
            if g in caps:
                del caps[g]
            g += GRANULE

    def load_bytes(self, authority: Capability, addr: int, n: int) -> bytes:
        check_access(authority, _LOAD, n, addr)
        if addr + n > self.size or self.load_denied:
            self._check(authority, addr, _LOAD, n)
        return self.data[addr:addr + n].tobytes()

    # -- page protection ----------------------------------------------

    def mprotect(self, req: PageProtRequest) -> None:
        if not isinstance(req, PageProtRequest):
            raise not_a("mprotect request", PageProtRequest, req)
        start = check_int(req.start, "mprotect start", 0)
        length = check_int(req.length, "mprotect length", 0)
        if start % PAGE != 0 or length % PAGE != 0:
            raise ValueError("mprotect range must be page aligned")
        if start + length > self.size:
            raise ValueError("mprotect range outside memory")
        if not isinstance(req.perms, Perm):
            raise not_a("mprotect perms", Perm, req.perms)
        if req.prot_cap is not True and req.prot_cap is not False:
            raise ValueError(f"mprotect prot_cap must be True or False, not {req.prot_cap!r}")
        perms = req.perms
        pages = range(start // PAGE, (start + length) // PAGE)
        # restoring access to an inaccessible page strips its tags
        if not req.prot_cap and (_LOAD in perms or _STORE in perms):
            caps = self.granule_caps
            for page in self.load_denied.intersection(pages, self.store_denied):
                base = page * PAGE
                for addr in caps.keys() & range(base, base + PAGE, GRANULE):
                    del caps[addr]
        for kind, denied in ((_LOAD, self.load_denied), (_STORE, self.store_denied)):
            if kind in perms:
                denied.difference_update(pages)
            else:
                denied.update(pages)

    # -- raw inspection (tag snapshots for callers and test oracles) ----

    def iter_tagged(self) -> Iterator[tuple[int, Capability]]:
        """Return an iterator of (granule base address, capability) for
        every tagged granule in ascending address order.  The snapshot is
        taken when this method is called: the side table's items are sorted
        into a list before it returns, so the consumer may clear tags as it
        goes.  It costs O(T log T) for T tagged granules, so the allocator's
        revocation sweep does not call it: it reads `granule_caps` in place
        and clears through `clear_granule_tag`."""
        return iter(sorted(self.granule_caps.items()))

    def clear_granule_tag(self, addr: int) -> None:
        if type(addr) is not int:
            check_int(addr, "address")
        self.granule_caps.pop(addr & _GRANULE_MASK, None)

    def granule_tag(self, addr: int) -> bool:
        if type(addr) is not int:
            check_int(addr, "address")
        return addr & _GRANULE_MASK in self.granule_caps
