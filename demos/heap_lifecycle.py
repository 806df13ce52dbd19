#!/usr/bin/env python3
"""Walkthrough of the quarantine/revocation heap lifecycle."""
from capsim import AllocError, CapAllocator, CapFault, Perm, TaggedMemory, make_root, set_bounds

mem = TaggedMemory(0x8000)
arena = make_root(0x1000, 0x4000, Perm.LOAD | Perm.STORE)
alloc = CapAllocator(mem, arena)

print("malloc returns tightly-bounded capabilities:")
a = alloc.malloc(32)
print(f"  a: [{a.base:#x},{a.top:#x}) length {a.length}")

print("\nstore two copies of `a` into another allocation:")
holder = alloc.malloc(64)
mem.store_cap(holder, holder.base, a)
mem.store_cap(holder, holder.base + 16, a)

print("\nfree(a): the region is quarantined, not recycled...")
alloc.free(a)
b = alloc.malloc(32)
print(f"  new malloc lands elsewhere: b.base={b.base:#x} (a.base={a.base:#x})")
print(f"  a retained copy still works pre-revocation: "
      f"{mem.load_cap(holder, holder.base).tag=}")

print("\nrevoke(): every stored capability into quarantine loses its tag.")
cleared = alloc.revoke()
print(f"  cleared {cleared} stored capabilities")
stale = mem.load_cap(holder, holder.base)
try:
    mem.load_bytes(stale, stale.address, 8)
except CapFault as f:
    print(f"  use after revocation -> {f}")

print("\nrealloc never widens the old capability:")
c = alloc.malloc(32)
grown = alloc.realloc(c, 64)
print(f"  old bounds [{c.base:#x},{c.top:#x}), new bounds [{grown.base:#x},{grown.top:#x})")
try:
    mem.store_bytes(c, c.base + 48, b"x")
except CapFault as f:
    print(f"  write to the grown area via the old capability -> {f}")

print("\nonly the object's own capability frees or resizes it:")
view = set_bounds(grown, grown.base, 16)
try:
    alloc.realloc(view, 64)
except AllocError as e:
    print(f"  realloc of a 16-byte view -> {e}")
