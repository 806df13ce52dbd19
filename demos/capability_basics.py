#!/usr/bin/env python3
"""Walkthrough of capability derivation, sealing, and fault behavior."""
from capsim import (
    CapFault,
    Perm,
    SealMode,
    capint_binop,
    capint_to_int64,
    check_access,
    int64_to_capint,
    make_root,
    restrict_perms,
    seal_entry,
    set_bounds,
)


def show(label, cap):
    tag = "tagged" if cap.tag else "UNTAGGED"
    print(f"  {label}: {tag} [{cap.base:#x},{cap.top:#x}) @{cap.address:#x} "
          f"perms={cap.perms} sealed={cap.sealed}")


print("1. Monotonic derivation: bounds and permissions only shrink.")
root = make_root(0x1000, 0x1000, Perm.LOAD | Perm.STORE)
show("root", root)
narrow = set_bounds(root, 0x1200, 0x200)
show("narrowed", narrow)
readonly = restrict_perms(narrow, Perm.LOAD)
show("read-only", readonly)
widened = set_bounds(readonly, 0x1000, 0x1000)
show("widening attempt", widened)  # tag cleared: cannot be constructed

print("\n2. An integer cast back to a pointer has no validity tag.")
addr = capint_to_int64(narrow)
fake = int64_to_capint(addr)
show("round-tripped", fake)
try:
    check_access(fake, Perm.LOAD, 8, fake.address)
except CapFault as f:
    print(f"  dereference -> {f}")

print("\n3. Sealed entry capabilities are immutable; arithmetic on them")
print("   follows the seal semantics of the hardware generation.")
code = seal_entry(make_root(0x4000, 0x100, Perm.EXECUTE))
show("return address", code)
try:
    capint_binop(code, 8, "sub", SealMode.FAULT_ON_MODIFY)
except CapFault as f:
    print(f"  older semantics -> {f}")
out = capint_binop(code, 8, "sub", SealMode.INVALIDATE_ON_MODIFY)
show("newer semantics", out)
print(f"  extracting the address first never faults: {capint_to_int64(code):#x}")

print("\n4. Shifts past the 64-bit value width collapse to the sentinel 0.")
one = int64_to_capint(1)
print(f"  1 << 63 -> {capint_binop(one, 63, 'shl').address:#x}")
print(f"  1 << 70 -> {capint_binop(one, 70, 'shl').address:#x}")
