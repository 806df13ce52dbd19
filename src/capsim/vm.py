"""Miniature VM substrate: tagged values, simulated stack, heap page,
mark bitmap, and the small runtime routines the pitfall scenarios
exercise in buggy and fixed form.

The VM's universal value is a capability-typed integer whose low three
address bits are an immediate tag; heap references are 32-byte aligned
and carry page-wide bounds.
"""
from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Iterator

from .allocator import CapAllocator
from .capability import (
    MASK64,
    CapInt,
    Capability,
    Perm,
    SealMode,
    SealState,
    WordModel,
    capint_binop,
    capint_to_int64,
    int64_to_capint,
    make_root,
    seal_entry,
    set_address,
)
from .memory import PAGE, TaggedMemory

IMMEDIATE_MASK = 0x7

OBJECT_SLOT = 32        # bytes per heap object
STACK_SLOT = 16         # bytes per stack slot
STACK_SLOTS = 64
HEAP_PAGE_BYTES = PAGE

SHAPE_ID_NUM_BITS = 16

NONASCII_MASK = 0x8080808080808080

# memory layout of one VM instance
MEM_SIZE = 0x10000
CODE_BASE, CODE_SIZE = 0x1000, 0x1000
STACK_BASE = 0x2000
STACK_SIZE = STACK_SLOTS * STACK_SLOT
HEAP_BASE, HEAP_SIZE = 0x4000, 0x8000


@dataclass(frozen=True)
class SymbolEntry:
    name: str
    st_value: int  # offset from the code base
    st_size: int


@dataclass
class MarkBitmap:
    """Mark bitmap stored as an array of pointer-sized words.

    Under the padded model the word stride is taken from the storage
    size (128 bits), so bit offsets of 64 and above fall into padding:
    the shift saturates to the sentinel 0 and the or-update is dropped.
    Under the exact-width model every bit is addressable.  An index
    outside [0, nbits) raises `ValueError`.
    """

    nbits: int
    model: WordModel
    words: list[int] = field(init=False)

    def __post_init__(self):
        stride = self.model.storage_bits
        self.words = [0] * ((self.nbits + stride - 1) // stride)

    def _locate(self, i: int) -> tuple[int, int]:
        """(word index, bit offset in the word) of bit `i`."""
        if not 0 <= i < self.nbits:
            raise ValueError(f"bit index {i} outside [0, {self.nbits})")
        return divmod(i, self.model.storage_bits)

    def set(self, i: int) -> None:
        index, offset = self._locate(i)
        mask = capint_binop(int64_to_capint(1), offset, "shl")
        self.words[index] = (self.words[index] | mask.address) & MASK64

    def test(self, i: int) -> bool:
        index, offset = self._locate(i)
        if offset >= 64:
            return False  # padding bits never hold data
        return bool((self.words[index] >> offset) & 1)

    def bits(self) -> set[int]:
        """Every index below nbits that `test` reports set, found by
        walking the set bits of each word (padding bits never count)."""
        stride = self.model.storage_bits
        found = set()
        for index, word in enumerate(self.words):
            word &= MASK64
            while word:
                low = word & -word
                i = index * stride + low.bit_length() - 1
                if i >= self.nbits:
                    return found  # indices only grow from here on
                found.add(i)
                word ^= low
        return found


def count_utf8_lead_bytes(buf: bytes, model: WordModel) -> int:
    """Word-parallel count of UTF-8 lead bytes (bytes whose top two bits
    are not `10`).

    The word loop strides by the storage size of the word type.  With
    padded words only the low 8 data bytes of each 16-byte word
    participate, so half of the input is silently skipped.
    """
    stride = model.storage_bytes
    if len(buf) % stride != 0:
        raise ValueError(f"buffer length must be a multiple of {stride}")
    count = 0
    for off in range(0, len(buf), stride):
        d = struct.unpack_from("<Q", buf, off)[0]
        d = ((d >> 6) | ((~d & MASK64) >> 7)) & (NONASCII_MASK >> 7)
        count += d.bit_count()
    return count


def utf8_lead_oracle(buf: bytes) -> int:
    """Independent per-byte count: a lead byte has top bits != 10."""
    return sum(1 for b in buf if (b >> 6) != 0b10)


def pad_utf8(buf: bytes, stride: int) -> bytes:
    """Pad to a word-stride multiple with continuation bytes (0x80),
    which never count as lead bytes."""
    rem = len(buf) % stride
    return buf if rem == 0 else buf + b"\x80" * (stride - rem)


def insn_hash_int(n: int) -> int:
    """Dispatch-routine hash on a plain 64-bit integer."""
    s1, s2 = 11, 3
    return (((n >> s1) | ((n << s2) & MASK64)) ^ (n >> s2)) & MASK64


def insn_hash_capint(n: CapInt, mode: SealMode,
                     advisories: list | None = None) -> CapInt:
    """The same hash routed through capability-typed-integer arithmetic.

    Every step modifies the address of a temporary derived from `n`, so
    a sealed input hits the seal-semantics mode at the first shift.
    """
    s1, s2 = 11, 3
    a = capint_binop(n, s1, "shr", mode, advisories)
    b = capint_binop(n, s2, "shl", mode, advisories)
    c = capint_binop(a, b, "or", mode, advisories)
    d = capint_binop(n, s2, "shr", mode, advisories)
    return capint_binop(c, d, "xor", mode, advisories)


class MiniVm:
    """One simulator instance: tagged memory, heap allocator, one heap
    page of 32-byte object slots, a downward-growing stack, and a fake
    code region for sealed return addresses and dispatch routines."""

    def __init__(self, seal_mode: SealMode = SealMode.FAULT_ON_MODIFY, seed: int = 0):
        self.seal_mode = seal_mode
        self.rng = random.Random(seed)
        self.advisories: list[str] = []
        self.mem = TaggedMemory(MEM_SIZE)
        self.code_cap = make_root(CODE_BASE, CODE_SIZE, Perm.LOAD | Perm.EXECUTE)
        self.stack_cap = make_root(STACK_BASE, STACK_SIZE, Perm.LOAD | Perm.STORE)
        self.arena_cap = make_root(HEAP_BASE, HEAP_SIZE, Perm.LOAD | Perm.STORE)
        self.alloc = CapAllocator(self.mem, self.arena_cap)
        self.heap_page = self.alloc.malloc(HEAP_PAGE_BYTES)
        self.bitmap = MarkBitmap(HEAP_PAGE_BYTES // OBJECT_SLOT, WordModel.EXACT64)

    def binop(self, lhs, rhs, op: str) -> CapInt:
        return capint_binop(lhs, rhs, op, self.seal_mode, self.advisories)

    # -- value constructors -------------------------------------------

    def object_ref(self, index: int) -> Capability:
        """Reference to heap object `index`, with page-wide bounds."""
        return set_address(self.heap_page, self.object_addr(index), self.seal_mode)

    def object_addr(self, index: int) -> int:
        return self.heap_page.base + index * OBJECT_SLOT

    def return_address(self, addr: int) -> Capability:
        """A synthesized sealed-entry return address into the code region."""
        return seal_entry(set_address(self.code_cap, addr, self.seal_mode))

    # -- stack ---------------------------------------------------------

    @property
    def stack_bottom(self) -> int:
        return STACK_BASE + STACK_SIZE

    def lay_out_stack(self, entries) -> int:
        """Place `entries` in consecutive slots from the stack top.

        Entries: ("ref", obj_index) tagged heap reference;
                 ("int", value) pointer-like integer stored as raw bytes;
                 ("ret", code_addr) sealed-entry return address;
                 ("imm", value) immediate (odd low bits) as raw bytes.
        Returns the stack-top address.
        """
        top = self.stack_bottom - len(entries) * STACK_SLOT
        for i, (kind, arg) in enumerate(entries):
            addr = top + i * STACK_SLOT
            slot_auth = set_address(self.stack_cap, addr, self.seal_mode)
            if kind == "ref":
                self.mem.store_cap(slot_auth, addr, self.object_ref(arg))
            elif kind == "ret":
                self.mem.store_cap(slot_auth, addr, self.return_address(arg))
            elif kind in ("int", "imm"):
                self.mem.store_bytes(slot_auth, addr, struct.pack("<Q", arg & MASK64))
            else:
                raise ValueError(f"unknown stack entry kind {kind!r}")
        return top

    def stack_values(self, top: int) -> Iterator[Capability]:
        """Yield the value in each stack slot from `top` up to the stack
        bottom, loaded through a scan pointer derived from the stack
        capability, whose bounds cover the whole stack."""
        scan = set_address(self.stack_cap, top, self.seal_mode)
        while scan.address < self.stack_bottom:
            yield self.mem.load_cap(scan, scan.address)
            scan = set_address(scan, scan.address + STACK_SLOT, self.seal_mode)

    # -- runtime routines ----------------------------------------------

    def vm_immediate_p(self, v: CapInt, variant: str, opt_level: str = "O0") -> bool:
        """Immediate-tag test on the low three address bits.

        The buggy variant at O0 performs the mask through capability
        arithmetic, creating a temporary capability; on a sealed input
        this follows the seal-semantics mode.  At O1 (and in the fixed
        variant) the address is extracted first and no temporary
        capability exists.
        """
        if variant == "buggy" and opt_level == "O0":
            tmp = self.binop(v, IMMEDIATE_MASK, "and")
            return tmp.address != 0
        return (capint_to_int64(v) & IMMEDIATE_MASK) != 0

    def looks_like_object(self, addr: int) -> bool:
        """Bit-pattern heuristic: inside the heap page and object-aligned."""
        return (self.heap_page.base <= addr < self.heap_page.top
                and addr % OBJECT_SLOT == 0)

    def gc_mark(self, v: Capability, variant: str) -> bool:
        """Mark the object referenced by `v`; returns whether it marked.

        The buggy variant trusts the address bit pattern and dereferences
        anything that looks like an object start; a pointer-like integer
        then raises a tag fault.  The fixed variant requires the validity
        tag (and an unsealed value) before dereferencing, which also skips
        dead objects reachable only through integers.
        """
        if self.vm_immediate_p(v, "fixed"):
            return False
        if variant == "fixed" and (not v.tag or v.seal is not SealState.UNSEALED):
            return False
        if not self.looks_like_object(v.address):
            return False
        # dereference the object header through v itself
        self.mem.load_bytes(v, v.address, 8)
        self.bitmap.set((v.address - self.heap_page.base) // OBJECT_SLOT)
        return True

    def marked_objects(self) -> set[int]:
        return self.bitmap.bits()
