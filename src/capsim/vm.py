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
import sys
from dataclasses import dataclass, field
from typing import Iterator

from .allocator import CapAllocator
from .capability import (
    MASK64,
    Capability,
    SEAL_MODES,
    WORD_MODELS,
    Perm,
    SealMode,
    WordModel,
    capint_binop,
    check_int,
    int64_to_capint,
    make_root,
    not_a,
    not_one_of,
    seal_entry,
    set_address,
)
from .memory import _BYTES_LIKE, GRANULE, PAGE, TaggedMemory

IMMEDIATE_MASK = 0x7

OBJECT_SLOT = 32        # bytes per heap object
STACK_SLOT = GRANULE    # bytes per stack slot: one capability
STACK_SLOTS = 64
HEAP_PAGE_BYTES = PAGE

SHAPE_ID_NUM_BITS = 16

NONASCII_MASK = 0x8080808080808080
_UTF8_CONTINUATION = bytes(range(0x80, 0xC0))  # every byte whose top bits are 10
_HASH_SHIFTS = (11, 3)  # the dispatch hash's two shift distances
_ONE = int64_to_capint(1)  # MarkBitmap.set shifts it to each bit's mask

# memory layout of one VM instance: memory ends where the heap ends
CODE_BASE, CODE_SIZE = 0x1000, 0x1000
STACK_BASE = 0x2000
STACK_SIZE = STACK_SLOTS * STACK_SLOT
HEAP_BASE, HEAP_SIZE = 0x4000, 0x8000
MEM_SIZE = HEAP_BASE + HEAP_SIZE

# the variants of each runtime idiom and the compiler levels it is built at
MODES = ("buggy", "fixed")
OPT_LEVELS = ("O0", "O1")


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
    Under the exact-width model every bit is addressable.  A size
    `nbits` that is not an int in [0, sys.maxsize), a model not in
    `WORD_MODELS` or an index not an int in [0, nbits) raises `ValueError`.
    """

    nbits: int
    model: WordModel
    words: list[int] = field(init=False)

    def __post_init__(self):
        nbits = self.nbits
        if type(nbits) is not int or not 0 <= nbits < sys.maxsize:
            check_int(nbits, "bitmap size", 0, sys.maxsize)
        if self.model not in WORD_MODELS:
            raise not_one_of("word model", WORD_MODELS, self.model)
        stride = self.model.storage_bits
        self.words = [0] * ((nbits + stride - 1) // stride)

    def _locate(self, i: int) -> tuple[int, int]:
        """(word index, bit offset in the word) of bit `i`."""
        return divmod(check_int(i, "bit index", 0, self.nbits), self.model.storage_bits)

    def set(self, i: int) -> None:
        index, offset = self._locate(i)
        mask = capint_binop(_ONE, offset, "shl")
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

    The word loop strides by the storage size of the word type.  With padded
    words only the low 8 data bytes of each 16-byte word participate, so
    half of the input is silently skipped.  `buf` is `bytes`, a
    `bytearray` or a `memoryview`, read as its bytes as `store_bytes`
    reads a payload; anything else, a model not in `WORD_MODELS` or a
    partial last word raises `ValueError`.
    """
    if type(buf) is not bytes:
        if not isinstance(buf, _BYTES_LIKE):
            raise not_a("utf-8 buffer", _BYTES_LIKE, buf)
        buf = bytes(buf)
    if model not in WORD_MODELS:
        raise not_one_of("word model", WORD_MODELS, model)
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
    """Independent per-byte count: a lead byte has top bits != 10, so
    deleting every continuation byte leaves exactly the lead bytes."""
    return len(bytes(buf).translate(None, _UTF8_CONTINUATION))


def pad_utf8(buf: bytes, stride: int) -> bytes:
    """Pad to a word-stride multiple with continuation bytes (0x80),
    which never count as lead bytes."""
    rem = len(buf) % stride
    return buf if rem == 0 else buf + b"\x80" * (stride - rem)


def insn_hash_int(n: int) -> int:
    """Dispatch-routine hash on a plain 64-bit integer (`check_int`)."""
    if type(n) is not int:
        check_int(n, "hash input")
    s1, s2 = _HASH_SHIFTS
    return (((n >> s1) | ((n << s2) & MASK64)) ^ (n >> s2)) & MASK64


def insn_hash_capint(n: Capability, mode: SealMode) -> Capability:
    """The same hash routed through capability-typed-integer arithmetic.

    Every step modifies the address of a temporary derived from `n`, so
    a sealed input hits the seal-semantics mode at the first shift.
    """
    s1, s2 = _HASH_SHIFTS
    a = capint_binop(n, s1, "shr", mode)
    b = capint_binop(n, s2, "shl", mode)
    c = capint_binop(a, b, "or", mode)
    d = capint_binop(n, s2, "shr", mode)
    return capint_binop(c, d, "xor", mode)


class MiniVm:
    """One simulator instance: tagged memory, heap allocator, one heap
    page of 32-byte object slots, a downward-growing stack, and a fake
    code region for sealed return addresses and dispatch routines.

    The heap page is the first `HEAP_PAGE_BYTES` of the heap; the
    allocator's arena is the rest of the heap, so its first allocation
    lands at `HEAP_BASE + HEAP_PAGE_BYTES`, and memory ends where the
    heap ends.  Each instance owns only its mutable state: the tagged
    memory, the allocator and the mark bitmap.  The code, stack,
    heap-page and arena roots are class attributes built once; a
    Capability is an immutable value, so every instance shares them.
    `rng` is seeded from `seed` on the first draw, so an instance that
    never draws builds no random generator.  A `seal_mode` not in
    `SEAL_MODES`, or a seed not a non-negative int, raises `ValueError`."""

    code_cap = make_root(CODE_BASE, CODE_SIZE, Perm.LOAD | Perm.EXECUTE)
    stack_cap = make_root(STACK_BASE, STACK_SIZE, Perm.LOAD | Perm.STORE)
    heap_page = make_root(HEAP_BASE, HEAP_PAGE_BYTES, Perm.LOAD | Perm.STORE)
    arena_cap = make_root(HEAP_BASE + HEAP_PAGE_BYTES, HEAP_SIZE - HEAP_PAGE_BYTES,
                          Perm.LOAD | Perm.STORE)

    def __init__(self, seal_mode: SealMode = SealMode.FAULT_ON_MODIFY, seed: int = 0):
        # random.Random(-n) draws the stream of n, so a seed must be non-negative
        self.seed = check_int(seed, "seed", 0)
        if seal_mode not in SEAL_MODES:
            raise not_one_of("seal mode", SEAL_MODES, seal_mode)
        self.seal_mode = seal_mode
        self.mem = TaggedMemory(MEM_SIZE)
        self.alloc = CapAllocator(self.mem, self.arena_cap)
        self.bitmap = MarkBitmap(HEAP_PAGE_BYTES // OBJECT_SLOT, WordModel.EXACT64)

    _rng = None

    @property
    def rng(self) -> random.Random:
        """This instance's random stream: `random.Random(seed)`, built on
        first use."""
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng

    def binop(self, lhs, rhs, op: str) -> Capability:
        return capint_binop(lhs, rhs, op, self.seal_mode)

    # -- value constructors -------------------------------------------

    def object_ref(self, index: int) -> Capability:
        """Reference to heap object `index`, with page-wide bounds."""
        return set_address(self.heap_page, self.object_addr(index), self.seal_mode)

    def object_addr(self, index: int) -> int:
        """Address of heap object `index`, an int (`check_int`)."""
        if type(index) is not int:
            check_int(index, "object index")
        return self.heap_page.base + index * OBJECT_SLOT

    def return_address(self, addr: int) -> Capability:
        """A synthesized sealed-entry return address into the code region."""
        return seal_entry(set_address(self.code_cap, addr, self.seal_mode))

    # -- stack ---------------------------------------------------------

    stack_bottom = STACK_BASE + STACK_SIZE

    def lay_out_stack(self, entries) -> int:
        """Place `entries` in consecutive slots from the stack top.

        Entries: ("ref", obj_index) tagged heap reference;
                 ("int", value) pointer-like integer stored as raw bytes;
                 ("ret", code_addr) sealed-entry return address;
                 ("imm", value) immediate (odd low bits) as raw bytes.
        Each store names its slot's address and is checked there against
        the stack capability; only the references and return addresses
        stored are derived.  Returns the stack-top address.  An "int" or
        "imm" value that is not an int, or is a `bool`, raises `ValueError`
        (`check_int`), as do an unknown kind, `entries` that are not a list
        or tuple and an entry that is not a (kind, value) tuple.
        """
        if not isinstance(entries, (list, tuple)):
            raise not_a("stack entries", (list, tuple), entries)
        top = self.stack_bottom - len(entries) * STACK_SLOT
        for addr, entry in zip(range(top, self.stack_bottom, STACK_SLOT), entries):
            if type(entry) is not tuple or len(entry) != 2:
                raise ValueError(f"a stack entry is a (kind, value) tuple, not {entry!r}")
            kind, arg = entry
            if kind == "ref":
                self.mem.store_cap(self.stack_cap, addr, self.object_ref(arg))
            elif kind == "ret":
                self.mem.store_cap(self.stack_cap, addr, self.return_address(arg))
            elif kind in ("int", "imm"):
                if type(arg) is not int:
                    check_int(arg, "stack integer")
                self.mem.store_bytes(self.stack_cap, addr, struct.pack("<Q", arg & MASK64))
            else:
                raise not_one_of("stack entry kind", ("ref", "int", "ret", "imm"), kind)
        return top

    def stack_values(self, top: int,
                     through: Capability | None = None) -> Iterator[Capability]:
        """Yield the value in each stack slot from `top` up to the stack
        bottom.  The scan pointer, moved to `top` from `through` (by default
        the stack capability, whose bounds cover the whole stack), is the one
        capability derived; each load names its slot's address and is
        checked there.  It is a generator: the call checks nothing, and each
        input error is raised at the first `next()`.  A `through` that is
        neither `None` nor a `Capability`, or a `top` that fails `check_int`,
        raises `ValueError`; a sealed `through` follows the seal mode."""
        scan = set_address(self.stack_cap if through is None else through, top, self.seal_mode)
        for addr in range(scan.address, self.stack_bottom, STACK_SLOT):
            yield self.mem.load_cap(scan, addr)

    # -- runtime routines ----------------------------------------------

    def vm_immediate_p(self, v: Capability, variant: str, opt_level: str = "O0") -> bool:
        """Immediate-tag test on the low three address bits.

        The buggy variant at O0 performs the mask through capability
        arithmetic, creating a temporary capability; on a sealed input
        this follows the seal-semantics mode.  At O1 (and in the fixed
        variant) the address is extracted first and no temporary
        capability exists.  An unknown variant or opt level, or a `v` that
        is not a `Capability`, raises `ValueError`.
        """
        if variant not in MODES:
            raise not_one_of("variant", MODES, variant)
        if opt_level not in OPT_LEVELS:
            raise not_one_of("opt level", OPT_LEVELS, opt_level)
        if type(v) is not Capability and not isinstance(v, Capability):
            raise not_a("immediate-test operand", Capability, v)
        if variant == "buggy" and opt_level == "O0":
            tmp = self.binop(v, IMMEDIATE_MASK, "and")
            return tmp.address != 0
        return (v.address & IMMEDIATE_MASK) != 0

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
        dead objects reachable only through integers.  An unknown variant,
        or a `v` that is not a `Capability`, raises `ValueError`.
        """
        if variant not in MODES:
            raise not_one_of("variant", MODES, variant)
        if type(v) is not Capability and not isinstance(v, Capability):
            raise not_a("gc_mark operand", Capability, v)
        if v.address & IMMEDIATE_MASK:
            return False  # an immediate, as vm_immediate_p(v, "fixed") says
        if variant == "fixed" and (not v.tag or v.sealed):
            return False
        if not self.looks_like_object(v.address):
            return False
        # dereference the object header through v itself
        self.mem.load_bytes(v, v.address, 8)
        self.bitmap.set((v.address - self.heap_page.base) // OBJECT_SLOT)
        return True
