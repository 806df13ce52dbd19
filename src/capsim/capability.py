"""Capability values and their derivation rules.

A capability is a fat pointer: a 64-bit address plus bounds, permissions,
a seal state, and a 1-bit validity tag.  Derivation is monotonic (bounds
and permissions can only shrink), sealing makes a capability immutable
and non-dereferenceable, and arithmetic on capability-typed integers
inherits metadata from the capability operand.
"""
from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, fields, replace

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# Usable value bits of a capability-typed integer; the upper storage half
# is padding (metadata), never value bits.
VALUE_WIDTH = 64


class Perm(enum.Flag):
    LOAD = enum.auto()
    STORE = enum.auto()
    EXECUTE = enum.auto()


PERM_NONE = Perm(0)
PERM_ALL = Perm.LOAD | Perm.STORE | Perm.EXECUTE


class SealState(enum.Enum):
    UNSEALED = "unsealed"
    SEALED_ENTRY = "sealed_entry"


# Aliases for the per-access paths: in CPython 3.11 reading an enum member
# as a class attribute costs several times a module-global read.
_UNSEALED = SealState.UNSEALED
_SEALED_ENTRY = SealState.SEALED_ENTRY
_PACK_WORDS = struct.Struct("<QQ").pack


class SealMode(enum.Enum):
    """What happens when the address of a sealed capability is modified.

    Older hardware semantics raise a seal fault; newer semantics clear
    the validity tag instead.  Fixed per simulator instance.
    """

    FAULT_ON_MODIFY = "fault"
    INVALIDATE_ON_MODIFY = "invalidate"


class FaultKind(enum.Enum):
    TAG = "tag"
    SEAL = "seal"
    PERMISSION = "permission"
    BOUNDS = "bounds"
    ALIGNMENT = "alignment"


class CapFault(Exception):
    """A failed memory access or illegal capability manipulation."""

    def __init__(self, kind: FaultKind, detail: str = ""):
        super().__init__(f"{kind.value} fault: {detail}" if detail else f"{kind.value} fault")
        self.kind = kind
        self.detail = detail


class WordModel(enum.Enum):
    """Storage model for a word of a capability-typed integer array.

    PADDED_CAP: 16 bytes of storage but only 64 value bits (the buggy
    assumption is that all 128 storage bits are usable).
    EXACT64: 8 bytes of storage, 64 value bits, no padding.
    """

    PADDED_CAP = 16
    EXACT64 = 8

    @property
    def storage_bytes(self) -> int:
        return self.value

    @property
    def storage_bits(self) -> int:
        return self.value * 8


@dataclass(frozen=True, slots=True, init=False)
class Capability:
    """Tagged fat value: address, bounds [base, top), perms, seal, tag.

    Instances are immutable; every operation returns a new value.  An
    untagged capability is just bits and carries no authority.  The
    constructor (see `_slot_init`) stores each field through its slot
    descriptor; everything else is the frozen dataclass's own, so
    assignment raises FrozenInstanceError.  Permission tests read the
    integer mask `perms._value_` rather than testing `Flag` membership.
    """

    tag: bool
    address: int
    base: int
    top: int  # exclusive, may be 2**64
    perms: Perm
    seal: SealState = SealState.UNSEALED

    @property
    def length(self) -> int:
        return self.top - self.base

    def untagged(self, **changes) -> "Capability":
        return replace(self, tag=False, **changes)

    def encode(self) -> bytes:
        """The 16-byte in-memory pattern: low 8 = address, high 8 = metadata.

        The metadata word is `hash()` of a tuple of ints: base and top
        split into 32-bit halves, the permission bits and the seal bit.
        CPython never salts int or tuple hashes, so the word is the same
        in every process whatever PYTHONHASHSEED is.  For bounds inside
        the address space every element is below 2**33 and hashes to
        itself, and the tuple hash is one-to-one in each element, so
        changing any one of base, top, perms or seal changes the word.
        """
        base, top = self.base, self.top
        meta = hash((base & MASK32, base >> 32, top & MASK32, top >> 32,
                     self.perms._value_, self.seal is _SEALED_ENTRY))
        return _PACK_WORDS(self.address & MASK64, meta & MASK64)


def _slot_init():
    """Capability.__init__: one slot-descriptor store per field, which
    costs about half of the six `object.__setattr__` calls a frozen
    dataclass generates."""
    store_tag, store_address, store_base, store_top, store_perms, store_seal = (
        getattr(Capability, f.name).__set__ for f in fields(Capability))

    def __init__(self, tag: bool, address: int, base: int, top: int, perms: Perm,
                 seal: SealState = SealState.UNSEALED) -> None:
        store_tag(self, tag)
        store_address(self, address)
        store_base(self, base)
        store_top(self, top)
        store_perms(self, perms)
        store_seal(self, seal)

    __init__.__qualname__ = "Capability.__init__"
    return __init__


Capability.__init__ = _slot_init()


# A capability used in integer context (pointer-sized integer) is the
# same value; the alias marks intent at call sites.
CapInt = Capability


def make_root(base: int, length: int, perms: Perm) -> Capability:
    """Construct a fresh tagged capability covering [base, base+length).

    This is the only source of authority; everything else derives from a
    root monotonically.
    """
    if base < 0 or length < 0 or base > MASK64:
        raise ValueError("base/length out of range")
    if base + length > 1 << 64:
        raise ValueError("bounds overflow the address space")
    return Capability(tag=True, address=base, base=base, top=base + length, perms=perms)


def _sealed_modify(mode: SealMode, what: str) -> bool:
    """The tag of a value derived from a tagged sealed capability: a seal
    fault under FAULT_ON_MODIFY, a cleared tag under INVALIDATE_ON_MODIFY."""
    if mode is SealMode.FAULT_ON_MODIFY:
        raise CapFault(FaultKind.SEAL, f"{what} on sealed capability")
    return False


def set_bounds(cap: Capability, new_base: int, new_length: int,
               mode: SealMode = SealMode.FAULT_ON_MODIFY) -> Capability:
    """Narrow bounds to [new_base, new_base+new_length); address = new_base.

    A non-monotonic request (bounds outside the source's, or a negative
    length) or an untagged input yields the requested capability with
    the tag cleared.  Sealed tagged input follows the seal-semantics mode.
    """
    new_top = new_base + new_length
    if cap.tag and cap.seal is not _UNSEALED:
        ok = _sealed_modify(mode, "set_bounds")
    else:
        ok = cap.tag and cap.base <= new_base <= new_top <= cap.top
    return Capability(ok, new_base, new_base, new_top, cap.perms, cap.seal)


def restrict_perms(cap: Capability, perms: Perm,
                   mode: SealMode = SealMode.FAULT_ON_MODIFY) -> Capability:
    """Drop permissions; widening (or untagged input) clears the tag."""
    if cap.tag and cap.seal is not _UNSEALED:
        ok = _sealed_modify(mode, "restrict_perms")
    else:
        ok = cap.tag and (perms & cap.perms) == perms
    return Capability(ok, cap.address, cap.base, cap.top, perms, cap.seal)


def set_address(cap: Capability, addr: int,
                mode: SealMode = SealMode.FAULT_ON_MODIFY) -> Capability:
    """Move the address.  Out-of-bounds addresses keep the tag; bounds are
    enforced only at access time."""
    addr &= MASK64
    tag = cap.tag
    if tag and cap.seal is not _UNSEALED:
        tag = _sealed_modify(mode, "set_address")
    return Capability(tag, addr, cap.base, cap.top, cap.perms, cap.seal)


def seal_entry(cap: Capability) -> Capability:
    """Seal an executable capability.  Inputs without tag or EXECUTE yield
    an untagged result; a tag is never conjured."""
    ok = cap.tag and cap.seal is _UNSEALED and Perm.EXECUTE in cap.perms
    return Capability(ok, cap.address, cap.base, cap.top, cap.perms, SealState.SEALED_ENTRY)


def check_access(cap: Capability, kind: Perm, size: int,
                 address: int | None = None) -> None:
    """Validate an access of `size` bytes at `address` (default cap.address).

    Decides exactly as if `cap` had first been moved to `address` without
    masking, e.g. by `dataclasses.replace(cap, address=address)`; the
    fault details name that address.  Check order is fixed: tag, seal,
    permission, bounds.  The permission check tests integer masks
    (`held & want == want` on the members' `_value_`), which decides as
    `kind in cap.perms` does, `Perm(0)` included, without the enum's
    Python-level `__contains__`.  Raises CapFault on the first failing
    check, or ValueError when `size` is below 1.
    """
    if address is None:
        address = cap.address
    if size < 1:
        raise ValueError("access size must be >= 1")
    if not cap.tag:
        raise CapFault(FaultKind.TAG, f"untagged capability @{address:#x}")
    if cap.seal is not _UNSEALED:
        raise CapFault(FaultKind.SEAL, f"sealed capability @{address:#x}")
    want = kind._value_
    if cap.perms._value_ & want != want:
        raise CapFault(FaultKind.PERMISSION, f"{kind.name} not permitted")
    if not (cap.base <= address and address + size <= cap.top):
        raise CapFault(
            FaultKind.BOUNDS,
            f"[{address:#x},{address + size:#x}) outside [{cap.base:#x},{cap.top:#x})",
        )


_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << b if b < VALUE_WIDTH else 0,
    "shr": lambda a, b: a >> b if b < VALUE_WIDTH else 0,
}


def _operand_value(v) -> int:
    return v.address if isinstance(v, Capability) else int(v) & MASK64


def capint_binop(lhs, rhs, op: str,
                 mode: SealMode = SealMode.FAULT_ON_MODIFY,
                 advisories: list | None = None) -> CapInt:
    """Binary operation on capability-typed integers.

    At least one operand must be a capability; the result inherits that
    operand's metadata (the left one when both are capabilities, which
    also records an "ambiguous-provenance" advisory).  Producing the
    result modifies the address of the inherited capability, so a sealed
    source follows the seal-semantics mode.

    Shifts by 64 or more yield the deterministic sentinel value 0.
    """
    lcap = isinstance(lhs, Capability)
    rcap = isinstance(rhs, Capability)
    if not (lcap or rcap):
        raise TypeError("at least one operand must be a capability-typed integer")
    source = lhs if lcap else rhs
    if lcap and rcap and advisories is not None:
        advisories.append("ambiguous-provenance")

    if op not in _BINOPS:
        raise ValueError(f"unknown operation {op!r}")
    value = _BINOPS[op](_operand_value(lhs), _operand_value(rhs)) & MASK64

    tag = source.tag
    if tag and source.seal is not _UNSEALED:
        tag = _sealed_modify(mode, f"binop {op}")
    return Capability(tag, value, source.base, source.top, source.perms, source.seal)


def capint_to_int64(v: CapInt) -> int:
    """Extract the 64-bit address.  Works on sealed and untagged inputs
    and never creates or modifies a capability."""
    return v.address & MASK64


def int64_to_capint(n: int) -> CapInt:
    """An integer becomes an untagged capability: empty bounds, no perms.
    Any later dereference raises a tag fault."""
    return Capability(tag=False, address=n & MASK64, base=0, top=0, perms=PERM_NONE)
