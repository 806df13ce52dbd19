"""Capability values and their derivation rules.

A capability is a fat pointer: a 64-bit address plus bounds, permissions,
a sealed bit, and a 1-bit validity tag.  Derivation is monotonic (bounds
and permissions can only shrink), sealing makes a capability immutable
and non-dereferenceable, and arithmetic on capability-typed integers
inherits metadata from the capability operand.  Three input rules, here
and in the layers above, raise `ValueError`: `check_int` for a number (an
int, not a `bool`, in the caller's range), `not_one_of` for a value
outside a fixed set (a tuple, tested with `in`) and `not_a` for a value
not of its type, such as a derivation's capability operand.  A `CapFault`
is raised, here and in `memory`, with the check that failed and its
operands; `FAULTS` gives its kind and wording.
"""
from __future__ import annotations

import enum
import operator
import struct
from dataclasses import MISSING, dataclass, fields

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

_EXECUTE = Perm.EXECUTE._value_  # its mask, tested as `held & want == want`
_PACK_WORDS_INTO = struct.Struct("<QQ").pack_into


class SealMode(enum.Enum):
    """What happens when the address of a sealed capability is modified.

    Older hardware semantics raise a seal fault; newer semantics clear
    the validity tag instead.  Fixed per simulator instance.  A
    derivation that takes a mode raises `not_one_of`'s ValueError for one
    not in `SEAL_MODES`, whether or not its capability is sealed.
    """

    FAULT_ON_MODIFY = "fault"
    INVALIDATE_ON_MODIFY = "invalidate"


class FaultKind(enum.Enum):
    TAG = "tag"
    SEAL = "seal"
    PERMISSION = "permission"
    BOUNDS = "bounds"
    ALIGNMENT = "alignment"


# check -> (fault kind, wording of its detail): the one place a check is
# paired with a kind and worded.  A wording is formatted from the fault's
# operands (see `CapFault`) plus `end`, the address one past the access.
FAULTS = {
    "tag": (FaultKind.TAG, "untagged capability @{address:#x}"),
    "seal": (FaultKind.SEAL, "sealed capability @{address:#x}"),
    "permission": (FaultKind.PERMISSION, "{access.name} not permitted"),
    "bounds": (FaultKind.BOUNDS, "[{address:#x},{end:#x}) outside [{cap.base:#x},{cap.top:#x})"),
    "unmapped": (FaultKind.PERMISSION, "[{address:#x},{end:#x}) unmapped"),
    "page": (FaultKind.PERMISSION, "page {page:#x} denies {access.name}"),
    "alignment": (FaultKind.ALIGNMENT, "capability {op} at {address:#x}"),
    "sealed-modify": (FaultKind.SEAL, "{op} on sealed capability"),
}


class CapFault(Exception):
    """A failed memory access or illegal capability manipulation.

    The model raises it with its facts: the `check` that failed (a key of
    `FAULTS`, which gives the fault `kind`) and that check's operands,
    each `None` where the check has none: the capability `cap`, the
    access kind `access` (a `Perm`), the access `size` and `address`, the
    denying `page` index and the operation `op`.  `detail` and
    `str(fault)` are worded from `FAULTS` when they are read, not when the
    fault is raised.  A `check` that is not a key of `FAULTS` raises
    `ValueError`.
    """

    def __init__(self, check: str, *, cap: Capability | None = None,
                 access: Perm | None = None, size: int | None = None,
                 address: int | None = None, page: int | None = None,
                 op: str | None = None):
        entry = FAULTS.get(check) if isinstance(check, str) else None
        if entry is None:
            raise not_one_of("fault check", tuple(FAULTS), check)
        self.kind = entry[0]
        self.check = check
        self.cap = cap
        self.access = access
        self.size = size
        self.address = address
        self.page = page
        self.op = op

    @property
    def detail(self) -> str:
        end = None if self.address is None or self.size is None else self.address + self.size
        return FAULTS[self.check][1].format_map({**vars(self), "end": end})

    def __str__(self) -> str:
        return f"{self.kind._value_} fault: {self.detail}"


class WordModel(enum.Enum):
    """Storage model for a word of a capability-typed integer array.

    PADDED_CAP: 16 bytes of storage but only 64 value bits (the buggy
    assumption is that all 128 storage bits are usable).
    EXACT64: 8 bytes of storage, 64 value bits, no padding.

    A member's value is its storage size in bytes. `storage_bytes` and
    `storage_bits` are set on each member once, so the per-bit paths read
    a plain attribute instead of going through the enum's `value`
    descriptor.
    """

    PADDED_CAP = 16
    EXACT64 = 8

    def __init__(self, storage_bytes: int) -> None:
        self.storage_bytes = storage_bytes
        self.storage_bits = storage_bytes * 8


# `"fault" in SealMode` depends on the Python version; `in` on a tuple does not
SEAL_MODES = tuple(SealMode)
WORD_MODELS = tuple(WordModel)


def _slot_init(cls):
    """Class decorator for a frozen, slotted dataclass: its `__init__`
    stores each field through the field's slot descriptor, which costs
    about half of the `object.__setattr__` call per field that a frozen
    dataclass generates.  The parameters and their plain defaults are the
    dataclass's own; everything else stays the dataclass's."""
    names = [f.name for f in fields(cls)]
    scope = {f"store_{name}": getattr(cls, name).__set__ for name in names}
    exec(f"def __init__(self, {', '.join(names)}):"
         + "".join(f"\n    store_{name}(self, {name})" for name in names), scope)
    init = scope["__init__"]
    init.__defaults__ = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class Capability:
    """Tagged fat value: address, bounds [base, top), perms, sealed, tag.

    Instances are immutable; every operation returns a new value.  An
    untagged capability is just bits and carries no authority.  The
    constructor (see `_slot_init`) stores each field through its slot
    descriptor; everything else is the frozen dataclass's own, so
    assignment raises FrozenInstanceError.  Permission tests read the
    integer mask `perms._value_` rather than testing `Flag` membership.
    `sealed` marks the model's one seal, a sealed entry ("sentry").
    """

    tag: bool
    address: int
    base: int
    top: int  # exclusive, may be 2**64
    perms: Perm
    sealed: bool = False

    @property
    def length(self) -> int:
        return self.top - self.base

    def encode(self, buffer, offset: int) -> None:
        """Pack the 16-byte in-memory pattern into `buffer` at `offset`:
        low 8 = address, high 8 = metadata.

        The metadata word is `hash()` of a tuple of ints: base and top
        split into 32-bit halves, the permission bits and the sealed bit.
        CPython never salts int or tuple hashes, so the word is the same
        in every process whatever PYTHONHASHSEED is.  For bounds inside
        the address space every element is below 2**33 and hashes to
        itself, and the tuple hash is one-to-one in each element, so
        changing any one of base, top, perms or sealed changes the word.
        """
        base, top = self.base, self.top
        meta = hash((base & MASK32, base >> 32, top & MASK32, top >> 32,
                     self.perms._value_, self.sealed))
        _PACK_WORDS_INTO(buffer, offset, self.address & MASK64, meta & MASK64)


def check_int(value, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """The one rule for a number entering the model: return `value` if it
    is an int, not a `bool`, in [lo, hi) (a `None` bound is open), and
    raise `ValueError` naming `what` otherwise.  Nothing is coerced.  An
    exact `int` skips the two `isinstance` tests."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"{what} must be an int, not {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        span = "non-negative" if (lo, hi) == (0, None) else f"in [{lo}, {hi})"
        raise ValueError(f"{what} must be {span}, not {value!r}")
    return value


_BYTES_LIKE = (bytes, bytearray, memoryview)


def check_bytes(value, what: str) -> bytes:
    """The one rule for a byte payload entering the model: return the bytes
    of `value` if it is `bytes`, a `bytearray` or a `memoryview` (copied,
    because a memoryview's len counts items, not bytes), and raise
    `ValueError` naming `what` otherwise.  A caller first tests
    `type(value) is not bytes`, so an exact `bytes` makes no call."""
    if not isinstance(value, _BYTES_LIKE):
        raise not_a(what, _BYTES_LIKE, value)
    return bytes(value)


def not_one_of(what: str, choices: tuple, value) -> ValueError:
    """The error its caller raises when `value not in choices` holds."""
    return ValueError(f"{what} must be one of {choices}, not {value!r}")


def not_a(what: str, types, value) -> ValueError:
    """The error its caller raises when `isinstance(value, types)` fails."""
    names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
    return ValueError(f"{what} must be a {names}, not {value!r}")


def make_root(base: int, length: int, perms: Perm) -> Capability:
    """Construct a fresh tagged capability covering [base, base+length).

    This is the only source of authority; everything else derives from a
    root monotonically.  `base` must be an int in [0, 2**64), `length` a
    non-negative int (`check_int`) and `perms` a `Perm`, else `ValueError`.
    """
    check_int(base, "root base", 0, 1 << 64)
    check_int(length, "root length", 0)
    if not isinstance(perms, Perm):
        raise not_a("root perms", Perm, perms)
    if base + length > 1 << 64:
        raise ValueError("bounds overflow the address space")
    return Capability(True, base, base, base + length, perms)


def _sealed_modify(cap: Capability, mode: SealMode, op: str) -> bool:
    """The tag of a value that `op` derives from the tagged sealed `cap`: a
    seal fault under FAULT_ON_MODIFY, a cleared tag under
    INVALIDATE_ON_MODIFY.  Its caller has tested `mode`."""
    if mode is SealMode.INVALIDATE_ON_MODIFY:
        return False
    raise CapFault("sealed-modify", cap=cap, op=op)


def set_bounds(cap: Capability, new_base: int, new_length: int,
               mode: SealMode = SealMode.FAULT_ON_MODIFY) -> Capability:
    """Narrow bounds to [new_base, new_base+new_length); address = new_base.

    A non-monotonic request (bounds outside the source's, or a negative
    length) or an untagged input yields the requested capability with
    the tag cleared.  Sealed tagged input follows the seal-semantics mode.
    A base or length that is not an int, or is a `bool`, raises
    `ValueError` (`check_int`); any int is a request.
    """
    check_int(new_base, "bounds base")
    check_int(new_length, "bounds length")
    if type(cap) is not Capability and not isinstance(cap, Capability):
        raise not_a("capability", Capability, cap)
    if mode not in SEAL_MODES:
        raise not_one_of("seal mode", SEAL_MODES, mode)
    new_top = new_base + new_length
    if cap.tag and cap.sealed:
        ok = _sealed_modify(cap, mode, "set_bounds")
    else:
        ok = cap.tag and cap.base <= new_base <= new_top <= cap.top
    return Capability(ok, new_base, new_base, new_top, cap.perms, cap.sealed)


def restrict_perms(cap: Capability, perms: Perm,
                   mode: SealMode = SealMode.FAULT_ON_MODIFY) -> Capability:
    """Drop permissions; widening (or untagged input) clears the tag.
    Perms that are not a `Perm` raise `ValueError`."""
    if not isinstance(perms, Perm):
        raise not_a("perms", Perm, perms)
    if type(cap) is not Capability and not isinstance(cap, Capability):
        raise not_a("capability", Capability, cap)
    if mode not in SEAL_MODES:
        raise not_one_of("seal mode", SEAL_MODES, mode)
    if cap.tag and cap.sealed:
        ok = _sealed_modify(cap, mode, "restrict_perms")
    else:
        want = perms._value_
        ok = cap.tag and cap.perms._value_ & want == want
    return Capability(ok, cap.address, cap.base, cap.top, perms, cap.sealed)


def set_address(cap: Capability, addr: int,
                mode: SealMode = SealMode.FAULT_ON_MODIFY) -> Capability:
    """Move the address, taken modulo 2**64.  Out-of-bounds addresses keep
    the tag; bounds are enforced only at access time.  An address that is
    not an int, or is a `bool`, raises `ValueError` (`check_int`)."""
    addr = check_int(addr, "address") & MASK64
    if type(cap) is not Capability and not isinstance(cap, Capability):
        raise not_a("capability", Capability, cap)
    if mode not in SEAL_MODES:
        raise not_one_of("seal mode", SEAL_MODES, mode)
    tag = cap.tag
    if tag and cap.sealed:
        tag = _sealed_modify(cap, mode, "set_address")
    return Capability(tag, addr, cap.base, cap.top, cap.perms, cap.sealed)


def seal_entry(cap: Capability) -> Capability:
    """Seal an executable capability.  Inputs without tag or EXECUTE yield
    an untagged result; a tag is never conjured."""
    if type(cap) is not Capability and not isinstance(cap, Capability):
        raise not_a("capability", Capability, cap)
    ok = cap.tag and not cap.sealed and cap.perms._value_ & _EXECUTE == _EXECUTE
    return Capability(ok, cap.address, cap.base, cap.top, cap.perms, True)


def check_access(cap: Capability, kind: Perm, size: int, address: int) -> None:
    """The one check of an access of `size` bytes at `address` by `cap`.

    Decides exactly as if `cap` had first been moved to `address` without
    masking, e.g. by `dataclasses.replace(cap, address=address)`; the
    fault details name that address.  First a `kind` that is not a `Perm`
    raises ValueError, then an `address` and then a `size` that fail
    `check_int`, then a `size` below 1.  Then the capability is checked in
    a fixed order, tag, seal, permission (`held & want == want` on integer
    masks, which decides as `kind in cap.perms` does, `Perm(0)` included),
    bounds, and the first check that fails raises a CapFault carrying
    that check and its operands.  An authority that is not a `Capability`
    raises `not_a`'s ValueError when a check reads a field it lacks, so
    an object with every capability field passes, as a forged one does.
    """
    if type(kind) is not Perm:
        raise not_a("access kind", Perm, kind)
    if type(address) is not int or type(size) is not int:
        check_int(address, "address")
        check_int(size, "access size")
    if size < 1:
        raise ValueError("access size must be >= 1")
    try:  # costs nothing on CPython 3.11+ while nothing is raised
        if not cap.tag:
            raise CapFault("tag", cap=cap, access=kind, size=size, address=address)
        if cap.sealed:
            raise CapFault("seal", cap=cap, access=kind, size=size, address=address)
        want = kind._value_
        if cap.perms._value_ & want != want:
            raise CapFault("permission", cap=cap, access=kind, size=size, address=address)
        if not (cap.base <= address and address + size <= cap.top):
            raise CapFault("bounds", cap=cap, access=kind, size=size, address=address)
    except AttributeError:
        if type(cap) is Capability:
            raise
        raise not_a("authority", Capability, cap) from None


_BINOPS = {
    "add": operator.add,
    "sub": operator.sub,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
    "shl": lambda a, b: a << b if b < VALUE_WIDTH else 0,
    "shr": lambda a, b: a >> b if b < VALUE_WIDTH else 0,
}


def capint_binop(lhs, rhs, op: str,
                 mode: SealMode = SealMode.FAULT_ON_MODIFY) -> Capability:
    """Binary operation on capability-typed integers.

    At least one operand must be a capability; the result inherits that
    operand's metadata, the left one's when both are capabilities.
    Producing the result modifies the address of the inherited capability,
    so a sealed source follows the seal-semantics mode.  A non-capability
    operand must pass `check_int` (an int, not a bool).  A call with no
    capability operand, a non-capability operand that fails `check_int`
    and an `op` that is not one of the `_BINOPS` names raise `ValueError`.

    Shifts by 64 or more yield the deterministic sentinel value 0.
    """
    lcap = isinstance(lhs, Capability)
    rcap = isinstance(rhs, Capability)
    if not (lcap or rcap):
        raise ValueError("at least one operand must be a capability-typed integer")
    source = lhs if lcap else rhs

    fn = _BINOPS.get(op) if isinstance(op, str) else None
    if fn is None:
        raise not_one_of("operation", tuple(_BINOPS), op)
    if mode not in SEAL_MODES:
        raise not_one_of("seal mode", SEAL_MODES, mode)
    a = lhs.address if lcap else int(check_int(lhs, "a non-capability operand")) & MASK64
    b = rhs.address if rcap else int(check_int(rhs, "a non-capability operand")) & MASK64
    value = fn(a, b) & MASK64

    tag = source.tag
    if tag and source.sealed:
        tag = _sealed_modify(source, mode, f"binop {op}")
    return Capability(tag, value, source.base, source.top, source.perms, source.sealed)


def capint_to_int64(v: Capability) -> int:
    """Extract the 64-bit address.  Works on sealed and untagged inputs
    and never creates or modifies a capability."""
    if type(v) is not Capability and not isinstance(v, Capability):
        raise not_a("capability", Capability, v)
    return v.address & MASK64


def int64_to_capint(n: int) -> Capability:
    """An integer becomes an untagged capability: empty bounds, no perms,
    the address `n` modulo 2**64.  Any later dereference raises a tag
    fault.  An `n` that is not an int, or is a `bool`, raises `ValueError`
    (`check_int`)."""
    if type(n) is not int:
        check_int(n, "integer")
    return Capability(False, n & MASK64, 0, 0, PERM_NONE)
