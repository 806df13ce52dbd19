"""Malformed input to each layer raises its defined error, never a stray one."""
import pytest

from capsim.allocator import AllocError, CapAllocator
from capsim.capability import (
    CapFault, FaultKind, Perm, WordModel, capint_binop, capint_to_int64, check_access,
    int64_to_capint, make_root, restrict_perms, seal_entry, set_address, set_bounds,
)
from capsim.harness import RunSpec
from capsim.memory import PAGE, PageProtRequest, TaggedMemory
from capsim.scenarios import ScenarioConfig, run_scenario
from capsim.vm import (
    STACK_BASE, MarkBitmap, MiniVm, count_utf8_lead_bytes, insn_hash_capint, insn_hash_int,
)
from helpers import untagged


def _root():
    return make_root(0, PAGE, Perm.LOAD | Perm.STORE)


def _sealed():
    return seal_entry(make_root(0x1000, 0x100, Perm.LOAD | Perm.EXECUTE))


def _binop_on_a_return_address(vm):
    return vm.binop(vm.return_address(0x1100), 1, "add")


REJECTIONS = {
    "malloc-0": (AllocError, lambda: CapAllocator(TaggedMemory(PAGE), _root()).malloc(0)),
    # an allocator is built on an arena it can carve whole, aligned blocks from
    "allocator-untagged-arena": (ValueError, lambda: CapAllocator(
        TaggedMemory(PAGE), untagged(_root()))),
    "allocator-sealed-arena": (ValueError, lambda: CapAllocator(
        TaggedMemory(PAGE), seal_entry(make_root(0, PAGE, Perm.LOAD | Perm.EXECUTE)))),
    "allocator-empty-arena": (ValueError, lambda: CapAllocator(
        TaggedMemory(PAGE), make_root(0x100, 0, Perm.LOAD | Perm.STORE))),
    "allocator-unaligned-arena-base": (ValueError, lambda: CapAllocator(
        TaggedMemory(PAGE), make_root(8, 256, Perm.LOAD | Perm.STORE))),
    "allocator-unaligned-arena-top": (ValueError, lambda: CapAllocator(
        TaggedMemory(PAGE), make_root(0, 250, Perm.LOAD | Perm.STORE))),
    "allocator-arena-past-memory": (ValueError, lambda: CapAllocator(
        TaggedMemory(PAGE), make_root(0, 2 * PAGE, Perm.LOAD | Perm.STORE))),
    "root-negative-base": (ValueError, lambda: make_root(-16, 16, Perm.LOAD)),
    "root-base-past-2**64": (ValueError, lambda: make_root(2**64, 0, Perm.LOAD)),
    "root-float-base": (ValueError, lambda: make_root(0.5, 16, Perm.LOAD)),
    "root-bool-base": (ValueError, lambda: make_root(True, 16, Perm.LOAD)),
    "bitmap-bool-index": (ValueError, lambda: MarkBitmap(128, WordModel.EXACT64).set(True)),
    "binop-mul": (ValueError, lambda: capint_binop(_root(), 2, "mul")),
    "binop-no-capability": (ValueError, lambda: capint_binop(1, 2, "add")),
    "runspec-mode": (ValueError, lambda: RunSpec(mode="bogus")),
    "runspec-seal-semantics": (ValueError, lambda: RunSpec(seal_semantics="bogus")),
    "runspec-opt-level": (ValueError, lambda: RunSpec(opt_level="O3")),
    "memory-empty": (ValueError, lambda: TaggedMemory(0)),
    "memory-partial-page": (ValueError, lambda: TaggedMemory(1000)),
    "memory-float-size": (ValueError, lambda: TaggedMemory(4096.0)),
    "load-cap-unaligned": (CapFault, lambda: TaggedMemory(PAGE).load_cap(_root(), 8)),
    # a fault is built from a check that `FAULTS` knows, never from a kind or free text
    "fault-unknown-check": (ValueError, lambda: CapFault("no-such-check")),
    "fault-kind-as-check": (ValueError, lambda: CapFault(FaultKind.TAG)),
    # a byte store writes bytes, never a list of them
    "store-bytes-list-payload": (ValueError, lambda: TaggedMemory(PAGE).store_bytes(
        _root(), 0, [1, 2])),
    "mprotect-unaligned": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(16, PAGE, Perm.LOAD))),
    "mprotect-past-end": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(0, 2 * PAGE, Perm.LOAD))),
    "mprotect-float-start": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(0.0, PAGE, Perm.LOAD))),
    # prot_cap is True or False itself, never a value read for its truth
    "mprotect-str-prot-cap": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(0, PAGE, Perm.LOAD, "no"))),
    "mprotect-int-prot-cap": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(0, PAGE, Perm.LOAD, 1))),
    "mprotect-none-prot-cap": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(0, PAGE, Perm.LOAD, None))),
    "utf8-partial-word": (ValueError, lambda: count_utf8_lead_bytes(b"abc", WordModel.EXACT64)),
    "bitmap-negative-size": (ValueError, lambda: MarkBitmap(-64, WordModel.EXACT64)),
    "stack-entry-kind": (ValueError, lambda: MiniVm().lay_out_stack([("bogus", 0)])),
    # a stack entry is a (kind, value) pair
    "stack-entry-not-a-pair": (ValueError, lambda: MiniVm().lay_out_stack([1])),
    "gc-mark-variant": (ValueError, lambda: MiniVm().gc_mark(
        int64_to_capint(MiniVm().object_addr(1)), "Fixed")),
    "immediate-variant": (ValueError, lambda: MiniVm().vm_immediate_p(
        MiniVm().return_address(0x1100), "bugy", "O0")),
    "immediate-opt-level": (ValueError, lambda: MiniVm().vm_immediate_p(
        MiniVm().return_address(0x1100), "buggy", "O2")),
    # a sealed capability meets a seal mode that is not a SealMode
    "sealed-set_address-mode": (ValueError, lambda: set_address(_sealed(), 0x1010, "fault")),
    "sealed-set_bounds-mode": (ValueError, lambda: set_bounds(_sealed(), 0x1000, 16, None)),
    "sealed-binop-mode": (ValueError, lambda: capint_binop(_sealed(), 1, "add", 42)),
    "sealed-vm-binop-mode": (ValueError, lambda: _binop_on_a_return_address(
        MiniVm(seal_mode="fault"))),
}


@pytest.mark.parametrize("error, call", REJECTIONS.values(), ids=REJECTIONS)
def test_malformed_input_raises_its_defined_error(error, call):
    with pytest.raises(error) as exc:
        call()
    if error is CapFault:
        assert exc.value.kind is FaultKind.ALIGNMENT


@pytest.mark.parametrize("ids", ["S1", "", ["S1"], 5, None], ids=repr)
def test_run_spec_takes_its_scenario_ids_as_a_tuple(ids):
    with pytest.raises(ValueError, match="^scenario ids must be a tuple, not "):
        RunSpec(scenarios=ids)


@pytest.mark.parametrize("variant", ["buggy", "fixed"])
def test_gc_mark_skips_a_capability_outside_the_heap_page(variant):
    vm = MiniVm()
    assert vm.gc_mark(vm.stack_cap, variant) is False
    assert vm.bitmap.bits() == set()


# Every numeric entry point guarded by `check_int` meets the same hostile
# values: one that is not an int raises `ValueError`, and an int is either
# accepted or raises a defined error.
NOT_INTS = [True, 16.0, 2.5, "16", b"\x10", None]
HOSTILE_INTS = [-1, 2**64, 2**70]


def _realloc(n):
    alloc = CapAllocator(TaggedMemory(PAGE), _root())
    return alloc.realloc(alloc.malloc(32), n)


NUMERIC_ENTRY_POINTS = {
    "make_root-base": lambda v: make_root(v, 16, Perm.LOAD),
    "make_root-length": lambda v: make_root(0, v, Perm.LOAD),
    "capint_binop-lhs": lambda v: capint_binop(v, _root(), "add"),
    "capint_binop-rhs": lambda v: capint_binop(_root(), v, "shl"),
    "set_bounds-base": lambda v: set_bounds(_root(), v, 16),
    "set_bounds-length": lambda v: set_bounds(_root(), 16, v),
    "set_address": lambda v: set_address(_root(), v),
    "malloc": lambda v: CapAllocator(TaggedMemory(PAGE), _root()).malloc(v),
    "realloc": _realloc,
    "memory-size": TaggedMemory,
    "mprotect-start": lambda v: TaggedMemory(PAGE).mprotect(PageProtRequest(v, PAGE, Perm.LOAD)),
    "mprotect-length": lambda v: TaggedMemory(PAGE).mprotect(PageProtRequest(0, v, Perm.LOAD)),
    "store_cap-address": lambda v: TaggedMemory(PAGE).store_cap(_root(), v, _root()),
    "load_cap-address": lambda v: TaggedMemory(PAGE).load_cap(_root(), v),
    "store_bytes-address": lambda v: TaggedMemory(PAGE).store_bytes(_root(), v, b"ab"),
    "load_bytes-address": lambda v: TaggedMemory(PAGE).load_bytes(_root(), v, 4),
    "load_bytes-size": lambda v: TaggedMemory(PAGE).load_bytes(_root(), 16, v),
    # a direct check meets the same rule as the accessors, which leave it to check_access
    "check_access-size": lambda v: check_access(_root(), Perm.LOAD, v, 16),
    "check_access-address": lambda v: check_access(_root(), Perm.LOAD, 4, v),
    "granule_tag-address": lambda v: TaggedMemory(PAGE).granule_tag(v),
    "clear_granule_tag-address": lambda v: TaggedMemory(PAGE).clear_granule_tag(v),
    "bitmap-set": lambda v: MarkBitmap(128, WordModel.EXACT64).set(v),
    "bitmap-test": lambda v: MarkBitmap(128, WordModel.PADDED_CAP).test(v),
    "bitmap-size": lambda v: MarkBitmap(v, WordModel.EXACT64),
    "int64_to_capint": int64_to_capint,
    "object_addr": lambda v: MiniVm().object_addr(v),
    "insn_hash_int": insn_hash_int,
    "stack-int": lambda v: MiniVm().lay_out_stack([("int", v)]),
    # a code or stack address, or an object index, enters the VM here now
    # that no scenario takes an input of its own
    "stack-ref": lambda v: MiniVm().lay_out_stack([("ref", v)]),
    "stack-ret": lambda v: MiniVm().lay_out_stack([("ret", v)]),
    "return_address": lambda v: MiniVm().return_address(v),
    "stack_values-top": lambda v: list(MiniVm().stack_values(v)),
    "seed-ScenarioConfig": lambda v: ScenarioConfig(seed=v),
    "seed-RunSpec": lambda v: RunSpec(seed=v),
    "seed-MiniVm": lambda v: MiniVm(seed=v),
}


EVERY_NUMERIC_ENTRY_POINT = pytest.mark.parametrize(
    "call", NUMERIC_ENTRY_POINTS.values(), ids=NUMERIC_ENTRY_POINTS)


@EVERY_NUMERIC_ENTRY_POINT
@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
def test_a_number_that_is_not_an_int_raises_value_error(call, value):
    with pytest.raises(ValueError, match="must be an int"):
        call(value)


@EVERY_NUMERIC_ENTRY_POINT
@pytest.mark.parametrize("value", HOSTILE_INTS, ids=repr)
def test_a_hostile_int_raises_only_a_defined_error(call, value):
    try:
        call(value)
    except (ValueError, CapFault, AllocError):
        pass


# Every input that must be one of a fixed set meets the same hostile values
# and raises the one choice error, `not_one_of`'s.  An enum-typed choice
# also meets its member's own value, which is not the member.
NOT_CHOICES = [[], {}, None, 0, b"fixed", "Fixed"]

CHOICE_ENTRY_POINTS = {
    "gc_mark-variant": (lambda v: MiniVm().gc_mark(MiniVm.stack_cap, v), ()),
    "vm_immediate_p-variant": (lambda v: MiniVm().vm_immediate_p(int64_to_capint(1), v), ()),
    "vm_immediate_p-opt-level": (
        lambda v: MiniVm().vm_immediate_p(int64_to_capint(1), "buggy", v), ()),
    "ScenarioConfig-seal-mode": (lambda v: ScenarioConfig(seal_mode=v), ("fault",)),
    "ScenarioConfig-opt-level": (lambda v: ScenarioConfig(opt_level=v), ()),
    "run_scenario-id": (lambda v: run_scenario(v, "buggy"), ()),
    "run_scenario-mode": (lambda v: run_scenario("S1", v), ()),
    "sealed-modify-seal-mode": (lambda v: set_address(_sealed(), 0x1010, v), ("fault",)),
    # a derivation tests its mode whether or not its capability is sealed
    "set_bounds-mode": (lambda v: set_bounds(_root(), 0, 16, v), ("fault",)),
    "restrict_perms-mode": (lambda v: restrict_perms(_root(), Perm.LOAD, v), ("fault",)),
    "set_address-mode": (lambda v: set_address(_root(), 16, v), ("fault",)),
    "capint_binop-mode": (lambda v: capint_binop(_root(), 1, "add", v), ("fault",)),
    "insn_hash_capint-mode": (lambda v: insn_hash_capint(_root(), v), ("fault",)),
    "capint_binop-op": (lambda v: capint_binop(_root(), 1, v), ()),
    "stack-entry-kind": (lambda v: MiniVm().lay_out_stack([(v, 0)]), ()),
    "MiniVm-seal-mode": (lambda v: MiniVm(seal_mode=v), ("fault",)),
    "MarkBitmap-model": (lambda v: MarkBitmap(128, v), (16,)),
    "count_utf8_lead_bytes-model": (lambda v: count_utf8_lead_bytes(b"x" * 16, v), (16,)),
    "RunSpec-scenario-id": (lambda v: RunSpec(scenarios=(v,)), ()),
    "RunSpec-mode": (lambda v: RunSpec(mode=v), ()),
    "RunSpec-seal-semantics": (lambda v: RunSpec(seal_semantics=v), ()),
    "RunSpec-opt-level": (lambda v: RunSpec(opt_level=v), ()),
}


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{site}-{value!r}")
    for site, (call, member_values) in CHOICE_ENTRY_POINTS.items()
    for value in NOT_CHOICES + list(member_values)
])
def test_a_value_outside_its_fixed_set_raises_the_choice_error(call, value):
    with pytest.raises(ValueError, match="must be one of"):
        call(value)


# Every operand that must be of a type meets the same hostile values, less
# any its site accepts, and raises the one type error, `not_a`'s.  The
# capability operand of every derivation is one of them.
NOT_OF_A_TYPE = [1, "x", None, (), b"", 1.5]


def _allocator():
    return CapAllocator(TaggedMemory(PAGE), _root())


TYPE_ENTRY_POINTS = {
    "make_root-perms": (lambda v: make_root(0, 16, v), ()),
    "restrict_perms-perms": (lambda v: restrict_perms(_root(), v), ()),
    "check_access-kind": (lambda v: check_access(_root(), v, 1, 0), ()),
    "store_cap-value": (lambda v: TaggedMemory(PAGE).store_cap(_root(), 0, v), ()),
    "store_bytes-payload": (lambda v: TaggedMemory(PAGE).store_bytes(_root(), 0, v), (b"",)),
    "mprotect-perms": (lambda v: TaggedMemory(PAGE).mprotect(PageProtRequest(0, PAGE, v)), ()),
    "CapAllocator-memory": (lambda v: CapAllocator(v, _root()), ()),
    "CapAllocator-arena": (lambda v: CapAllocator(TaggedMemory(PAGE), v), ()),
    "free": (lambda v: _allocator().free(v), ()),
    "realloc": (lambda v: _allocator().realloc(v, 16), ()),
    "RunSpec-scenarios": (lambda v: RunSpec(scenarios=v), ((),)),
    "run_scenario-config": (lambda v: run_scenario("S1", "buggy", v), (None,)),
    "count_utf8_lead_bytes-buffer": (
        lambda v: count_utf8_lead_bytes(v, WordModel.EXACT64), (b"",)),
    "lay_out_stack-entries": (lambda v: MiniVm().lay_out_stack(v), ((),)),
    "stack_values-through": (lambda v: next(MiniVm().stack_values(STACK_BASE, v)), (None,)),
    "vm_immediate_p": (lambda v: MiniVm().vm_immediate_p(v, "fixed"), ()),
    "gc_mark": (lambda v: MiniVm().gc_mark(v, "fixed"), ()),
    "mprotect-request": (lambda v: TaggedMemory(PAGE).mprotect(v), ()),
    # every derivation tests its capability before reading it
    "set_bounds-capability": (lambda v: set_bounds(v, 0, 16), ()),
    "restrict_perms-capability": (lambda v: restrict_perms(v, Perm.LOAD), ()),
    "set_address-capability": (lambda v: set_address(v, 0), ()),
    "seal_entry-capability": (seal_entry, ()),
    "capint_to_int64-capability": (capint_to_int64, ()),
    # an access's authority, which `check_access` tests only when a read of
    # one of its fields fails
    "check_access-authority": (lambda v: check_access(v, Perm.LOAD, 1, 0), ()),
    "load_cap-authority": (lambda v: TaggedMemory(PAGE).load_cap(v, 0), ()),
    "store_cap-authority": (lambda v: TaggedMemory(PAGE).store_cap(v, 0, _root()), ()),
    "load_bytes-authority": (lambda v: TaggedMemory(PAGE).load_bytes(v, 0, 1), ()),
    "store_bytes-authority": (lambda v: TaggedMemory(PAGE).store_bytes(v, 0, b"a"), ()),
}


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{site}-{value!r}")
    for site, (call, valid) in TYPE_ENTRY_POINTS.items()
    for value in NOT_OF_A_TYPE if value not in valid
])
def test_a_value_not_of_its_type_raises_the_type_error(call, value):
    with pytest.raises(ValueError, match=r"^[\w' -]+ must be a \w+( or \w+)*, not ") as exc:
        call(value)
    assert str(exc.value).endswith(f", not {value!r}")
