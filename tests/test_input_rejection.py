"""Malformed input to each layer raises its defined error, never a stray one."""
import pytest

from capsim.allocator import AllocError, CapAllocator
from capsim.capability import (
    CapFault, FaultKind, Perm, WordModel, capint_binop, make_root,
)
from capsim.harness import RunSpec
from capsim.memory import PAGE, PageProtRequest, TaggedMemory
from capsim.vm import MiniVm, count_utf8_lead_bytes


def _root():
    return make_root(0, PAGE, Perm.LOAD | Perm.STORE)


REJECTIONS = {
    "malloc-0": (AllocError, lambda: CapAllocator(TaggedMemory(PAGE), _root()).malloc(0)),
    "root-negative-base": (ValueError, lambda: make_root(-16, 16, Perm.LOAD)),
    "root-base-past-2**64": (ValueError, lambda: make_root(2**64, 0, Perm.LOAD)),
    "binop-mul": (ValueError, lambda: capint_binop(_root(), 2, "mul")),
    "runspec-mode": (ValueError, lambda: RunSpec(mode="bogus")),
    "runspec-seal-semantics": (ValueError, lambda: RunSpec(seal_semantics="bogus")),
    "runspec-opt-level": (ValueError, lambda: RunSpec(opt_level="O3")),
    "memory-empty": (ValueError, lambda: TaggedMemory(0)),
    "memory-partial-page": (ValueError, lambda: TaggedMemory(1000)),
    "load-cap-unaligned": (CapFault, lambda: TaggedMemory(PAGE).load_cap(_root(), 8)),
    "mprotect-unaligned": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(16, PAGE, Perm.LOAD))),
    "mprotect-past-end": (ValueError, lambda: TaggedMemory(PAGE).mprotect(
        PageProtRequest(0, 2 * PAGE, Perm.LOAD))),
    "utf8-partial-word": (ValueError, lambda: count_utf8_lead_bytes(b"abc", WordModel.EXACT64)),
    "stack-entry-kind": (ValueError, lambda: MiniVm().lay_out_stack([("bogus", 0)])),
}


@pytest.mark.parametrize("error, call", REJECTIONS.values(), ids=REJECTIONS)
def test_malformed_input_raises_its_defined_error(error, call):
    with pytest.raises(error) as exc:
        call()
    if error is CapFault:
        assert exc.value.kind is FaultKind.ALIGNMENT


@pytest.mark.parametrize("variant", ["buggy", "fixed"])
def test_gc_mark_skips_a_capability_outside_the_heap_page(variant):
    vm = MiniVm()
    assert vm.gc_mark(vm.stack_cap, variant) is False
    assert vm.marked_objects() == set()
