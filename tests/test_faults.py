"""Every place the model raises a `CapFault` gives it the kind and the
wording pinned here, and an access fault carries the check that failed
and that check's operands."""
import pytest

from capsim.capability import (
    CapFault,
    FaultKind,
    Perm,
    capint_binop,
    check_access,
    make_root,
    restrict_perms,
    seal_entry,
    set_address,
)
from capsim.memory import PAGE, PageProtRequest, TaggedMemory
from helpers import untagged

RW = Perm.LOAD | Perm.STORE
ROOT = make_root(0, 2 * PAGE, RW)
SEALED = seal_entry(make_root(0x1000, 0x100, Perm.LOAD | Perm.EXECUTE))
NARROW = make_root(0x100, 0x20, RW)


def _memory():
    """Two pages; the second allows loads only."""
    mem = TaggedMemory(2 * PAGE)
    mem.mprotect(PageProtRequest(PAGE, PAGE, Perm.LOAD))
    return mem


# raise site -> (call, kind, check, detail, str(fault)); the details and
# messages are the model's wording, byte for byte
RAISE_SITES = {
    "untagged": (lambda: _memory().load_bytes(untagged(ROOT), 0x40, 8), FaultKind.TAG, "tag",
                 "untagged capability @0x40", "tag fault: untagged capability @0x40"),
    "sealed": (lambda: check_access(SEALED, Perm.LOAD, 8, 0x1010), FaultKind.SEAL, "seal",
               "sealed capability @0x1010", "seal fault: sealed capability @0x1010"),
    "permission": (lambda: _memory().store_bytes(restrict_perms(ROOT, Perm.LOAD), 0x40, b"x"),
                   FaultKind.PERMISSION, "permission", "STORE not permitted",
                   "permission fault: STORE not permitted"),
    "bounds": (lambda: _memory().load_bytes(NARROW, 0x11d, 8), FaultKind.BOUNDS, "bounds",
               "[0x11d,0x125) outside [0x100,0x120)",
               "bounds fault: [0x11d,0x125) outside [0x100,0x120)"),
    "unmapped": (lambda: _memory().load_bytes(make_root(0, 4 * PAGE, RW), 2 * PAGE - 4, 8),
                 FaultKind.PERMISSION, "unmapped", "[0x1ffc,0x2004) unmapped",
                 "permission fault: [0x1ffc,0x2004) unmapped"),
    "page": (lambda: _memory().store_bytes(ROOT, PAGE - 8, bytes(16)), FaultKind.PERMISSION,
             "page", "page 0x1 denies STORE", "permission fault: page 0x1 denies STORE"),
    "store-alignment": (lambda: _memory().store_cap(ROOT, 0x48, NARROW), FaultKind.ALIGNMENT,
                        "alignment", "capability store at 0x48",
                        "alignment fault: capability store at 0x48"),
    "load-alignment": (lambda: _memory().load_cap(ROOT, 0x18), FaultKind.ALIGNMENT,
                       "alignment", "capability load at 0x18",
                       "alignment fault: capability load at 0x18"),
    "sealed-modify": (lambda: set_address(SEALED, 0x1010), FaultKind.SEAL, "sealed-modify",
                      "set_address on sealed capability",
                      "seal fault: set_address on sealed capability"),
    "sealed-modify-binop": (lambda: capint_binop(SEALED, 1, "add"), FaultKind.SEAL,
                            "sealed-modify", "binop add on sealed capability",
                            "seal fault: binop add on sealed capability"),
}

EVERY_RAISE_SITE = pytest.mark.parametrize(
    "call, kind, check, detail, message", RAISE_SITES.values(), ids=RAISE_SITES)


@EVERY_RAISE_SITE
def test_each_raise_site_words_its_fault_as_pinned(call, kind, check, detail, message):
    with pytest.raises(CapFault) as exc:
        call()
    assert exc.value.detail == detail
    assert str(exc.value) == message


@EVERY_RAISE_SITE
def test_each_raise_site_names_its_check(call, kind, check, detail, message):
    with pytest.raises(CapFault) as exc:
        call()
    assert exc.value.check == check
    assert exc.value.kind is kind


def test_a_bounds_fault_carries_its_operands():
    cap = NARROW
    with pytest.raises(CapFault) as exc:
        _memory().load_bytes(cap, cap.top - 3, 8)
    fault = exc.value
    assert fault.kind is FaultKind.BOUNDS and fault.check == "bounds"
    assert (fault.address, fault.size, fault.access) == (cap.top - 3, 8, Perm.LOAD)
    assert fault.cap is cap
    assert (fault.page, fault.op) == (None, None)


def test_a_page_fault_names_the_page_and_a_seal_fault_the_operation():
    with pytest.raises(CapFault) as page:
        _memory().store_bytes(ROOT, PAGE - 8, bytes(16))
    assert (page.value.page, page.value.address, page.value.access) == (1, PAGE - 8, Perm.STORE)
    with pytest.raises(CapFault) as seal:
        set_address(SEALED, 0x1010)
    assert (seal.value.op, seal.value.cap) == ("set_address", SEALED)
