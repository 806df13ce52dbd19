import array
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from capsim.capability import (
    CapFault,
    FaultKind,
    Perm,
    make_root,
    seal_entry,
    set_address,
)
from capsim.memory import GRANULE, PAGE, PageProtRequest, TaggedMemory
from helpers import encoded, untagged

LD, ST, EX = Perm.LOAD, Perm.STORE, Perm.EXECUTE


@pytest.fixture
def mem():
    return TaggedMemory(4 * PAGE)


@pytest.fixture
def auth():
    return make_root(0, 4 * PAGE, Perm.LOAD | Perm.STORE | Perm.EXECUTE)


def test_store_load_round_trip(mem, auth):
    value = make_root(0x100, 0x40, LD | ST)
    mem.store_cap(auth, 0x1000, value)
    assert mem.load_cap(auth, 0x1000) == value


def test_unaligned_store_faults(mem, auth):
    with pytest.raises(CapFault) as exc:
        mem.store_cap(auth, 0x1008, make_root(0, 16, LD))
    assert exc.value.kind is FaultKind.ALIGNMENT


def test_untagged_store_loads_untagged(mem, auth):
    value = untagged(make_root(0x100, 0x40, LD))
    mem.store_cap(auth, 0x1000, value)
    out = mem.load_cap(auth, 0x1000)
    assert not out.tag and out.address == 0x100


def test_sealed_cap_round_trips(mem, auth):
    sealed = seal_entry(make_root(0x2000, 0x100, Perm.EXECUTE))
    mem.store_cap(auth, 0x40, sealed)
    assert mem.load_cap(auth, 0x40) == sealed


def test_byte_store_clears_tag(mem, auth):
    mem.store_cap(auth, 0x1000, make_root(0x100, 0x40, LD))
    mem.store_bytes(auth, 0x1005, b"\xff")
    assert not mem.granule_tag(0x1000)
    assert not mem.load_cap(auth, 0x1000).tag


def test_byte_load_from_stored_integer(mem, auth):
    mem.store_bytes(auth, 0x1000, struct.pack("<Q", 0xDEAD))
    out = mem.load_cap(auth, 0x1000)
    assert not out.tag and out.address == 0xDEAD


def test_never_written_granule_loads_zero(mem, auth):
    out = mem.load_cap(auth, 0x2000)
    assert not out.tag and out.address == 0


def test_bytes_round_trip(mem, auth):
    payload = bytes(range(100))
    mem.store_bytes(auth, 0x500, payload)
    assert mem.load_bytes(auth, 0x500, 100) == payload


@pytest.mark.parametrize("payload", [
    b"\x01\x02",
    bytearray(b"\x01\x02"),
    memoryview(b"\x01\x02"),
    memoryview(array.array("I", [1, 2])),  # len 2, but 8 bytes
], ids=["bytes", "bytearray", "memoryview", "memoryview-of-u32"])
def test_bytes_like_payload_stores_its_bytes(mem, auth, payload):
    raw = bytes(payload)
    mem.store_bytes(auth, 0x500, payload)
    assert mem.load_bytes(auth, 0x500, len(raw)) == raw
    assert len(mem.data) == mem.size


def test_store_beyond_bounds(mem):
    narrow = make_root(0x1000, 0x10, LD | ST)
    with pytest.raises(CapFault) as exc:
        mem.store_bytes(narrow, 0x1008, b"123456789")
    assert exc.value.kind is FaultKind.BOUNDS


def test_authority_without_store_perm(mem):
    ro = make_root(0, PAGE, LD)
    with pytest.raises(CapFault) as exc:
        mem.store_bytes(ro, 0, b"x")
    assert exc.value.kind is FaultKind.PERMISSION


@pytest.mark.parametrize("access", [
    lambda m, a: m.load_bytes(a, PAGE - 8, 16),
    lambda m, a: m.store_bytes(a, PAGE - 8, b"x" * 16),
    lambda m, a: m.load_cap(a, PAGE),
    lambda m, a: m.store_cap(a, PAGE, make_root(0, 16, LD)),
], ids=["load_bytes", "store_bytes", "load_cap", "store_cap"])
def test_access_past_end_of_memory_faults_unmapped(access):
    small = TaggedMemory(PAGE)
    wide = make_root(0, 2 * PAGE, LD | ST)
    with pytest.raises(CapFault) as exc:
        access(small, wide)
    assert exc.value.kind is FaultKind.PERMISSION
    assert "unmapped" in exc.value.detail


# Each accessor on a two-page memory whose second page denies its kind.  A
# byte access moves 16 bytes from the row's address, which lies 8 bytes
# below a granule boundary; a granule access cannot straddle the end of
# memory, so it starts 8 bytes later, at that boundary.
PRECEDENCE_ACCESSORS = {
    "load_bytes": (LD, lambda m, a, addr: m.load_bytes(a, addr, 16)),
    "store_bytes": (ST, lambda m, a, addr: m.store_bytes(a, addr, b"x" * 16)),
    "load_cap": (LD, lambda m, a, addr: m.load_cap(a, addr + 8)),
    "store_cap": (ST, lambda m, a, addr: m.store_cap(a, addr + 8, make_root(0, 16, LD))),
}
# row -> (authority, access address, the check that fails)
PRECEDENCE = {
    # the capability checks come before the end of memory
    "untagged-past-end": (untagged(make_root(0, 4 * PAGE, LD | ST)), 2 * PAGE - 8, "tag"),
    # and before the page permissions
    "bounds-on-denying-page": (make_root(PAGE, GRANULE, LD | ST), PAGE + 8, "bounds"),
    # the end of memory comes before the page permissions
    "full-past-end": (make_root(0, 4 * PAGE, LD | ST), 2 * PAGE - 8, "unmapped"),
}


@pytest.mark.parametrize("row", PRECEDENCE)
@pytest.mark.parametrize("name", PRECEDENCE_ACCESSORS)
def test_access_faults_at_the_first_failing_check_in_order(name, row):
    kind, access = PRECEDENCE_ACCESSORS[name]
    authority, addr, check = PRECEDENCE[row]
    mem = TaggedMemory(2 * PAGE)
    mem.mprotect(PageProtRequest(PAGE, PAGE, (LD | ST | EX) & ~kind))
    with pytest.raises(CapFault) as exc:
        access(mem, authority, addr)
    assert exc.value.check == check


# An unaligned granule access on the same memory: its capability is checked
# first, then its alignment, then the end of memory and the pages, as the
# CHERI ISA orders them.  Every address lies 8 bytes past a granule boundary.
UNALIGNED_ACCESSORS = {
    "load_cap": (LD, lambda m, a, addr: m.load_cap(a, addr)),
    "store_cap": (ST, lambda m, a, addr: m.store_cap(a, addr, make_root(0, 16, LD))),
}
# row -> (authority, access address, the check that fails)
UNALIGNED = {
    "untagged": (untagged(make_root(0, 4 * PAGE, LD | ST)), 0x18, "tag"),
    "execute-only": (make_root(0, 4 * PAGE, Perm.EXECUTE), 0x18, "permission"),
    "out-of-bounds": (make_root(0x1000, GRANULE, LD | ST), 0x1008, "bounds"),
    "past-end": (make_root(0, 4 * PAGE, LD | ST), 2 * PAGE - 8, "alignment"),
    "on-denying-page": (make_root(0, 4 * PAGE, LD | ST), PAGE + 8, "alignment"),
}


@pytest.mark.parametrize("row", UNALIGNED)
@pytest.mark.parametrize("name", UNALIGNED_ACCESSORS)
def test_unaligned_capability_access_checks_its_capability_first(name, row):
    kind, access = UNALIGNED_ACCESSORS[name]
    authority, addr, check = UNALIGNED[row]
    mem = TaggedMemory(2 * PAGE)
    mem.mprotect(PageProtRequest(PAGE, PAGE, (LD | ST | EX) & ~kind))
    with pytest.raises(CapFault) as exc:
        access(mem, authority, addr)
    assert exc.value.check == check


# -- the pages and granules one access touches ------------------------------

BYTE_ACCESSES = {
    "load_bytes": (LD, lambda m, a, addr, n: m.load_bytes(a, addr, n)),
    "store_bytes": (ST, lambda m, a, addr, n: m.store_bytes(a, addr, b"\xaa" * n)),
}


@pytest.mark.parametrize("denied", [1, 2], ids=["middle-page", "last-page"])
@pytest.mark.parametrize("name", BYTE_ACCESSES)
def test_three_page_access_faults_at_the_page_that_denies_it(mem, auth, name, denied):
    kind, access = BYTE_ACCESSES[name]
    mem.mprotect(PageProtRequest(denied * PAGE, PAGE, (LD | ST | EX) & ~kind))
    before = bytes(mem.data)
    with pytest.raises(CapFault) as exc:
        access(mem, auth, PAGE - 8, PAGE + 16)  # pages 0, 1 and 2
    assert exc.value.kind is FaultKind.PERMISSION
    assert exc.value.detail == f"page {denied:#x} denies {kind.name}"
    assert bytes(mem.data) == before


@pytest.mark.parametrize("name", BYTE_ACCESSES)
def test_access_ending_on_a_page_boundary_leaves_the_next_page_alone(name):
    kind, access = BYTE_ACCESSES[name]
    mem = TaggedMemory(3 * PAGE)
    auth = make_root(0, 3 * PAGE, LD | ST)
    mem.mprotect(PageProtRequest(2 * PAGE, PAGE, (LD | ST | EX) & ~kind))
    access(mem, auth, PAGE - 8, PAGE + 8)  # ends where denied page 2 begins
    access(mem, auth, 2 * PAGE - GRANULE, GRANULE)
    mem.mprotect(PageProtRequest(2 * PAGE, PAGE, LD | ST))
    access(mem, auth, PAGE, 2 * PAGE)  # ends at the end of memory


NEIGHBOURS = range(PAGE - 2 * GRANULE, PAGE + 7 * GRANULE, GRANULE)


@pytest.mark.parametrize("addr, n, covered", [
    (PAGE + 0x15, 1, [PAGE + 0x10]),
    (PAGE + 0x18, 8, [PAGE + 0x10]),  # ends on the boundary with PAGE + 0x20
    (PAGE + 0x1c, 36, [PAGE + 0x10, PAGE + 0x20, PAGE + 0x30]),
], ids=["one-byte", "ends-on-a-granule-boundary", "three-granules"])
def test_store_bytes_clears_exactly_the_granules_it_covers(mem, auth, addr, n, covered):
    for a in NEIGHBOURS:
        mem.store_cap(auth, a, make_root(a, GRANULE, LD))
    mem.store_bytes(auth, addr, b"\xaa" * n)
    assert [a for a, _ in mem.iter_tagged()] == [a for a in NEIGHBOURS if a not in covered]


class TestMprotect:
    def test_strip_without_prot_cap(self, mem, auth):
        mem.store_cap(auth, PAGE, make_root(0x100, 0x40, LD))
        mem.mprotect(PageProtRequest(PAGE, PAGE, Perm(0)))
        mem.mprotect(PageProtRequest(PAGE, PAGE, LD | ST))
        out = mem.load_cap(auth, PAGE)
        assert not out.tag
        with pytest.raises(CapFault) as exc:
            mem.load_bytes(out, out.address, 8)
        assert exc.value.kind is FaultKind.TAG

    def test_prot_cap_preserves_tags(self, mem, auth):
        value = make_root(0x100, 0x40, LD)
        mem.store_cap(auth, PAGE, value)
        mem.mprotect(PageProtRequest(PAGE, PAGE, Perm(0)))
        mem.mprotect(PageProtRequest(PAGE, PAGE, LD | ST, prot_cap=True))
        assert mem.load_cap(auth, PAGE) == value

    def test_restore_on_never_stripped_page(self, mem, auth):
        mem.store_cap(auth, PAGE, make_root(0x100, 0x40, LD))
        mem.mprotect(PageProtRequest(PAGE, PAGE, LD | ST))
        assert mem.load_cap(auth, PAGE).tag

    def test_no_access_page_faults(self, mem, auth):
        mem.mprotect(PageProtRequest(PAGE, PAGE, Perm(0)))
        with pytest.raises(CapFault) as exc:
            mem.load_bytes(auth, PAGE, 8)
        assert exc.value.kind is FaultKind.PERMISSION

    def test_prot_cap_is_tag_neutral(self, mem, auth):
        for addr in (0, 0x40, PAGE, PAGE + 0x80):
            mem.store_cap(auth, addr, make_root(addr, 0x10, LD))
        before = sorted(addr for addr, _ in mem.iter_tagged())
        mem.mprotect(PageProtRequest(0, 2 * PAGE, Perm(0)))
        mem.mprotect(PageProtRequest(0, 2 * PAGE, LD | ST, prot_cap=True))
        assert sorted(addr for addr, _ in mem.iter_tagged()) == before

    def test_strip_reaches_both_edges_of_the_page_only(self, mem, auth):
        # first and last granule of pages 0-2; only page 1 is stripped
        edges = [page * PAGE + off for page in range(3) for off in (0, PAGE - GRANULE)]
        for addr in edges:
            mem.store_cap(auth, addr, make_root(addr, 0x10, LD))
        mem.mprotect(PageProtRequest(PAGE, PAGE, Perm(0)))
        mem.mprotect(PageProtRequest(PAGE, PAGE, LD | ST))
        assert [mem.granule_tag(addr) for addr in edges] == [True, True, False, False, True, True]


def test_a_tag_query_names_its_granule_by_any_address_inside_it(mem, auth):
    a = PAGE + 0x40
    mem.store_cap(auth, a, make_root(a, GRANULE, LD))
    assert all(mem.granule_tag(a + k) for k in range(GRANULE))
    assert not mem.granule_tag(a - 1) and not mem.granule_tag(a + GRANULE)
    for neighbour in (a - GRANULE, a + GRANULE):
        mem.store_cap(auth, neighbour, make_root(neighbour, GRANULE, LD))
    mem.clear_granule_tag(a + GRANULE - 1)
    assert [mem.granule_tag(g) for g in (a - GRANULE, a, a + GRANULE)] == [True, False, True]


def test_iter_tagged_is_a_live_view_in_store_order(mem, auth):
    stored = {addr: make_root(addr, 0x10, LD) for addr in (3 * PAGE, PAGE + 0x40, 0x20, 0)}
    for addr, value in stored.items():  # descending address order
        mem.store_cap(auth, addr, value)
    assert list(mem.iter_tagged()) == list(stored.items())
    items = mem.iter_tagged()
    assert next(items) == (3 * PAGE, stored[3 * PAGE])
    # a tagged granule stored again keeps its place, and the view reads the new value
    replacement = make_root(0, 0x20, LD)
    mem.store_cap(auth, 0x20, replacement)
    assert list(items) == [(PAGE + 0x40, stored[PAGE + 0x40]), (0x20, replacement),
                           (0, stored[0])]
    for addr in stored:
        mem.clear_granule_tag(addr)
    assert list(mem.iter_tagged()) == []


@pytest.mark.parametrize("change", ["clear", "store", "store-untagged"])
def test_iter_tagged_raises_when_a_tag_changes_under_it(mem, auth, change):
    stored = [0, 0x20, PAGE]
    for addr in stored:
        mem.store_cap(auth, addr, make_root(addr, 0x10, LD))
    items = mem.iter_tagged()
    next(items)
    if change == "clear":
        mem.clear_granule_tag(0x20)
    elif change == "store":
        mem.store_cap(auth, 0x40, make_root(0x40, 0x10, LD))
    else:  # an untagged value stored over a tagged granule clears its tag
        mem.store_cap(auth, 0x20, untagged(make_root(0x20, 0x10, LD)))
    with pytest.raises(RuntimeError):
        next(items)
    # collecting first, as the allocator's sweep does, lets the consumer clear
    for addr, _ in list(mem.iter_tagged()):
        mem.clear_granule_tag(addr)
    assert list(mem.iter_tagged()) == []


def test_tag_data_coherence_random_ops(mem, auth):
    rng = random.Random(42)
    for _ in range(500):
        addr = rng.randrange(0, 4 * PAGE - 64)
        if rng.random() < 0.5:
            mem.store_cap(auth, addr & ~0xF,
                          make_root(rng.randrange(0, 1 << 16) & ~0xF, 0x40, LD | ST))
        else:
            mem.store_bytes(auth, addr, bytes([rng.randrange(256)] * rng.randrange(1, 32)))
    for addr, c in mem.iter_tagged():
        assert bytes(mem.data[addr:addr + GRANULE]) == encoded(c)


# -- page permissions tested on integer masks ------------------------------

PERM_GRID = [Perm(v) for v in range((LD | ST | EX).value + 1)]  # Perm(0) included


def test_page_permission_grid_matches_flag_membership(auth):
    """Every page permission mask, with each kind an accessor checks (LOAD
    or STORE), decides as `want in held` does, through the page check
    alone (the authority holds every permission) and on an access that
    spans into the protected page."""
    for held in PERM_GRID:
        mem = TaggedMemory(4 * PAGE)
        mem.mprotect(PageProtRequest(PAGE, PAGE, held))
        for want in (LD, ST):
            for addr in (PAGE + 0x10, PAGE - 8):
                if want in held:  # the Flag reference
                    mem._check(auth, addr, want, 16)
                    continue
                with pytest.raises(CapFault) as exc:
                    mem._check(auth, addr, want, 16)
                assert exc.value.kind is FaultKind.PERMISSION, (held, want)
                assert exc.value.detail == f"page 0x1 denies {want.name}"
            mem._check(auth, 0, want, 16)  # page 0 keeps every permission


@pytest.mark.parametrize("held", PERM_GRID, ids=lambda p: f"perms{p.value}")
def test_page_permissions_decide_public_accesses(mem, auth, held):
    mem.mprotect(PageProtRequest(PAGE, PAGE, held))
    value = make_root(0x100, 0x40, LD)
    accesses = {
        LD: [lambda: mem.load_bytes(auth, PAGE, 8), lambda: mem.load_cap(auth, PAGE)],
        ST: [lambda: mem.store_bytes(auth, PAGE, b"x"), lambda: mem.store_cap(auth, PAGE, value)],
    }
    for kind, calls in accesses.items():
        for call in calls:
            if kind in held:
                call()
                continue
            with pytest.raises(CapFault) as exc:
                call()
            assert exc.value.kind is FaultKind.PERMISSION


@pytest.mark.parametrize("length", [-PAGE, -2 * PAGE, -4 * PAGE])
def test_mprotect_negative_length_raises(mem, auth, length):
    mem.store_cap(auth, 2 * PAGE, make_root(0x100, 0x40, LD))
    mem.mprotect(PageProtRequest(2 * PAGE, PAGE, Perm(0)))
    with pytest.raises(ValueError):
        mem.mprotect(PageProtRequest(3 * PAGE, length, LD | ST))
    with pytest.raises(CapFault):  # the page is still inaccessible
        mem.load_bytes(auth, 2 * PAGE, 8)
    mem.mprotect(PageProtRequest(2 * PAGE, PAGE, LD | ST, prot_cap=True))
    assert mem.load_cap(auth, 2 * PAGE).tag  # and still held its tag


# -- page protection against a reference model -----------------------------

# the granules of each page that the sequences use
_SLOT_GRANULES = (0, 100, PAGE // GRANULE - 2, PAGE // GRANULE - 1)

_MEM_OPS = st.one_of(
    st.tuples(st.sampled_from(["store_cap", "store_bytes", "load_cap"]),
              st.integers(0, 2), st.integers(0, len(_SLOT_GRANULES) - 1)),
    st.tuples(st.just("mprotect"), st.integers(0, 2), st.integers(0, 3),
              st.sampled_from(PERM_GRID), st.booleans()),
)


class _PageModel:
    """Naive page protection: an explicit per-page flag, set while the page
    has neither LOAD nor STORE, says whether its tags go when LOAD or STORE
    comes back without `prot_cap`."""

    def __init__(self, npages):
        self.perms = [LD | ST | EX] * npages
        self.strip_pending = [False] * npages
        self.caps = {}  # granule address -> capability

    def allows(self, addr, kind):
        return kind in self.perms[addr // PAGE]

    def mprotect(self, first, count, perms, prot_cap):
        for page in range(first, first + count):
            accessible = bool(perms & (LD | ST))
            if accessible and self.strip_pending[page]:
                if not prot_cap:
                    self.caps = {a: c for a, c in self.caps.items() if a // PAGE != page}
                self.strip_pending[page] = False
            self.perms[page] = perms
            if not accessible:
                self.strip_pending[page] = True


_STRIP = [("store_cap", 0, 0), ("mprotect", 0, 1, Perm.EXECUTE, False),
          ("mprotect", 0, 1, LD | ST, False), ("load_cap", 0, 0)]
_NO_STRIP = [("store_cap", 0, 0), ("mprotect", 0, 1, LD, False),
             ("mprotect", 0, 1, ST, False), ("mprotect", 0, 1, LD, False),
             ("load_cap", 0, 0)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.lists(_MEM_OPS, max_size=25))
@example(1, _STRIP)
@example(1, _NO_STRIP)
@example(2, [("store_cap", 1, 3), ("mprotect", 0, 2, Perm(0), False),
             ("mprotect", 1, 1, Perm.EXECUTE | LD, True), ("load_cap", 1, 3),
             ("mprotect", 0, 2, ST, False), ("load_cap", 0, 0)])
def test_page_protection_matches_strip_pending_model(npages, ops):
    mem = TaggedMemory(npages * PAGE)
    auth = make_root(0, npages * PAGE, LD | ST | EX)
    model = _PageModel(npages)
    for step, (name, page, *args) in enumerate(ops):
        page %= npages
        if name == "mprotect":
            count, perms, prot_cap = args
            count = min(count, npages - page)
            mem.mprotect(PageProtRequest(page * PAGE, count * PAGE, perms, prot_cap))
            model.mprotect(page, count, perms, prot_cap)
        else:
            addr = page * PAGE + _SLOT_GRANULES[args[0]] * GRANULE
            kind = LD if name == "load_cap" else ST
            value = make_root(0x100 * (step + 1), 0x40, LD)
            call = {
                "store_cap": lambda: mem.store_cap(auth, addr, value),
                "store_bytes": lambda: mem.store_bytes(auth, addr + 4, b"\xaa" * 8),
                "load_cap": lambda: mem.load_cap(auth, addr),
            }[name]
            if not model.allows(addr, kind):
                with pytest.raises(CapFault) as exc:
                    call()
                assert exc.value.kind is FaultKind.PERMISSION
            elif name == "load_cap":
                out = call()
                if addr in model.caps:
                    assert out == model.caps[addr]
                else:
                    assert not out.tag
            else:
                call()
                if name == "store_cap":
                    model.caps[addr] = value
                else:
                    model.caps.pop(addr, None)
        assert dict(mem.iter_tagged()) == model.caps, (step, name)
        assert mem.load_denied == {p for p, held in enumerate(model.perms) if LD not in held}
        assert mem.store_denied == {p for p, held in enumerate(model.perms) if ST not in held}


# -- the load and store denied sets that let an access skip its page walk

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.sampled_from(PERM_GRID), st.booleans()),
    max_size=20))
def test_denied_sets_are_the_pages_that_deny_a_load_and_a_store(npages, calls):
    mem = TaggedMemory(npages * PAGE)
    held = [LD | ST | EX] * npages  # each page's mask, kept beside the memory
    for page, count, perms, prot_cap in calls:
        page %= npages
        count = min(count, npages - page)
        mem.mprotect(PageProtRequest(page * PAGE, count * PAGE, perms, prot_cap))
        held[page:page + count] = [perms] * count
        want = [{p for p, mask in enumerate(held) if kind not in mask} for kind in (LD, ST)]
        assert [mem.load_denied, mem.store_denied] == want, (page, count, perms)


# -- a load copies out of the writable view --------------------------------

def test_loaded_bytes_do_not_alias_memory(mem, auth):
    mem.store_bytes(auth, 0x500, b"\x01" * 40)
    out = mem.load_bytes(auth, 0x500, 40)
    mem.store_bytes(auth, 0x500, b"\x02" * 40)
    assert type(out) is bytes and out == b"\x01" * 40

