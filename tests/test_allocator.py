import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from capsim.allocator import AllocError, CapAllocator, OutOfMemory, _coalesce, _round_up
from capsim.capability import (
    CapFault, Capability, FaultKind, Perm, make_root, restrict_perms, seal_entry,
    set_address, set_bounds,
)
from capsim.memory import GRANULE, PAGE, TaggedMemory
from capsim.vm import HEAP_BASE, MiniVm
from helpers import untagged

ARENA_BASE, ARENA_SIZE = 0x1000, 0x4000


@pytest.fixture
def setup():
    mem = TaggedMemory(8 * PAGE)
    arena = make_root(ARENA_BASE, ARENA_SIZE, Perm.LOAD | Perm.STORE)
    return mem, CapAllocator(mem, arena)


def overlaps(cap, base, length):
    return max(cap.base, base) < min(cap.top, base + length)


def count_sweeps(monkeypatch):
    """Wrap `CapAllocator.revoke` for this test; the returned list gets
    the allocator of every sweep that runs."""
    sweeps, original = [], CapAllocator.revoke

    def revoke(self):
        sweeps.append(self)
        return original(self)

    monkeypatch.setattr(CapAllocator, "revoke", revoke)
    return sweeps


class TestMalloc:
    def test_tight_bounds(self, setup):
        _, alloc = setup
        c = alloc.malloc(32)
        assert c.tag and c.length == 32

    def test_rounding(self, setup):
        _, alloc = setup
        assert alloc.malloc(1).length == 16
        assert alloc.malloc(17).length == 32

    def test_distinct_regions(self, setup):
        _, alloc = setup
        a, b = alloc.malloc(32), alloc.malloc(32)
        assert not overlaps(a, b.base, b.length)

    def test_out_of_memory(self, setup):
        _, alloc = setup
        with pytest.raises(OutOfMemory):
            alloc.malloc(ARENA_SIZE + 16)

    def test_freed_region_not_reused_before_revoke(self, setup):
        _, alloc = setup
        c = alloc.malloc(32)
        alloc.free(c)
        d = alloc.malloc(32)
        assert d.base != c.base

    def test_freed_region_reused_after_revoke(self, setup):
        _, alloc = setup
        c = alloc.malloc(32)
        alloc.free(c)
        alloc.revoke()
        assert alloc.malloc(32).base == c.base

    def test_a_full_arena_with_quarantine_revokes_before_it_fails(self, monkeypatch):
        vm = MiniVm()
        objects = [vm.alloc.malloc(256) for _ in range(112)]
        assert vm.alloc.free_list == []  # the arena is full
        for cap in objects:
            vm.alloc.free(cap)
        vm.mem.store_cap(vm.heap_page, HEAP_BASE, objects[7])  # a dangling copy
        sweeps = count_sweeps(monkeypatch)
        assert vm.alloc.malloc(16).base == objects[0].base == 0x5000
        assert not vm.mem.granule_tag(HEAP_BASE)
        assert vm.alloc.quarantine == [] and sweeps == [vm.alloc]

    def test_out_of_memory_after_one_sweep_that_frees_too_little(self, setup, monkeypatch):
        _, alloc = setup
        alloc.free(alloc.malloc(32))
        sweeps = count_sweeps(monkeypatch)
        with pytest.raises(OutOfMemory):
            alloc.malloc(ARENA_SIZE + 16)
        assert sweeps == [alloc] and alloc.quarantine == []


class TestFree:
    def test_moves_to_quarantine(self, setup):
        _, alloc = setup
        c = alloc.malloc(32)
        alloc.free(c)
        assert (c.base, 32) in alloc.quarantine

    def test_double_free(self, setup):
        _, alloc = setup
        c = alloc.malloc(32)
        alloc.free(c)
        with pytest.raises(AllocError):
            alloc.free(c)

    def test_access_via_retained_copy_before_revoke(self, setup):
        mem, alloc = setup
        c = alloc.malloc(32)
        mem.store_bytes(c, c.base, b"x" * 32)
        alloc.free(c)
        assert mem.load_bytes(c, c.base, 32) == b"x" * 32


class TestRevoke:
    def test_clears_all_stored_copies(self, setup):
        mem, alloc = setup
        c = alloc.malloc(32)
        holder = alloc.malloc(64)
        mem.store_cap(holder, holder.base, c)
        mem.store_cap(holder, holder.base + 16, set_address(c, c.base + 8))
        alloc.free(c)
        assert alloc.revoke() == 2
        assert not mem.load_cap(holder, holder.base).tag
        assert not mem.load_cap(holder, holder.base + 16).tag

    def test_empty_quarantine(self, setup):
        mem, alloc = setup
        holder = alloc.malloc(32)
        mem.store_cap(holder, holder.base, holder)
        assert alloc.revoke() == 0
        assert mem.load_cap(holder, holder.base).tag

    def test_disjoint_cap_survives(self, setup):
        mem, alloc = setup
        victim, bystander, holder = alloc.malloc(32), alloc.malloc(32), alloc.malloc(32)
        mem.store_cap(holder, holder.base, bystander)
        alloc.free(victim)
        alloc.revoke()
        assert mem.load_cap(holder, holder.base) == bystander


class TestRealloc:
    def test_in_place_growth(self, setup):
        mem, alloc = setup
        old = alloc.malloc(32)
        new = alloc.realloc(old, 48)
        assert new.base == old.base and new.address == old.address
        assert new.length == 48
        # the old capability keeps its smaller bounds
        assert old.length == 32
        with pytest.raises(CapFault) as exc:
            mem.store_bytes(set_address(old, old.base + 40), old.base + 40, b"12345678")
        assert exc.value.kind is FaultKind.BOUNDS
        mem.store_bytes(set_address(new, new.base + 40), new.base + 40, b"12345678")

    def test_moving_growth_quarantines_old(self, setup):
        mem, alloc = setup
        old = alloc.malloc(32)
        blocker = alloc.malloc(32)  # blocks in-place growth
        mem.store_bytes(old, old.base, b"a" * 32)
        new = alloc.realloc(old, 64)
        assert new.base != old.base
        assert (old.base, 32) in alloc.quarantine
        assert mem.load_bytes(new, new.base, 32) == b"a" * 32

    def test_equal_size(self, setup):
        _, alloc = setup
        old = alloc.malloc(32)
        new = alloc.realloc(old, 32)
        assert (new.base, new.top) == (old.base, old.top)

    def test_unknown_base(self, setup):
        _, alloc = setup
        with pytest.raises(AllocError):
            alloc.realloc(make_root(0x9000, 32, Perm.LOAD), 64)

    def test_length_always_rounded_request(self, setup):
        _, alloc = setup
        old = alloc.malloc(32)
        assert alloc.realloc(old, 50).length == 64


# Capabilities whose base is that of a live object but which carry no
# authority over it: free and realloc must refuse them and change nothing.
FORGERIES = {
    "untagged-copy": untagged,
    "untagged-root": lambda b: untagged(make_root(b.base, 32, Perm.LOAD)),
    "sealed": seal_entry,
    "sealed-untagged": lambda b: untagged(seal_entry(b)),
}


@pytest.fixture
def exec_setup():
    """An arena with EXECUTE, so that seal_entry of an object keeps its tag."""
    mem = TaggedMemory(8 * PAGE)
    arena = make_root(ARENA_BASE, ARENA_SIZE, Perm.LOAD | Perm.STORE | Perm.EXECUTE)
    return mem, CapAllocator(mem, arena)


def _allocator_state(alloc):
    return dict(alloc.live), list(alloc.free_list), list(alloc.quarantine)


@pytest.mark.parametrize("forge", FORGERIES.values(), ids=FORGERIES)
def test_free_rejects_capability_without_authority(exec_setup, forge):
    _, alloc = exec_setup
    b = alloc.malloc(32)
    forged = forge(b)
    assert forged.base == b.base
    assert not forged.tag or forged.sealed is True
    before = _allocator_state(alloc)
    with pytest.raises(AllocError):
        alloc.free(forged)
    assert _allocator_state(alloc) == before
    alloc.free(b)
    assert alloc.quarantine == [(b.base, 32)]


@pytest.mark.parametrize("n", [16, 32, 48], ids=["shrink", "equal", "move"])
@pytest.mark.parametrize("forge", FORGERIES.values(), ids=FORGERIES)
def test_realloc_rejects_capability_without_authority(exec_setup, forge, n):
    _, alloc = exec_setup
    b = alloc.malloc(32)
    alloc.malloc(32)  # blocks in-place growth
    before = _allocator_state(alloc)
    with pytest.raises(AllocError):
        alloc.realloc(forge(b), n)
    assert _allocator_state(alloc) == before
    assert alloc.realloc(b, n).tag


# Views of a live object: tagged and unsealed, but narrower than the object
# or with fewer permissions.  Only the object's own capability frees or
# resizes it, so a view can neither release the object nor widen itself.
VIEWS = {
    "narrowed": lambda b: set_bounds(b, b.base, 16),
    "read-only": lambda b: restrict_perms(b, Perm.LOAD),
    "narrowed-read-only": lambda b: restrict_perms(set_bounds(b, b.base, 16), Perm.LOAD),
}
CALLS = {"free": None, "shrink": 32, "equal": 64, "grow": 96}  # realloc sizes of a 64-byte object


def _free_or_realloc(alloc, cap, n):
    return alloc.free(cap) if n is None else alloc.realloc(cap, n)


@pytest.mark.parametrize("n", CALLS.values(), ids=CALLS)
@pytest.mark.parametrize("view", VIEWS.values(), ids=VIEWS)
def test_free_and_realloc_reject_a_view_of_the_object(setup, view, n):
    _, alloc = setup
    b = alloc.malloc(64)
    v = view(b)
    assert v.tag and v.sealed is False and v.base == b.base
    before = _allocator_state(alloc)
    with pytest.raises(AllocError):
        _free_or_realloc(alloc, v, n)
    assert _allocator_state(alloc) == before


@pytest.mark.parametrize("n", CALLS.values(), ids=CALLS)
def test_own_capability_frees_or_resizes_at_any_address(setup, n):
    _, alloc = setup
    b = alloc.malloc(64)
    out = _free_or_realloc(alloc, set_address(b, b.base + 16), n)
    if n is None:
        assert alloc.quarantine == [(b.base, 64)] and not alloc.live
    else:
        assert (out.base, out.length, out.address) == (b.base, n, b.base + 16)


def _check_disjoint(alloc):
    regions = sorted((b, l) for b, l in alloc.live.items())
    for (b1, l1), (b2, l2) in zip(regions, regions[1:]):
        assert b1 + l1 <= b2


def test_randomized_interleavings_disjoint_and_quarantine_excluded(setup):
    mem, alloc = setup
    rng = random.Random(3)
    live = []
    for _ in range(800):
        action = rng.random()
        if action < 0.5:
            try:
                c = alloc.malloc(rng.randrange(1, 200))
            except OutOfMemory:
                continue
            for qb, ql in alloc.quarantine:
                assert not overlaps(c, qb, ql)
            live.append(c)
        elif action < 0.8 and live:
            alloc.free(live.pop(rng.randrange(len(live))))
        else:
            alloc.revoke()
        _check_disjoint(alloc)


def _check_arena_conserved(alloc):
    free = alloc.free_list
    assert free == sorted(free)
    for (b1, l1), (b2, l2) in zip(free, free[1:]):
        assert b1 + l1 < b2, "free list overlaps or is not coalesced"
    total = (sum(alloc.live.values()) + sum(l for _, l in free)
             + sum(l for _, l in alloc.quarantine))
    assert total == alloc.arena.length


def test_randomized_arena_conservation(setup):
    mem, alloc = setup
    rng = random.Random(11)
    live = []
    for _ in range(1500):
        action = rng.random()
        try:
            if action < 0.35:
                live.append(alloc.malloc(rng.randrange(1, 300)))
            elif action < 0.55 and live:
                alloc.free(live.pop(rng.randrange(len(live))))
            elif action < 0.9 and live:
                i = rng.randrange(len(live))
                old = live[i]
                # shrink or grow, in roughly equal measure
                n = rng.randrange(1, old.length) if rng.random() < 0.5 and old.length > 16 \
                    else rng.randrange(old.length + 1, old.length + 300)
                live[i] = alloc.realloc(old, n)
            else:
                alloc.revoke()
        except OutOfMemory:
            pass
        _check_arena_conserved(alloc)


# -- revoke equivalence against a brute-force all-pairs oracle -------------

SLOTS = ARENA_BASE + ARENA_SIZE  # capabilities are stored past the arena


def _oracle_revoked(stored, quarantine):
    """Slot addresses whose capability's bounds intersect any quarantined region."""
    return {addr for addr, cap in stored.items()
            if any(max(cap.base, qb) < min(cap.top, qb + ql) for qb, ql in quarantine)}


def _revoke_and_compare(mem, alloc, stored):
    quarantine = list(alloc.quarantine)
    expected = _oracle_revoked(stored, quarantine)
    assert alloc.revoke() == len(expected)
    for addr in stored:
        assert mem.granule_tag(addr) == (addr not in expected), hex(addr)


def _store(mem, bounds, order=None):
    """Store a tagged capability with each (base, top) in its own slot."""
    auth = make_root(0, mem.size, Perm.LOAD | Perm.STORE)
    stored = {}
    for i in order if order is not None else range(len(bounds)):
        base, top = bounds[i]
        addr = SLOTS + i * GRANULE
        stored[addr] = Capability(tag=True, address=base, base=base, top=top,
                                  perms=Perm.LOAD | Perm.STORE)
        mem.store_cap(auth, addr, stored[addr])
    return stored


def test_revoke_bounds_edges(setup):
    mem, alloc = setup
    a, b, c, d = (alloc.malloc(64) for _ in range(4))
    alloc.free(a)
    alloc.free(b)  # adjacent to a: one span [a.base, b.top)
    alloc.free(d)  # c stays live between the spans
    cases = {
        (a.base, a.base + 1): True,        # inside the first freed object
        (b.top - 1, b.top): True,          # last byte of the coalesced span
        (b.top, c.top): False,             # starts where the span ends
        (b.top, d.base + 1): True,         # starts at a span's end, reaches the next span
        (c.base, d.base): False,           # ends where the second span starts
        (c.base, c.base): False,           # zero length
        (b.base, b.base): False,           # zero length inside quarantine
        (b.top, a.base): False,            # inverted
        (c.base, 1 << 64): True,           # top == 2**64 reaches d
        (d.top, 1 << 64): False,           # top == 2**64 past every span
        (0, 1 << 64): True,                # whole address space
        (a.base - 16, d.top + 16): True,   # spans live and freed objects
    }
    stored = _store(mem, list(cases))
    _revoke_and_compare(mem, alloc, stored)
    for addr, (bounds, revoked) in zip(stored, cases.items()):
        assert mem.granule_tag(addr) is not revoked, bounds


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_revoke_matches_all_pairs_oracle(data):
    mem = TaggedMemory(8 * PAGE)
    alloc = CapAllocator(mem, make_root(ARENA_BASE, ARENA_SIZE, Perm.LOAD | Perm.STORE))
    objs = [alloc.malloc(n) for n in data.draw(st.lists(st.integers(1, 96), min_size=1, max_size=12))]
    for i in data.draw(st.lists(st.sampled_from(range(len(objs))), unique=True)):
        alloc.free(objs[i])

    edges = sorted({e for o in objs for e in (o.base, o.top)} | {0, 1 << 64})
    point = st.one_of(
        st.sampled_from(edges),
        st.sampled_from(edges).flatmap(lambda e: st.integers(max(0, e - 17), e + 17)),
        st.integers(0, 1 << 64),
    )
    bounds = data.draw(st.lists(st.tuples(point, point), max_size=24))
    order = data.draw(st.permutations(range(len(bounds))))
    stored = _store(mem, bounds, order)

    addrs = [addr for addr, _ in mem.iter_tagged()]
    assert addrs == sorted(stored)
    _revoke_and_compare(mem, alloc, stored)


def test_revoke_matches_oracle_at_benchmark_scale():
    """512 objects and 512 stored copies, a quarter of them spanning two
    neighbours, stored in shuffled slot order; 256 objects freed."""
    rng = random.Random(2019)
    mem = TaggedMemory(1 << 20)
    root = make_root(0, 1 << 20, Perm.LOAD | Perm.STORE)
    alloc = CapAllocator(mem, root)
    objs = [alloc.malloc(rng.randint(16, 256)) for _ in range(512)]
    holder = alloc.malloc(512 * GRANULE)
    stored = {}
    for k in rng.sample(range(512), 512):
        i = rng.randrange(len(objs) - 1)
        value = (set_bounds(root, objs[i].base, objs[i + 1].top - objs[i].base)
                 if rng.random() < 0.25 else objs[i])
        stored[holder.base + k * GRANULE] = value
        mem.store_cap(holder, holder.base + k * GRANULE, value)
    # the side table's order is not address order, and the sweep must not rely on it
    assert list(mem.granule_caps) != sorted(mem.granule_caps)
    for i in rng.sample(range(len(objs)), 256):
        alloc.free(objs[i])
    _revoke_and_compare(mem, alloc, stored)


def test_revoke_clears_each_revoked_granule_through_clear_granule_tag(setup, monkeypatch):
    """One sweep clears each revoked granule with one `clear_granule_tag`
    call at its base address, and clears nothing else."""
    mem, alloc = setup
    a, b, c, d = (alloc.malloc(64) for _ in range(4))
    alloc.free(a)
    alloc.free(c)
    bounds = [
        (a.base, a.top),               # a freed object
        (b.base, b.top),               # a live object
        (b.base, c.base + 1),          # live, reaching one byte into c
        (b.base, c.base),              # ends where c's span starts
        (a.base + 32, a.base + 16),    # inverted, inside a's span
        (c.top - 1, d.top),            # starts on c's last byte
        (d.base, d.base),              # zero length
    ]
    stored = _store(mem, bounds)
    original_clear = TaggedMemory.clear_granule_tag
    clears = []

    def clear_granule_tag(self, addr):
        clears.append(addr)
        original_clear(self, addr)

    monkeypatch.setattr(TaggedMemory, "clear_granule_tag", clear_granule_tag)
    cleared = alloc.revoke()
    stripped = [addr for addr in stored if not mem.granule_tag(addr)]
    assert clears == stripped == [SLOTS + i * GRANULE for i in (0, 2, 5)]
    assert cleared == len(stripped)


# -- realloc below one byte ----------------------------------------------------

@pytest.mark.parametrize("n", [0, -1, -16, -100])
def test_realloc_below_one_byte_raises(setup, n):
    _, alloc = setup
    alloc.malloc(32)
    y = alloc.malloc(32)
    alloc.malloc(32)
    before = _allocator_state(alloc)
    with pytest.raises(AllocError):
        alloc.realloc(y, n)
    assert _allocator_state(alloc) == before
    alloc.free(y)  # y is still the live object it was
    assert alloc.quarantine == [(y.base, 32)]


# -- a size that is not an int -------------------------------------------------

NON_INT_SIZES = [2.5, 16.0, "x", True, None]


@pytest.mark.parametrize("n", NON_INT_SIZES, ids=repr)
def test_malloc_of_a_non_int_size_leaves_the_heap_unpoisoned(setup, n):
    # a float size used to write a float base into the free list, so every
    # later block had float bounds
    _, alloc = setup
    alloc.malloc(32)
    before = _allocator_state(alloc)
    with pytest.raises(ValueError, match="allocation size must be an int"):
        alloc.malloc(n)
    assert _allocator_state(alloc) == before
    c = alloc.malloc(16)
    assert all(type(v) is int for v in (c.address, c.base, c.top))
    assert all(type(v) is int for region in alloc.free_list for v in region)


@pytest.mark.parametrize("n", NON_INT_SIZES, ids=repr)
def test_realloc_to_a_non_int_size_leaves_the_heap_unchanged(setup, n):
    _, alloc = setup
    y = alloc.malloc(32)
    before = _allocator_state(alloc)
    with pytest.raises(ValueError, match="allocation size must be an int"):
        alloc.realloc(y, n)
    assert _allocator_state(alloc) == before
    assert alloc.realloc(y, 48).base == y.base  # y is still the live object it was


# -- the free list under in-place resizes, moves and first fit ---------------

def _free_gaps(alloc, swept=False):
    """The arena minus live and quarantined regions, as maximal runs: what
    the free list must hold, in its order.  `swept` leaves the quarantine
    out, as a sweep recycles it."""
    gaps, at = [], alloc.arena.base
    for base, length in sorted(list(alloc.live.items()) + ([] if swept else alloc.quarantine)):
        if base > at:
            gaps.append((at, base - at))
        at = base + length
    if alloc.arena.top > at:
        gaps.append((at, alloc.arena.top - at))
    return gaps


def _first_fit(gaps, size):
    return next((base for base, length in gaps if length >= size), None)


def _malloc_base(alloc, gaps, size):
    """Where `malloc` puts `size` bytes: the first fit, or, when none fits
    and the quarantine is not empty, the first fit after the sweep."""
    want = _first_fit(gaps, size)
    if want is None and alloc.quarantine:
        want = _first_fit(_free_gaps(alloc, swept=True), size)
    return want


churn_steps = st.lists(st.tuples(
    st.sampled_from(["malloc", "free", "shrink", "same", "grow", "grow_far", "revoke"]),
    st.integers(0, 1 << 16), st.integers(1, 600)), max_size=60)


# the arena holds 26 objects of 608 bytes: the 27th fails with an empty
# quarantine; once some are freed, a malloc or move that fits no gap sweeps
# and succeeds
FULL_ARENA = [("malloc", 0, 600)] * 27 + [("free", 0, 1)]


@settings(max_examples=300, deadline=None)
@given(churn_steps)
@example(FULL_ARENA + [("malloc", 0, 600)])
@example(FULL_ARENA + [("free", 0, 1), ("grow", 3, 600)])
def test_free_list_matches_coalesced_regions_after_every_step(steps):
    """malloc takes the lowest-addressed gap that fits, or, when none
    fits and the quarantine is not empty, the lowest one after a sweep;
    growth stays in place exactly when a gap starting at the object's end
    is large enough and otherwise moves where malloc would put it; and
    after every step the free list is `_coalesce` of itself and equal to
    the gaps between live and quarantined regions."""
    mem = TaggedMemory(8 * PAGE)
    alloc = CapAllocator(mem, make_root(ARENA_BASE, ARENA_SIZE, Perm.LOAD | Perm.STORE))
    live = []
    for op, pick, n in steps:
        gaps = _free_gaps(alloc)
        if op == "revoke" or (op != "malloc" and not live):
            alloc.revoke()
        elif op == "malloc":
            want = _malloc_base(alloc, gaps, _round_up(n))
            try:
                live.append(alloc.malloc(n))
            except OutOfMemory:
                assert want is None
            else:
                assert live[-1].base == want
        elif op == "free":
            alloc.free(live.pop(pick % len(live)))
        else:
            i = pick % len(live)
            old = live[i]
            if op == "shrink":
                n = 1 + n % old.length
            elif op == "same":
                n = old.length
            else:
                n += old.length if op == "grow" else 4 * old.length
            size = _round_up(n)
            tail = dict(gaps).get(old.top, 0)
            if size <= old.length or tail >= size - old.length:
                want = old.base
            else:
                want = _malloc_base(alloc, gaps, size)
            try:
                live[i] = alloc.realloc(old, n)
            except OutOfMemory:
                assert want is None
            else:
                assert live[i].base == want and live[i].length == size
        assert alloc.free_list == _coalesce(alloc.free_list) == _free_gaps(alloc)


@pytest.mark.parametrize("free_after", [False, True], ids=["alone", "joins-block-after"])
def test_shrink_tail_joins_the_free_block_after_the_object(setup, free_after):
    """A shrinking realloc frees its tail at once, merged with the free
    block that starts where the object ends, exactly as `_coalesce` would."""
    _, alloc = setup
    a, b = alloc.malloc(64), alloc.malloc(32)
    alloc.malloc(16)  # keeps b's region apart from the arena's free tail
    if free_after:
        alloc.free(b)
        alloc.revoke()
    before = list(alloc.free_list)
    alloc.realloc(a, 16)
    assert alloc.free_list == _coalesce(before + [(a.base + 16, 48)])


@pytest.mark.parametrize("grow", [False, True], ids=["equal-size", "grow-into-whole-block"])
def test_in_place_resize_leaves_no_empty_block(setup, grow):
    """An equal-size realloc with no free block after the object, and a
    growth that uses up that block, leave no zero-length block behind."""
    _, alloc = setup
    a, b = alloc.malloc(32), alloc.malloc(32)
    alloc.malloc(16)  # keeps b's region apart from the arena's free tail
    if grow:
        alloc.free(b)
        alloc.revoke()
    before = list(alloc.free_list)
    alloc.realloc(a, 64 if grow else 32)
    assert alloc.free_list == [block for block in before if block[0] != a.top]


@pytest.mark.parametrize("at_end", [False, True], ids=["first-object", "last-object"])
def test_realloc_in_a_full_arena(setup, at_end):
    """With the free list empty, growing raises OutOfMemory and leaves the
    heap as it was, and shrinking frees the tail."""
    _, alloc = setup
    a = alloc.malloc(64)
    b = alloc.malloc(ARENA_SIZE - 64)
    obj = b if at_end else a
    assert alloc.free_list == []
    live, quarantine = dict(alloc.live), list(alloc.quarantine)
    with pytest.raises(OutOfMemory):
        alloc.realloc(obj, obj.length + 16)
    assert (alloc.free_list, alloc.live, alloc.quarantine) == ([], live, quarantine)
    shrunk = alloc.realloc(obj, 16)
    assert (shrunk.base, shrunk.length) == (obj.base, 16)
    assert alloc.free_list == [(obj.base + 16, obj.length - 16)]


def _painted_runs(regions):
    """Maximal runs of the integer points that some region covers."""
    points = {p for base, length in regions for p in range(base, base + length)}
    runs = []
    for p in sorted(points):
        if runs and sum(runs[-1]) == p:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((p, 1))
    return runs


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-40, 160), st.integers(-8, 48)), max_size=12))
@example([(0, 100), (10, 5)])          # containment
@example([(30, 10), (0, 30), (45, 0)])  # touching, unsorted, empty
def test_coalesce_matches_painted_points(regions):
    assert _coalesce(regions) == _painted_runs(regions)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 8).map(lambda k: 16 * k), st.integers(-8, 48)),
                max_size=12).flatmap(lambda rs: st.tuples(st.just(rs), st.permutations(rs))))
@example(([(16, 32), (16, 8)], [(16, 8), (16, 32)]))  # a shared base, both orders
@example(([(0, 16), (16, 0), (16, 24)], [(16, 24), (16, 0), (0, 16)]))
def test_coalesce_ignores_input_order(regions_and_permutation):
    regions, permuted = regions_and_permutation
    assert _coalesce(permuted) == _coalesce(regions)
