import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from capsim.allocator import AllocError
from capsim.capability import (
    CapFault,
    FaultKind,
    Perm,
    SealMode,
    WordModel,
    int64_to_capint,
    make_root,
    restrict_perms,
    seal_entry,
    set_address,
    set_bounds,
)
from capsim.vm import (
    HEAP_BASE,
    HEAP_PAGE_BYTES,
    HEAP_SIZE,
    IMMEDIATE_MASK,
    STACK_BASE,
    STACK_SIZE,
    STACK_SLOT,
    MarkBitmap,
    MiniVm,
    count_utf8_lead_bytes,
    insn_hash_capint,
    insn_hash_int,
    pad_utf8,
    utf8_lead_oracle,
)
from helpers import untagged


class TestImmediateTest:
    def test_low_bits_set(self):
        vm = MiniVm()
        assert vm.vm_immediate_p(int64_to_capint(0x1005), "fixed")

    def test_aligned_address(self):
        vm = MiniVm()
        assert not vm.vm_immediate_p(int64_to_capint(0x1008), "fixed")

    def test_sealed_buggy_o0_faults(self):
        vm = MiniVm(SealMode.FAULT_ON_MODIFY)
        ret = vm.return_address(0x1100)
        with pytest.raises(CapFault) as exc:
            vm.vm_immediate_p(ret, "buggy", "O0")
        assert exc.value.kind is FaultKind.SEAL

    def test_sealed_buggy_o1_ok(self):
        vm = MiniVm(SealMode.FAULT_ON_MODIFY)
        assert not vm.vm_immediate_p(vm.return_address(0x1100), "buggy", "O1")

    def test_sealed_fixed_ok(self):
        vm = MiniVm(SealMode.FAULT_ON_MODIFY)
        assert not vm.vm_immediate_p(vm.return_address(0x1100), "fixed")

    def test_sealed_buggy_o0_invalidate_ok(self):
        vm = MiniVm(SealMode.INVALIDATE_ON_MODIFY)
        assert not vm.vm_immediate_p(vm.return_address(0x1100), "buggy", "O0")


class TestGcMark:
    def test_tagged_ref_marked(self):
        vm = MiniVm()
        assert vm.gc_mark(vm.object_ref(4), "fixed")
        assert vm.bitmap.bits() == {4}

    def test_pointer_like_integer_buggy_faults(self):
        vm = MiniVm()
        decoy = int64_to_capint(vm.object_addr(4))
        with pytest.raises(CapFault) as exc:
            vm.gc_mark(decoy, "buggy")
        assert exc.value.kind is FaultKind.TAG

    def test_pointer_like_integer_fixed_skipped(self):
        vm = MiniVm()
        decoy = int64_to_capint(vm.object_addr(4))
        assert not vm.gc_mark(decoy, "fixed")
        assert vm.bitmap.bits() == set()

    def test_immediate_skipped(self):
        vm = MiniVm()
        assert not vm.gc_mark(int64_to_capint(0x15), "buggy")

    def test_sealed_value_skipped_by_fixed(self):
        vm = MiniVm()
        assert not vm.gc_mark(vm.return_address(0x1100), "fixed")


class TestMarkBitmap:
    def test_exact64_round_trip(self):
        bm = MarkBitmap(128, WordModel.EXACT64)
        for i in (0, 63, 64, 127):
            bm.set(i)
        assert bm.bits() == {0, 63, 64, 127}

    def test_padded_drops_high_offsets(self):
        bm = MarkBitmap(128, WordModel.PADDED_CAP)
        for i in (3, 70, 127):
            bm.set(i)
        assert bm.bits() == {3}

    def test_padded_restricted_oracle_property(self):
        rng = random.Random(11)
        # marks 63 and 64 sit on either side of a word's padding boundary
        cases = [{63}, {64}, set(range(60, 70))]
        cases += [set(rng.sample(range(512), rng.randrange(1, 40))) for _ in range(200)]
        for marks in cases:
            bm = MarkBitmap(512, WordModel.PADDED_CAP)
            for i in marks:
                bm.set(i)
            assert bm.bits() == {i for i in marks if i % 128 < 64}

    def test_exact64_equals_naive_array_property(self):
        rng = random.Random(12)
        for _ in range(200):
            marks = set(rng.sample(range(512), rng.randrange(1, 40)))
            bm = MarkBitmap(512, WordModel.EXACT64)
            naive = [False] * 512
            for i in marks:
                bm.set(i)
                naive[i] = True
            assert bm.bits() == {i for i, v in enumerate(naive) if v}

    @pytest.mark.parametrize("model", list(WordModel), ids=lambda m: m.name)
    def test_index_outside_the_words_raises(self, model):
        bm = MarkBitmap(128, model)
        past = len(bm.words) * model.storage_bits
        for i in (-1, -128, past, 300):
            with pytest.raises(ValueError):
                bm.set(i)
            with pytest.raises(ValueError):
                bm.test(i)
        assert bm.words == [0] * len(bm.words) and bm.bits() == set()

    def test_words_are_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            MarkBitmap(8, WordModel.EXACT64, [1])


class TestUtf8Count:
    def test_hello_with_accent(self):
        buf = pad_utf8("héllo".encode(), 8)
        assert count_utf8_lead_bytes(buf, WordModel.EXACT64) == 5

    def test_oracle_agrees_exact64(self):
        rng = random.Random(13)
        for _ in range(300):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 256)))
            buf = pad_utf8(raw, 8)
            assert count_utf8_lead_bytes(buf, WordModel.EXACT64) == utf8_lead_oracle(buf)

    def test_padded_counts_only_low_half_words(self):
        rng = random.Random(14)
        # 8 bytes fill a word's data half, and a 9th lands in its padding
        cases = [b"abcdefgh", b"abcdefghi"]
        cases += [bytes(rng.randrange(256) for _ in range(rng.randrange(0, 256)))
                  for _ in range(300)]
        for raw in cases:
            buf = pad_utf8(raw, 16)
            skipped_half = bytes(b for i, b in enumerate(buf) if i % 16 < 8)
            assert count_utf8_lead_bytes(buf, WordModel.PADDED_CAP) \
                == utf8_lead_oracle(skipped_half)

    def test_padding_is_neutral(self):
        raw = "héllo".encode()
        assert utf8_lead_oracle(pad_utf8(raw, 16)) == utf8_lead_oracle(raw)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview], ids=lambda t: t.__name__)
    def test_oracle_is_the_per_byte_rule_on_every_byte(self, wrap):
        for b in range(256):
            assert utf8_lead_oracle(wrap(bytes([b]))) == ((b >> 6) != 0b10)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview], ids=lambda t: t.__name__)
    def test_oracle_is_the_per_byte_rule_on_random_buffers(self, wrap):
        rng = random.Random(15)
        for _ in range(300):
            buf = rng.randbytes(rng.randrange(0, 300))
            assert utf8_lead_oracle(wrap(buf)) == sum((b >> 6) != 0b10 for b in buf)


class TestInsnHash:
    def test_spot_value(self):
        assert insn_hash_int(0x1000) == 0x8202

    def test_sealed_fault_mode(self):
        vm = MiniVm(SealMode.FAULT_ON_MODIFY)
        with pytest.raises(CapFault) as exc:
            insn_hash_capint(vm.return_address(0x1000), SealMode.FAULT_ON_MODIFY)
        assert exc.value.kind is FaultKind.SEAL

    @settings(max_examples=300)
    @given(st.integers(0, (1 << 64) - 1), st.sampled_from(list(SealMode)))
    @example(0x1000, SealMode.INVALIDATE_ON_MODIFY)
    @example(0x1040, SealMode.INVALIDATE_ON_MODIFY)
    @example(0x1FF8, SealMode.INVALIDATE_ON_MODIFY)
    @example(0x1000, SealMode.FAULT_ON_MODIFY)
    @example(0, SealMode.FAULT_ON_MODIFY)
    @example((1 << 64) - 1, SealMode.INVALIDATE_ON_MODIFY)
    def test_capint_path_equals_int_path(self, addr, seal):
        """The hash of a sealed return address is the plain hash of its
        address under invalidate, and a seal fault under fault."""
        sealed = MiniVm(seal).return_address(addr)
        if seal is SealMode.INVALIDATE_ON_MODIFY:
            assert insn_hash_capint(sealed, seal).address == insn_hash_int(addr)
        else:
            with pytest.raises(CapFault) as exc:
                insn_hash_capint(sealed, seal)
            assert exc.value.kind is FaultKind.SEAL


def test_object_refs_have_page_wide_bounds():
    vm = MiniVm()
    ref = vm.object_ref(5)
    assert (ref.base, ref.top) == (vm.heap_page.base, vm.heap_page.top)
    assert ref.address % 32 == 0 and (ref.address & IMMEDIATE_MASK) == 0


def test_the_heap_page_is_one_shared_root_outside_the_arena():
    vm = MiniVm()
    assert "heap_page" in MiniVm.__dict__ and vm.heap_page is MiniVm.heap_page
    assert MiniVm.heap_page == make_root(HEAP_BASE, HEAP_PAGE_BYTES, Perm.LOAD | Perm.STORE)
    assert (vm.arena_cap.base, vm.arena_cap.top) == (HEAP_BASE + HEAP_PAGE_BYTES,
                                                     HEAP_BASE + HEAP_SIZE)
    assert vm.mem.size == HEAP_BASE + HEAP_SIZE  # memory ends where the heap ends


def test_a_fresh_vm_allocates_first_at_the_end_of_the_heap_page():
    vm = MiniVm()
    assert vm.alloc.live == {} and vm.alloc.quarantine == []
    first = vm.alloc.malloc(1)
    assert (first.base, first.address) == (HEAP_BASE + HEAP_PAGE_BYTES,) * 2


def test_the_heap_page_is_not_an_allocation():
    vm = MiniVm()
    with pytest.raises(AllocError):
        vm.alloc.free(vm.heap_page)
    with pytest.raises(AllocError):
        vm.alloc.realloc(vm.heap_page, 16)


def test_stack_values_yields_each_slot_from_top_to_bottom():
    vm = MiniVm()
    top = vm.lay_out_stack([("ref", 3), ("int", 0x1234), ("ret", 0x1180)])
    ref, num, ret = vm.stack_values(top)
    assert ref == vm.object_ref(3)
    assert not num.tag and num.address == 0x1234
    assert ret == vm.return_address(0x1180)
    assert list(vm.stack_values(vm.stack_bottom)) == []


SEALED_STACK = seal_entry(make_root(STACK_BASE, STACK_SIZE, Perm.LOAD | Perm.EXECUTE))


@pytest.mark.parametrize("top, through, error, message", [
    (None, 1, ValueError, "^capability must be a Capability, not 1$"),
    ("x", None, ValueError, "address must be an int"),
    (True, None, ValueError, "address must be an int"),
    (None, SEALED_STACK, CapFault, "seal fault"),
], ids=["through-int", "top-str", "top-bool", "through-sealed"])
def test_stack_values_raises_its_input_errors_at_the_first_next(top, through, error, message):
    """`stack_values` is a generator: the call returns without checking, and
    the first `next()` raises."""
    vm = MiniVm(SealMode.FAULT_ON_MODIFY)
    slots = vm.lay_out_stack([("int", 1)])
    values = vm.stack_values(slots if top is None else top, through)
    with pytest.raises(error, match=message):
        next(values)


def _moving_scan(vm, top, through):
    """Reference stack scan: a pointer moved one slot at a time with
    `set_address`, each load at the pointer's own address."""
    scan = set_address(vm.stack_cap if through is None else through, top, vm.seal_mode)
    while scan.address < vm.stack_bottom:
        yield vm.mem.load_cap(scan, scan.address)
        scan = set_address(scan, scan.address + STACK_SLOT, vm.seal_mode)


def _drain(values):
    """(values yielded, (fault kind, message) or None) of one scan."""
    got = []
    try:
        for v in values:
            got.append(v)
    except CapFault as f:
        return got, (f.kind, str(f))
    return got, None


STACK_BOTTOM = STACK_BASE + STACK_SIZE
ENTRY = st.one_of(st.tuples(st.just("ref"), st.integers(0, 127)),
                  st.tuples(st.sampled_from(["int", "imm"]), st.integers(0, (1 << 64) - 1)),
                  st.tuples(st.just("ret"), st.integers(0x1000, 0x1FF0)))
THROUGH = {
    "default": st.none(),
    "narrowed": st.builds(lambda base, length: set_bounds(MiniVm.stack_cap, base, length),
                          st.integers(STACK_BASE - 32, STACK_BOTTOM), st.integers(0, 256)),
    "restricted": st.sampled_from([Perm(0), Perm.LOAD, Perm.STORE, Perm.EXECUTE,
                                   Perm.LOAD | Perm.EXECUTE]).map(
                      lambda perms: restrict_perms(MiniVm.stack_cap, perms)),
    "sealed": st.just(seal_entry(make_root(STACK_BASE, STACK_SIZE, Perm.LOAD | Perm.EXECUTE))),
    "untagged": st.just(untagged(MiniVm.stack_cap)),
}
TOP = {
    "aligned": st.integers(0, STACK_SIZE // STACK_SLOT).map(lambda i: STACK_BASE + i * STACK_SLOT),
    "unaligned": st.integers(STACK_BASE, STACK_BOTTOM).filter(lambda a: a % STACK_SLOT),
    "at-or-above-bottom": st.integers(STACK_BOTTOM, STACK_BOTTOM + 256),
    "below-stack": st.integers(STACK_BASE - 256, STACK_BASE - 1),
    "negative": st.integers(-(1 << 64), -1),
}


@settings(max_examples=200)
@given(st.sampled_from(list(SealMode)), st.lists(ENTRY, max_size=8),
       st.sampled_from(sorted(THROUGH)).flatmap(THROUGH.get),
       st.sampled_from(sorted(TOP)).flatmap(TOP.get))
def test_stack_values_matches_a_scan_that_moves_its_pointer(seal, entries, through, top):
    """Checking each load at its slot's address yields the same values and
    raises the same fault, kind and message, as moving the scan pointer to
    each slot first."""
    vm = MiniVm(seal)
    vm.lay_out_stack(entries)
    assert _drain(vm.stack_values(top, through)) == _drain(_moving_scan(vm, top, through))


def test_vms_built_in_a_row_share_no_mutable_state():
    """Only the immutable roots are shared: stores, allocations and marks
    made in one VM never show in the next."""
    used, fresh = MiniVm(SealMode.INVALIDATE_ON_MODIFY), MiniVm(SealMode.INVALIDATE_ON_MODIFY)
    assert (used.code_cap, used.stack_cap, used.heap_page, used.arena_cap) \
        == (fresh.code_cap, fresh.stack_cap, fresh.heap_page, fresh.arena_cap)
    alloc = fresh.alloc
    before = (dict(alloc.live), alloc.free_list[:], fresh.bitmap.words[:])

    top = used.lay_out_stack([("ref", 3), ("int", 0x1234)])
    chunk = used.alloc.malloc(64)
    used.mem.store_bytes(chunk, chunk.base, b"\xab" * 64)
    used.gc_mark(used.object_ref(5), "fixed")
    assert used.bitmap.bits() == {5}

    assert list(fresh.mem.iter_tagged()) == []
    assert [v.address for v in fresh.stack_values(top)] == [0, 0]
    assert fresh.mem.load_bytes(fresh.arena_cap, chunk.base, 64) == bytes(64)
    assert (alloc.live, alloc.free_list, fresh.bitmap.words) == before
    assert alloc.malloc(64) == chunk


def test_rng_is_the_seeds_stream_whatever_other_vms_drew():
    first, second = MiniVm(seed=41), MiniVm(seed=41)
    first.rng.random()
    first.rng.shuffle(list(range(10)))
    reference = random.Random(41)
    assert second.rng is second.rng
    assert [second.rng.getrandbits(64) for _ in range(5)] \
        == [reference.getrandbits(64) for _ in range(5)]


def test_return_address_is_sealed_entry():
    vm = MiniVm()
    ret = vm.return_address(0x1234)
    assert ret.tag and ret.sealed is True


@settings(max_examples=300)
@given(st.sampled_from(list(WordModel)), st.integers(1, 300), st.data())
def test_mark_bitmap_bits_matches_per_bit_test(model, nbits, data):
    """bits() read from the words equals the set of indices below nbits
    that test() reports, after set() calls or raw words of any value; the
    indices past nbits that still land in the last word are rejected."""
    bm = MarkBitmap(nbits, model)
    last = len(bm.words) * model.storage_bits - 1
    for i in data.draw(st.lists(st.integers(0, nbits - 1), max_size=40)):
        bm.set(i)
    for i in range(nbits, last + 1):
        with pytest.raises(ValueError):
            bm.set(i)
        with pytest.raises(ValueError):
            bm.test(i)
    if data.draw(st.booleans()):
        bm.words = data.draw(st.lists(st.integers(-(1 << 130), 1 << 130),
                                      min_size=len(bm.words), max_size=len(bm.words)))
    assert bm.bits() == {i for i in range(nbits) if bm.test(i)}
