import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from capsim.capability import (
    CapFault,
    FaultKind,
    SealMode,
    WordModel,
    capint_to_int64,
    int64_to_capint,
)
from capsim.vm import (
    IMMEDIATE_MASK,
    MarkBitmap,
    MiniVm,
    count_utf8_lead_bytes,
    insn_hash_capint,
    insn_hash_int,
    pad_utf8,
    utf8_lead_oracle,
)


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
        assert vm.marked_objects() == {4}

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
        assert vm.marked_objects() == set()

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
        for _ in range(200):
            marks = set(rng.sample(range(512), rng.randrange(1, 40)))
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
        for _ in range(300):
            raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 256)))
            buf = pad_utf8(raw, 16)
            skipped_half = bytes(b for i, b in enumerate(buf) if i % 16 < 8)
            assert count_utf8_lead_bytes(buf, WordModel.PADDED_CAP) \
                == utf8_lead_oracle(skipped_half)

    def test_padding_is_neutral(self):
        raw = "héllo".encode()
        assert utf8_lead_oracle(pad_utf8(raw, 16)) == utf8_lead_oracle(raw)


class TestInsnHash:
    def test_spot_value(self):
        assert insn_hash_int(0x1000) == 0x8202

    def test_capint_path_equals_int_path(self):
        vm = MiniVm(SealMode.INVALIDATE_ON_MODIFY)
        for addr in (0x1000, 0x1040, 0x1FF8):
            sealed = vm.return_address(addr)
            h = insn_hash_capint(sealed, SealMode.INVALIDATE_ON_MODIFY)
            assert h.address == insn_hash_int(capint_to_int64(sealed))

    def test_sealed_fault_mode(self):
        vm = MiniVm(SealMode.FAULT_ON_MODIFY)
        with pytest.raises(CapFault) as exc:
            insn_hash_capint(vm.return_address(0x1000), SealMode.FAULT_ON_MODIFY)
        assert exc.value.kind is FaultKind.SEAL


def test_object_refs_have_page_wide_bounds():
    vm = MiniVm()
    ref = vm.object_ref(5)
    assert (ref.base, ref.top) == (vm.heap_page.base, vm.heap_page.top)
    assert ref.address % 32 == 0 and (ref.address & IMMEDIATE_MASK) == 0


def test_stack_values_yields_each_slot_from_top_to_bottom():
    vm = MiniVm()
    top = vm.lay_out_stack([("ref", 3), ("int", 0x1234), ("ret", 0x1180)])
    ref, num, ret = vm.stack_values(top)
    assert ref == vm.object_ref(3)
    assert not num.tag and num.address == 0x1234
    assert ret == vm.return_address(0x1180)
    assert list(vm.stack_values(vm.stack_bottom)) == []


def test_return_address_is_sealed_entry():
    vm = MiniVm()
    ret = vm.return_address(0x1234)
    assert ret.tag and ret.seal.value == "sealed_entry"


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
