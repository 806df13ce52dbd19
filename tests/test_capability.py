import inspect
import os
import random
import struct
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import capsim

from capsim.capability import (
    MASK64,
    CapFault,
    Capability,
    FaultKind,
    Perm,
    PERM_NONE,
    SealMode,
    WordModel,
    capint_binop,
    capint_to_int64,
    check_access,
    int64_to_capint,
    make_root,
    restrict_perms,
    seal_entry,
    set_address,
    set_bounds,
)
from helpers import encoded, untagged

LD = Perm.LOAD
ST = Perm.STORE
EX = Perm.EXECUTE


def cap(base=0x1000, length=0x1000, perms=LD | ST):
    return make_root(base, length, perms)


class TestMakeRoot:
    def test_basic(self):
        c = make_root(0x1000, 0x1000, LD | ST)
        assert c.tag and c.sealed is False
        assert (c.address, c.base, c.top) == (0x1000, 0x1000, 0x2000)
        assert c.perms == LD | ST

    def test_whole_address_space(self):
        c = make_root(0, MASK64, LD | ST | EX)
        assert c.tag and c.top == MASK64

    def test_zero_length(self):
        c = make_root(0x1000, 0, LD)
        assert c.tag and c.length == 0
        with pytest.raises(CapFault) as exc:
            check_access(c, LD, 1, c.address)
        assert exc.value.kind is FaultKind.BOUNDS

    def test_last_byte_of_the_address_space(self):
        c = make_root(MASK64, 1, LD)
        assert c.tag and (c.base, c.top) == (MASK64, 1 << 64)

    def test_overflow_is_construction_error(self):
        with pytest.raises(ValueError):
            make_root(MASK64, 2, LD)


class TestSetBounds:
    def test_narrow(self):
        c = set_bounds(cap(), 0x1200, 0x200)
        assert c.tag and (c.base, c.top, c.address) == (0x1200, 0x1400, 0x1200)

    def test_widen_clears_tag(self):
        narrow = set_bounds(cap(), 0x1200, 0x200)
        wide = set_bounds(narrow, 0x1000, 0x1000)
        assert not wide.tag
        assert (wide.base, wide.top) == (0x1000, 0x2000)

    def test_identity(self):
        c = cap()
        same = set_bounds(c, c.base, c.length)
        assert same.tag and same == c

    def test_untagged_input_stays_untagged(self):
        c = untagged(cap())
        assert not set_bounds(c, c.base + 16, 16).tag

    def test_negative_length_clears_tag(self):
        out = set_bounds(make_root(0, 4096, LD), 64, -32)
        assert not out.tag
        assert (out.base, out.top) == (64, 32)

    def test_sealed_fault_mode(self):
        sealed = seal_entry(make_root(0x1000, 0x100, EX))
        with pytest.raises(CapFault) as exc:
            set_bounds(sealed, 0x1000, 0x10, SealMode.FAULT_ON_MODIFY)
        assert exc.value.kind is FaultKind.SEAL

    def test_sealed_invalidate_mode(self):
        sealed = seal_entry(make_root(0x1000, 0x100, EX))
        out = set_bounds(sealed, 0x1000, 0x10, SealMode.INVALIDATE_ON_MODIFY)
        assert not out.tag


class TestRestrictPerms:
    def test_drop(self):
        c = restrict_perms(cap(perms=LD | ST), LD)
        assert c.tag and c.perms == LD

    def test_widen_clears_tag(self):
        assert not restrict_perms(cap(perms=LD), LD | ST).tag

    def test_identity(self):
        c = cap()
        assert restrict_perms(c, c.perms) == c


class TestSetAddress:
    def test_in_bounds(self):
        c = set_address(cap(), 0x1FF0)
        assert c.tag and c.address == 0x1FF0

    def test_out_of_bounds_keeps_tag(self):
        c = set_address(cap(), 0x5000)
        assert c.tag  # bounds are enforced at access time
        with pytest.raises(CapFault) as exc:
            check_access(c, LD, 1, c.address)
        assert exc.value.kind is FaultKind.BOUNDS

    def test_sealed_fault(self):
        sealed = seal_entry(make_root(0x4000, 0x100, EX))
        with pytest.raises(CapFault) as exc:
            set_address(sealed, 0x5000, SealMode.FAULT_ON_MODIFY)
        assert exc.value.kind is FaultKind.SEAL

    def test_sealed_invalidate(self):
        sealed = seal_entry(make_root(0x4000, 0x100, EX))
        out = set_address(sealed, 0x5000, SealMode.INVALIDATE_ON_MODIFY)
        assert not out.tag and out.address == 0x5000


class TestSealEntry:
    def test_seal_executable(self):
        c = seal_entry(make_root(0x1000, 0x100, EX))
        assert c.tag and c.sealed is True

    def test_no_execute(self):
        assert not seal_entry(make_root(0x1000, 0x100, LD)).tag

    def test_untagged_input(self):
        assert not seal_entry(untagged(make_root(0x1000, 0x100, EX))).tag


class TestCheckAccess:
    def test_bounds_fault_at_edge(self):
        c = set_address(cap(perms=LD), 0x1FF8)
        with pytest.raises(CapFault) as exc:
            check_access(c, LD, 16, c.address)
        assert exc.value.kind is FaultKind.BOUNDS

    def test_untagged_tag_fault(self):
        c = untagged(cap())
        with pytest.raises(CapFault) as exc:
            check_access(c, LD, 8, c.address)
        assert exc.value.kind is FaultKind.TAG

    def test_sealed_seal_fault(self):
        sealed = seal_entry(make_root(0x1000, 0x100, EX))
        with pytest.raises(CapFault) as exc:
            check_access(sealed, LD, 8, sealed.address)
        assert exc.value.kind is FaultKind.SEAL

    def test_permission_fault(self):
        c = cap(perms=LD)
        with pytest.raises(CapFault) as exc:
            check_access(c, ST, 8, c.address)
        assert exc.value.kind is FaultKind.PERMISSION

    def test_fault_ordering(self):
        # construct inputs failing multiple checks; the first failing
        # check in tag -> seal -> permission -> bounds order wins
        sealed = seal_entry(make_root(0x1000, 0x100, EX))
        untagged_sealed_oob = untagged(sealed, address=0x9000)
        with pytest.raises(CapFault) as exc:
            check_access(untagged_sealed_oob, ST, 8, untagged_sealed_oob.address)
        assert exc.value.kind is FaultKind.TAG

        sealed_oob = seal_entry(set_address(make_root(0x1000, 0x100, EX), 0x9000))
        with pytest.raises(CapFault) as exc:
            check_access(sealed_oob, ST, 8, sealed_oob.address)
        assert exc.value.kind is FaultKind.SEAL

        no_perm_oob = set_address(make_root(0x1000, 0x100, LD), 0x9000)
        with pytest.raises(CapFault) as exc:
            check_access(no_perm_oob, ST, 8, no_perm_oob.address)
        assert exc.value.kind is FaultKind.PERMISSION


class TestCapIntOps:
    def test_add_inherits_metadata(self):
        c = cap()
        out = capint_binop(c, 0x20, "add")
        assert out.address == 0x1020
        assert (out.base, out.top, out.perms, out.sealed) == (c.base, c.top, c.perms, c.sealed)
        assert out.tag

    def test_int_lhs_cap_rhs(self):
        c = cap()
        out = capint_binop(0x20, c, "add")
        assert out.address == 0x1020 and out.base == c.base

    @pytest.mark.parametrize("mode", list(SealMode))
    def test_two_caps_take_the_left_operands_metadata(self, mode):
        """The ambiguous-provenance case: the right operand differs in every
        field, and its seal does not matter because it is not the source."""
        left = cap()
        right = seal_entry(make_root(0x3000, 0x100, LD | EX))
        out = capint_binop(left, right, "add", mode)
        assert (out.tag, out.address) == (True, 0x4000)
        assert (out.base, out.top, out.perms, out.sealed) == \
            (left.base, left.top, left.perms, left.sealed)

    def test_sealed_sub_fault_mode(self):
        sealed = seal_entry(make_root(0x4000, 0x100, EX))
        with pytest.raises(CapFault) as exc:
            capint_binop(sealed, 0x10, "sub", SealMode.FAULT_ON_MODIFY)
        assert exc.value.kind is FaultKind.SEAL

    def test_sealed_sub_invalidate_mode(self):
        sealed = seal_entry(make_root(0x4000, 0x100, EX))
        out = capint_binop(sealed, 0x10, "sub", SealMode.INVALIDATE_ON_MODIFY)
        assert not out.tag and out.address == 0x3FF0

    def test_shift_sentinel(self):
        out = capint_binop(cap(), 70, "shl")
        assert out.address == 0
        out = capint_binop(cap(), 64, "shr")
        assert out.address == 0

    def test_shift_below_width(self):
        out = capint_binop(int64_to_capint(1), 63, "shl")
        assert out.address == 1 << 63

    @pytest.mark.parametrize("amount, expected", [(63, MASK64), (64, 0)])
    def test_shr_cut_off_on_a_negative_address(self, amount, expected):
        # set_bounds keeps a negative requested base as the address, and a
        # right shift of it stays -1 until the cut-off at VALUE_WIDTH makes
        # it 0. The shl twin has no such case: -16 << 64 masks to 0 anyway.
        negative = set_bounds(make_root(0, 64, LD), -16, 8)
        assert negative.address == -16
        assert capint_binop(negative, amount, "shr").address == expected

    def test_no_capability_operand_rejected(self):
        with pytest.raises(ValueError, match="at least one operand must be a capability"):
            capint_binop(1, 2, "add")

    @pytest.mark.parametrize("operand", [2.9, 16.0, "16", True, False, None])
    @pytest.mark.parametrize("cap_on_left", [True, False], ids=["rhs", "lhs"])
    def test_non_int_operand_rejected(self, operand, cap_on_left):
        # the rule of check_int: an int that is not a bool, never coerced
        lhs, rhs = (cap(), operand) if cap_on_left else (operand, cap())
        with pytest.raises(ValueError, match="operand must be an int"):
            capint_binop(lhs, rhs, "add")

    def test_to_int64(self):
        sealed = seal_entry(set_address(make_root(0x4000, 0x100, EX), 0x4010))
        assert capint_to_int64(sealed) == 0x4010
        assert capint_to_int64(untagged(cap(), address=0xBEEF)) == 0xBEEF
        assert capint_to_int64(untagged(cap(), address=0)) == 0

    def test_int64_to_capint_is_untagged(self):
        c = int64_to_capint(0x2000)
        assert not c.tag and c.address == 0x2000 and c.perms == PERM_NONE
        with pytest.raises(CapFault) as exc:
            check_access(c, LD, 8, c.address)
        assert exc.value.kind is FaultKind.TAG

    def test_round_trip_loses_tag(self):
        c = cap()
        back = int64_to_capint(capint_to_int64(c))
        assert not back.tag and back.address == c.address


# -- properties ---------------------------------------------------------

perm_sets = st.sampled_from([PERM_NONE, LD, ST, LD | ST, LD | EX, LD | ST | EX])


@st.composite
def root_caps(draw):
    base = draw(st.integers(0, 1 << 32))
    length = draw(st.integers(0, 1 << 20))
    return make_root(base, length, draw(perm_sets))


@given(root_caps(), st.data())
def test_monotonicity_random_chain(c, data):
    for _ in range(8):
        if data.draw(st.booleans()):
            nb = data.draw(st.integers(max(0, c.base - 64), c.top + 64))
            nl = data.draw(st.integers(0, 128))
            nxt = set_bounds(c, nb, nl)
            widened = not (c.base <= nb and nb + nl <= c.top)
        else:
            np_ = data.draw(perm_sets)
            nxt = restrict_perms(c, np_)
            widened = (np_ & c.perms) != np_
        if not c.tag or widened:
            assert not nxt.tag
        if nxt.tag:
            assert c.tag
            assert nxt.base >= c.base and nxt.top <= c.top
            assert (nxt.perms & c.perms) == nxt.perms
        c = nxt


@given(root_caps(), st.integers(0, MASK64), st.integers(0, 128),
       st.sampled_from(["add", "sub", "and", "or", "xor", "shl", "shr"]))
def test_tag_conjuring_impossible(c, addr, arg, op):
    u = untagged(c, address=addr)
    assert not set_bounds(u, u.base, u.length).tag
    assert not restrict_perms(u, PERM_NONE).tag
    assert not set_address(u, addr).tag
    assert not seal_entry(u).tag
    assert not capint_binop(u, arg, op).tag


@given(root_caps(), root_caps(),
       st.sampled_from(["add", "sub", "and", "or", "xor", "shl", "shr"]))
def test_lhs_inheritance(l, r, op):
    out = capint_binop(l, r, op)
    assert (out.base, out.top, out.perms, out.sealed) == (l.base, l.top, l.perms, l.sealed)


@given(root_caps(), st.integers(64, 1 << 20))
def test_shift_sentinel_determinism(c, amount):
    assert capint_binop(c, amount, "shl").address == 0
    assert capint_binop(c, amount, "shr").address == 0


def _address_modifying_ops(c, mode):
    yield lambda: set_bounds(c, c.base, max(0, c.length - 16), mode)
    yield lambda: restrict_perms(c, PERM_NONE, mode)
    yield lambda: set_address(c, c.address + 8, mode)
    yield lambda: capint_binop(c, 8, "add", mode)
    yield lambda: capint_binop(c, 3, "shl", mode)


def test_seal_mode_duality():
    rng = random.Random(7)
    for _ in range(100):
        base = rng.randrange(0, 1 << 32) & ~0xF
        c = seal_entry(set_address(make_root(base, rng.randrange(16, 4096), EX | LD),
                                   base + rng.randrange(0, 16)))
        assert c.tag
        for op in _address_modifying_ops(c, SealMode.FAULT_ON_MODIFY):
            with pytest.raises(CapFault) as exc:
                op()
            assert exc.value.kind is FaultKind.SEAL
        for op in _address_modifying_ops(c, SealMode.INVALIDATE_ON_MODIFY):
            assert not op().tag
        # in both modes the sealed original cannot be dereferenced
        with pytest.raises(CapFault) as exc:
            check_access(c, LD, 1, c.address)
        assert exc.value.kind is FaultKind.SEAL


# -- in-place checks and direct derivations against replace() ----------

ADDRESS_SPACE = 1 << 64
BINOPS = ["add", "sub", "and", "or", "xor", "shl", "shr"]
any_perms = st.sampled_from([PERM_NONE, LD, ST, EX, LD | ST, LD | EX, ST | EX, LD | ST | EX])
seal_modes = st.sampled_from(list(SealMode))


@st.composite
def any_caps(draw):
    """Capabilities in any state: untagged, sealed, any permissions, and
    bounds that may be empty or inverted."""
    base = draw(st.integers(0, MASK64))
    top = draw(st.one_of(st.integers(base, min(base + 256, ADDRESS_SPACE)),
                         st.integers(0, ADDRESS_SPACE)))
    address = draw(st.one_of(st.integers(min(base, top) - 32, max(base, top) + 32),
                             st.integers(0, MASK64)))
    return Capability(tag=draw(st.booleans()), address=address, base=base, top=top,
                      perms=draw(any_perms), sealed=draw(st.booleans()))


def near(c):
    """Addresses around c's bounds, plus ones outside the address space."""
    return st.one_of(st.integers(c.base - 32, c.base + 32), st.integers(c.top - 32, c.top + 32),
                     st.integers(-ADDRESS_SPACE, -1), st.integers(ADDRESS_SPACE, 4 * ADDRESS_SPACE),
                     st.integers(0, MASK64))


class RefFault(Exception):
    """The fault a reference derivation expects, as its own (kind, text)
    pair rather than a `CapFault` worded by capsim."""


def outcome(fn, *args):
    """What a call did: its result, or the kind and text of what it raised."""
    try:
        return ("ok", fn(*args))
    except CapFault as f:
        return ("fault", f.kind, f.detail)
    except RefFault as f:
        return ("fault", *f.args)
    except ValueError as e:
        return ("value", str(e))


@settings(max_examples=400)
@given(any_caps(), st.sampled_from([LD, ST, EX, LD | ST]), st.integers(-2, 64), st.data())
def test_check_access_at_address_matches_moved_capability(c, kind, size, data):
    a = data.draw(near(c))
    moved = replace(c, address=a)
    assert outcome(check_access, c, kind, size, a) == \
        outcome(check_access, moved, kind, size, moved.address)


WHOLE = make_root(0, ADDRESS_SPACE, LD)


@pytest.mark.parametrize("c, kind, size, a, expected", [
    (untagged(cap()), LD, 8, 0x1000, FaultKind.TAG),
    (seal_entry(make_root(0x1000, 0x100, EX | LD)), LD, 8, 0x1010, FaultKind.SEAL),
    (cap(perms=LD), ST, 8, 0x1000, FaultKind.PERMISSION),
    (cap(), LD, 16, 0x1FF8, FaultKind.BOUNDS),
    (cap(), LD, 1, 0xFFF, FaultKind.BOUNDS),
    (cap(), LD, 8, -8, FaultKind.BOUNDS),
    (WHOLE, LD, 8, -1, FaultKind.BOUNDS),
    (WHOLE, LD, 1, ADDRESS_SPACE, FaultKind.BOUNDS),
    (WHOLE, LD, 8, ADDRESS_SPACE - 8, None),
    (cap(), LD, 0, 0x1000, ValueError),
    (untagged(cap()), LD, -1, 0x1000, ValueError),
    (cap(), LD, 8, 0x1008, None),
])
def test_check_access_edge_cases_match_moved_capability(c, kind, size, a, expected):
    got = outcome(check_access, c, kind, size, a)
    moved = replace(c, address=a)
    assert got == outcome(check_access, moved, kind, size, moved.address)
    assert got[0] == {None: "ok", ValueError: "value"}.get(expected, "fault")
    if got[0] == "fault":
        assert got[1] is expected
        if expected is not FaultKind.PERMISSION:  # the only detail without an address
            assert f"{a:#x}" in got[2]


# replace()-based derivations, as capsim.capability wrote them before it
# built results directly; the direct versions must agree on every input

def ref_sealed_modify(cap, mode, what, **changes):
    if mode is SealMode.FAULT_ON_MODIFY:
        raise RefFault(FaultKind.SEAL, f"{what} on sealed capability")
    return replace(cap, tag=False, **changes)


def ref_set_bounds(cap, new_base, new_length, mode):
    new_top = new_base + new_length
    if cap.tag and cap.sealed:
        return ref_sealed_modify(cap, mode, "set_bounds",
                                 address=new_base, base=new_base, top=new_top)
    ok = cap.tag and cap.base <= new_base <= new_top <= cap.top
    return replace(cap, tag=ok, address=new_base, base=new_base, top=new_top)


def ref_restrict_perms(cap, perms, mode):
    if cap.tag and cap.sealed:
        return ref_sealed_modify(cap, mode, "restrict_perms", perms=perms)
    ok = cap.tag and (perms & cap.perms) == perms
    return replace(cap, tag=ok, perms=perms)


def ref_set_address(cap, addr, mode):
    addr &= MASK64
    if cap.tag and cap.sealed:
        return ref_sealed_modify(cap, mode, "set_address", address=addr)
    return replace(cap, address=addr)


def ref_seal_entry(cap):
    ok = cap.tag and not cap.sealed and Perm.EXECUTE in cap.perms
    return replace(cap, tag=ok, sealed=True)


REF_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: 0 if b >= 64 else a << b,
    "shr": lambda a, b: 0 if b >= 64 else a >> b,
}


def ref_capint_binop(lhs, rhs, op, mode):
    lcap, rcap = isinstance(lhs, Capability), isinstance(rhs, Capability)
    source = lhs if lcap else rhs
    a = lhs.address if lcap else lhs & MASK64
    b = rhs.address if rcap else rhs & MASK64
    value = REF_OPS[op](a, b) & MASK64
    if source.tag and source.sealed:
        return ref_sealed_modify(source, mode, f"binop {op}", address=value)
    return replace(source, address=value)


def same_result(got, want):
    """Equal outcomes, and an equal capability has the same field types."""
    assert got == want
    if got[0] == "ok":
        assert [type(getattr(got[1], f.name)) for f in fields(Capability)] == \
            [type(getattr(want[1], f.name)) for f in fields(Capability)]


@settings(max_examples=300)
@given(any_caps(), seal_modes, st.integers(-64, MASK64), st.integers(-64, 512), any_perms,
       st.integers(-ADDRESS_SPACE, 2 * ADDRESS_SPACE))
def test_derivations_match_replace_reference(c, mode, new_base, new_length, perms, addr):
    if new_base <= 512:  # mostly near the source's base, where monotonicity is decided
        new_base += c.base
    same_result(outcome(set_bounds, c, new_base, new_length, mode),
                outcome(ref_set_bounds, c, new_base, new_length, mode))
    same_result(outcome(restrict_perms, c, perms, mode),
                outcome(ref_restrict_perms, c, perms, mode))
    same_result(outcome(set_address, c, addr, mode),
                outcome(ref_set_address, c, addr, mode))
    same_result(outcome(seal_entry, c), outcome(ref_seal_entry, c))


@settings(max_examples=300)
@given(any_caps(), st.one_of(any_caps(), st.integers(-ADDRESS_SPACE, 2 * ADDRESS_SPACE)),
       st.booleans(), st.sampled_from(BINOPS), seal_modes)
# a right shift of a negative address wraps to 64 bits like every other op
@example(set_bounds(make_root(0, 64, LD), -16, 8), 2, True, "shr", SealMode.FAULT_ON_MODIFY)
# a capability on each side: the sealed left operand is the source
@example(seal_entry(make_root(0x4000, 0x100, EX)), cap(), True, "add",
         SealMode.INVALIDATE_ON_MODIFY)
def test_capint_binop_matches_replace_reference(c, other, cap_on_left, op, mode):
    lhs, rhs = (c, other) if cap_on_left else (other, c)
    same_result(outcome(capint_binop, lhs, rhs, op, mode),
                outcome(ref_capint_binop, lhs, rhs, op, mode))


def test_word_model_members_carry_their_storage_size():
    assert (WordModel.PADDED_CAP.storage_bytes, WordModel.PADDED_CAP.storage_bits) == (16, 128)
    assert (WordModel.EXACT64.storage_bytes, WordModel.EXACT64.storage_bits) == (8, 64)
    assert (WordModel.PADDED_CAP.value, WordModel.EXACT64.value) == (16, 8)
    assert WordModel(16) is WordModel.PADDED_CAP
    assert WordModel(8) is WordModel.EXACT64


# -- encode: the 16-byte memory pattern ----------------------------------

ENCODE_SAMPLES = """
from dataclasses import replace
from capsim.capability import Perm, make_root, seal_entry, set_address, int64_to_capint
rwx = Perm.LOAD | Perm.STORE | Perm.EXECUTE
caps = [make_root(0, 1 << 64, rwx), make_root(0x1000, 0x40, Perm.LOAD),
        seal_entry(set_address(make_root(0x2000, 0x100, rwx), 0x2010)),
        replace(make_root(0xFFFF_FFFF_0000, 0x10, Perm.STORE), tag=False),
        int64_to_capint(0xDEADBEEF)]
buf = bytearray(16 * len(caps))
for i, c in enumerate(caps):
    c.encode(buf, 16 * i)
encoded = buf.hex()
"""


def test_encode_is_the_same_under_every_hash_seed():
    src = str(Path(capsim.__file__).resolve().parents[1])
    runs = set()
    for seed in ("0", "1", "2857"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", ENCODE_SAMPLES + "print(encoded)"],
                              env=env, capture_output=True, text=True, check=True)
        runs.add(done.stdout.strip())
    here = {}
    exec(ENCODE_SAMPLES, here)
    assert runs == {here["encoded"]}


@st.composite
def valid_caps(draw):
    base = draw(st.integers(0, MASK64))
    return Capability(tag=draw(st.booleans()), address=draw(st.integers(0, MASK64)), base=base,
                      top=draw(st.integers(base, ADDRESS_SPACE)), perms=draw(any_perms),
                      sealed=draw(st.booleans()))


FIELD_VALUES = {
    "base": st.integers(0, MASK64),
    "top": st.integers(0, ADDRESS_SPACE),
    "perms": any_perms,
    "sealed": st.booleans(),
}


def meta(c):
    return encoded(c)[8:]


@settings(max_examples=300)
@given(valid_caps(), st.sampled_from(sorted(FIELD_VALUES)), st.data())
def test_encode_layout_and_metadata_word(c, field, data):
    enc = encoded(c)
    assert len(enc) == 16 and struct.unpack("<Q", enc[:8])[0] == c.address
    new = data.draw(FIELD_VALUES[field].filter(lambda v: v != getattr(c, field)))
    assert meta(replace(c, **{field: new})) != meta(c)
    # neither the tag nor the address enters the metadata word
    assert meta(replace(c, tag=not c.tag, address=c.address ^ 0xFF)) == meta(c)


@pytest.mark.parametrize("field, a, b", [
    ("base", 0, (1 << 61) - 1),      # equal int hashes: 2**61 - 1 hashes to 0
    ("top", 8, ADDRESS_SPACE),       # 2**64 hashes like 8
    ("top", 0, ADDRESS_SPACE),
    ("base", 0, 1 << 32),
    ("perms", PERM_NONE, LD),
    ("sealed", False, True),
])
def test_encode_metadata_separates_values_with_equal_hashes(field, a, b):
    c = Capability(tag=True, address=0, base=0, top=0x100, perms=LD)
    assert meta(replace(c, **{field: a})) != meta(replace(c, **{field: b}))


GOLDEN_ENCODINGS = {
    "root": (make_root(0x1_2345_6780, 0x40, LD | ST),
             "80674523010000005a0b4b68f1a83a86"),
    "sealed-entry": (seal_entry(set_address(make_root(0x2000, 0x100, LD | ST | EX), 0x2010)),
                     "10200000000000002caf0be406a1acce"),
    "top-2**64": (set_address(make_root(MASK64 - 0xFFFF, 0x1_0000, LD), MASK64 - 0xF),
                  "f0ffffffffffffff97d4d44e7f0ecea3"),  # its top is 2**64
    "int64_to_capint": (int64_to_capint(-2), "feffffffffffffffab155f773b6b9309"),
}


@pytest.mark.parametrize("c, golden", GOLDEN_ENCODINGS.values(), ids=GOLDEN_ENCODINGS)
def test_encode_golden_bytes(c, golden):
    for offset in (0, 16, 21, 48):  # aligned, unaligned, the buffer's last 16 bytes
        buf = bytearray(range(64))
        assert c.encode(buf, offset) is None
        assert buf == bytes(range(offset)) + bytes.fromhex(golden) + bytes(range(offset + 16, 64))


# -- integer permission masks and the slot-store constructor ---------------

PERM_GRID = [Perm(v) for v in range((LD | ST | EX).value + 1)]  # Perm(0) included


def test_check_access_permission_grid_matches_flag_membership():
    for held in PERM_GRID:
        c = make_root(0x1000, 0x100, held)
        for want in PERM_GRID:
            if want in held:  # the Flag reference
                check_access(c, want, 8, 0x1010)
                continue
            with pytest.raises(CapFault) as exc:
                check_access(c, want, 8, 0x1010)
            assert exc.value.kind is FaultKind.PERMISSION, (held, want)
            assert exc.value.detail == f"{want.name} not permitted"


def test_seal_entry_and_restrict_perms_match_flag_membership_on_every_mask():
    """Every held mask, and for `restrict_perms` every wanted mask, on a
    tagged or untagged and a sealed or unsealed input, decides as the Flag
    rule does: `seal_entry` tags only a tagged unsealed input holding
    EXECUTE, and `restrict_perms` keeps the tag of a tagged unsealed input
    only when `want in held`; a tagged sealed input follows the seal mode."""
    for held in PERM_GRID:
        for tag in (True, False):
            for sealed in (False, True):
                c = Capability(tag, 0x1010, 0x1000, 0x1100, held, sealed)
                entry = seal_entry(c)
                assert entry.tag is (tag and not sealed and EX in held), (held, tag, sealed)
                assert entry == replace(c, tag=entry.tag, sealed=True)
                for want in PERM_GRID:
                    for mode in SealMode:
                        if tag and sealed and mode is SealMode.FAULT_ON_MODIFY:
                            with pytest.raises(CapFault) as exc:
                                restrict_perms(c, want, mode)
                            assert exc.value.kind is FaultKind.SEAL
                            continue
                        got = restrict_perms(c, want, mode)
                        assert got.tag is (tag and not sealed and want in held), (held, want, tag)
                        assert got == replace(c, tag=got.tag, perms=want)


def setattr_reference(*values):
    """The instance a frozen dataclass's generated __init__ builds: one
    object.__setattr__ per field."""
    ref = object.__new__(Capability)
    for f, v in zip(fields(Capability), values):
        object.__setattr__(ref, f.name, v)
    return ref


FIELD_NAMES = [f.name for f in fields(Capability)]


@settings(max_examples=300)
@given(st.booleans(), st.integers(-ADDRESS_SPACE, 2 * ADDRESS_SPACE), st.integers(0, MASK64),
       st.integers(0, ADDRESS_SPACE), any_perms, st.booleans())
def test_constructor_matches_setattr_and_replace_reference(tag, address, base, top, perms, sealed):
    values = (tag, address, base, top, perms, sealed)
    ref = setattr_reference(*values)
    built = [
        Capability(*values),
        Capability(**dict(zip(FIELD_NAMES, values))),
        replace(int64_to_capint(0), **dict(zip(FIELD_NAMES, values))),
    ]
    for c in built:
        assert c == ref and hash(c) == hash(ref) and repr(c) == repr(ref)
        assert [getattr(c, name) for name in FIELD_NAMES] == list(values)
    default = Capability(tag, address, base, top, perms)
    assert default.sealed is False
    assert default == setattr_reference(tag, address, base, top, perms, False)
    assert default == replace(ref, sealed=False)


def test_capability_stays_a_frozen_slotted_dataclass():
    c = make_root(0x1000, 0x100, LD)
    assert list(inspect.signature(Capability).parameters) == FIELD_NAMES
    assert not hasattr(c, "__dict__")
    for name in FIELD_NAMES:
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, getattr(c, name))
        with pytest.raises(FrozenInstanceError):
            delattr(c, name)
    with pytest.raises(TypeError):
        Capability(True, 0x1000, 0x1000, 0x1100)  # perms has no default
    assert c == make_root(0x1000, 0x100, LD)
