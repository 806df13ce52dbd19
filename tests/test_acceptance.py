"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (visible with pytest -s)."""
import random
import time

import pytest

from capsim.allocator import CapAllocator, OutOfMemory
from capsim.capability import (
    CapFault,
    FaultKind,
    PERM_NONE,
    Perm,
    SealMode,
    WordModel,
    capint_binop,
    capint_to_int64,
    check_access,
    make_root,
    restrict_perms,
    seal_entry,
    set_address,
    set_bounds,
)
from capsim.memory import PAGE, TaggedMemory
from capsim.scenarios import (
    CATALOGUE,
    ScenarioConfig,
    run_scenario,
)
from capsim.vm import (
    MarkBitmap,
    MiniVm,
    count_utf8_lead_bytes,
    insn_hash_int,
    pad_utf8,
    utf8_lead_oracle,
)

PERM_CHOICES = [Perm.LOAD, Perm.STORE, Perm.LOAD | Perm.STORE,
                Perm.LOAD | Perm.EXECUTE, Perm.LOAD | Perm.STORE | Perm.EXECUTE]


def _report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_pitfall_matrix():
    """All 12 scenarios: fixed is Ok in every applicable config, buggy
    matches the catalogued fault/corruption; full matrix under 10 s."""
    start = time.monotonic()
    cells = 0
    for sid in CATALOGUE:
        seals = list(SealMode) if sid in ("S7", "S8", "S9") else [SealMode.FAULT_ON_MODIFY]
        opts = ["O0", "O1"] if sid == "S9" else ["O0"]
        for mode in ("buggy", "fixed"):
            for seal in seals:
                for opt in opts:
                    cfg = ScenarioConfig(seal_mode=seal, opt_level=opt)
                    rec = run_scenario(sid, mode, cfg)
                    kind, fault = CATALOGUE[sid].expected(mode, cfg)
                    expect = kind.value, fault.value if fault else None
                    got = rec["outcome"]["kind"], rec["outcome"]["fault"]
                    assert got == expect and rec["pass"], (sid, mode, seal, opt, rec)
                    cells += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"matrix took {elapsed:.1f}s"
    assert cells == 34
    _report(f"pitfall matrix ({cells} cells in {elapsed:.2f}s)")


def test_monotonicity_chains():
    """1000 random derivation chains: no tagged result ever widens bounds
    or permissions; every widening attempt clears the tag."""
    rng = random.Random(1)
    for _ in range(1000):
        base = rng.randrange(0, 1 << 32)
        cap = make_root(base, rng.randrange(0, 1 << 16), rng.choice(PERM_CHOICES))
        for _ in range(rng.randrange(1, 10)):
            if rng.random() < 0.5:
                nb = rng.randrange(max(0, cap.base - 64), cap.top + 64)
                nl = rng.randrange(0, 256)
                nxt = set_bounds(cap, nb, nl)
                widening = not (cap.base <= nb and nb + nl <= cap.top)
            else:
                perms = rng.choice(PERM_CHOICES)
                nxt = restrict_perms(cap, perms)
                widening = (perms & cap.perms) != perms
            if widening or not cap.tag:
                assert not nxt.tag
            if nxt.tag:
                assert nxt.base >= cap.base and nxt.top <= cap.top
                assert (nxt.perms & cap.perms) == nxt.perms
            cap = nxt
    _report("monotonicity (1000 chains)")


def test_revocation_completeness():
    """200 randomized alloc/free/copy/revoke interleavings: after every
    revoke an independent full-memory scan finds no tagged capability
    intersecting a formerly quarantined region, and malloc never hands
    out quarantined space."""
    rng = random.Random(2)
    for trial in range(200):
        mem = TaggedMemory(4 * PAGE)
        arena = make_root(0x1000, 0x2000, Perm.LOAD | Perm.STORE)
        alloc = CapAllocator(mem, arena)
        live = []
        for _ in range(rng.randrange(10, 40)):
            action = rng.random()
            if action < 0.45:
                try:
                    c = alloc.malloc(rng.randrange(1, 128))
                except OutOfMemory:
                    continue
                for qb, ql in alloc.quarantine:
                    assert max(c.base, qb) >= min(c.top, qb + ql)
                live.append(c)
            elif action < 0.65 and live:
                # store a copy of a live capability somewhere writable
                holder = rng.choice(live)
                if holder.length >= 16:
                    victim = rng.choice(live)
                    mem.store_cap(holder, holder.base,
                                  set_address(victim, victim.base + rng.randrange(0, 8)))
            elif action < 0.85 and live:
                alloc.free(live.pop(rng.randrange(len(live))))
            else:
                quarantined = list(alloc.quarantine)
                alloc.revoke()
                # independent sweep over every granule in memory
                for addr in range(0, mem.size, 16):
                    if not mem.granule_tag(addr):
                        continue
                    cap = mem.granule_caps[addr]
                    for qb, ql in quarantined:
                        assert max(cap.base, qb) >= min(cap.top, qb + ql), \
                            f"trial {trial}: tagged cap into revoked region"
    _report("revocation completeness (200 interleavings)")


def test_oracle_equivalences():
    """Fixed-path word-parallel UTF-8 count, exact-width mark bitmap, and
    the dispatch hash all agree exactly with their independent oracles."""
    rng = random.Random(3)
    for _ in range(1000):
        raw = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 257)))
        buf = pad_utf8(raw, 8)
        assert count_utf8_lead_bytes(buf, WordModel.EXACT64) == utf8_lead_oracle(buf)
    for _ in range(1000):
        marks = set(rng.sample(range(512), rng.randrange(0, 64)))
        bm = MarkBitmap(512, WordModel.EXACT64)
        naive = [False] * 512
        for i in marks:
            bm.set(i)
            naive[i] = True
        assert bm.bits() == {i for i, v in enumerate(naive) if v}
    assert insn_hash_int(0x1000) == 0x8202
    for _ in range(1000):
        n = rng.getrandbits(64)
        direct = (((n >> 11) | ((n << 3) & ((1 << 64) - 1))) ^ (n >> 3)) & ((1 << 64) - 1)
        assert insn_hash_int(n) == direct
    _report("oracle equivalences (utf8, bitmap, hash)")


def test_scan_soundness():
    """100 randomized stack layouts: the fixed conservative scan marks
    exactly the objects referenced by tagged, unsealed, aligned values."""
    rng = random.Random(4)
    for trial in range(100):
        vm = MiniVm(seed=trial)
        entries = []
        expected = set()
        for _ in range(rng.randrange(1, 30)):
            kind = rng.random()
            if kind < 0.4:
                idx = rng.randrange(0, 128)
                entries.append(("ref", idx))
                expected.add(idx)
            elif kind < 0.6:
                entries.append(("int", vm.object_addr(rng.randrange(0, 128))))
            elif kind < 0.8:
                entries.append(("ret", 0x1000 + rng.randrange(0, 0x1000) & ~0x7))
            else:
                entries.append(("imm", rng.getrandbits(32) | 0x1))
        top = vm.lay_out_stack(entries)
        scan = set_address(vm.stack_cap, top)
        while scan.address < vm.stack_bottom:
            v = vm.mem.load_cap(scan, scan.address)
            vm.gc_mark(v, "fixed")
            scan = set_address(scan, scan.address + 16)
        assert vm.bitmap.bits() == expected, f"trial {trial}"
    _report("scan soundness (100 layouts)")


def test_seal_mode_duality_exhaustive():
    """Every address-modifying operation on a sealed input faults under
    fault-on-modify and returns an untagged value under
    invalidate-on-modify; the original stays non-dereferenceable."""
    rng = random.Random(5)
    ops = [
        lambda c, m: set_bounds(c, c.base, max(0, c.length - 16), m),
        lambda c, m: restrict_perms(c, PERM_NONE, m),
        lambda c, m: set_address(c, (c.address + 8) & ((1 << 64) - 1), m),
        lambda c, m: capint_binop(c, 8, "add", m),
        lambda c, m: capint_binop(c, 8, "sub", m),
        lambda c, m: capint_binop(c, 7, "and", m),
        lambda c, m: capint_binop(c, 1, "or", m),
        lambda c, m: capint_binop(c, 0xFF, "xor", m),
        lambda c, m: capint_binop(c, 3, "shl", m),
        lambda c, m: capint_binop(c, 3, "shr", m),
    ]
    for _ in range(100):
        base = rng.randrange(0, 1 << 32)
        length = rng.randrange(16, 1 << 16)
        sealed = seal_entry(set_address(
            make_root(base, length, Perm.EXECUTE | rng.choice(PERM_CHOICES)),
            base + rng.randrange(0, length)))
        assert sealed.tag
        for op in ops:
            with pytest.raises(CapFault) as exc:
                op(sealed, SealMode.FAULT_ON_MODIFY)
            assert exc.value.kind is FaultKind.SEAL
            assert not op(sealed, SealMode.INVALIDATE_ON_MODIFY).tag
        for mode in SealMode:
            with pytest.raises(CapFault) as exc:
                check_access(sealed, Perm.LOAD, 1, sealed.address)
            assert exc.value.kind is FaultKind.SEAL
    _report("seal-mode duality (10 ops x 100 capabilities)")
