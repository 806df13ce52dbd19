"""Pitfall scenarios, each in a buggy and a fixed variant.

Every scenario runs on a fresh simulator instance and reports one of
three outcomes: Ok (the fixed idiom succeeded and an independent oracle
agreed), Fault (an architectural fault fired), or Corrupt (the buggy
idiom silently produced a wrong value, reported as expected vs actual).

A scenario is one runner function registered with the `@scenario`
decorator, which records the runner, its catalogue text and the outcome
its buggy variant must produce in each configuration as an
`(OutcomeKind, FaultKind | None)` pair; whether the seal-mode and
opt-level dimensions apply follows from that outcome. `CATALOGUE`, the
dict from id to `Scenario` record in registration order, is the only
registry: the harness and the CLI derive everything from it, and a
record's `expected(mode, cfg)` is the one expectation rule. A runner
takes `(vm, mode, cfg)`, where `vm` is the fresh `MiniVm` that
`run_scenario` builds per run, and returns `(kind, fault, expected,
actual, detail)`. `run_scenario` turns that into the cell's report
record, the one representation of a cell's result: the id, the mode, the
applicable configuration, the outcome as strings, and `pass`, which it
decides against `expected(mode, cfg)`. Each scenario runs on its one
built-in input, drawn from `vm.rng` or fixed in this module.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .capability import (
    MASK64,
    SEAL_MODES,
    CapFault,
    FaultKind,
    Perm,
    SealMode,
    WordModel,
    capint_to_int64,
    check_int,
    int64_to_capint,
    not_a,
    not_one_of,
    set_address,
    set_bounds,
)
from .memory import PAGE, PageProtRequest
from .vm import (
    CODE_BASE,
    HEAP_PAGE_BYTES,
    MODES,
    MiniVm,
    OBJECT_SLOT,
    OPT_LEVELS,
    SHAPE_ID_NUM_BITS,
    STACK_SLOT,
    SymbolEntry,
    MarkBitmap,
    count_utf8_lead_bytes,
    insn_hash_capint,
    insn_hash_int,
    pad_utf8,
    utf8_lead_oracle,
)


class OutcomeKind(Enum):
    OK = "ok"
    FAULT = "fault"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class ScenarioConfig:
    seal_mode: SealMode = SealMode.FAULT_ON_MODIFY
    opt_level: str = "O0"
    seed: int = 0

    def __post_init__(self):
        check_int(self.seed, "seed", 0)
        if self.seal_mode not in SEAL_MODES:
            raise not_one_of("seal mode", SEAL_MODES, self.seal_mode)
        if self.opt_level not in OPT_LEVELS:
            raise not_one_of("opt level", OPT_LEVELS, self.opt_level)


@dataclass(frozen=True)
class Scenario:
    """Everything known about one scenario. `buggy(cfg)` is the outcome
    its buggy variant must produce in `cfg`: `(OK, None)`, `(CORRUPT,
    None)` or `(FAULT, FaultKind)`, checked on creation; the fixed variant
    is always Ok. `runner` is the registered function. A dimension applies
    (`seal_sensitive`, `opt_sensitive`) when changing it alone changes
    what `buggy` returns; both are worked out once, on creation."""
    sid: str
    name: str
    title: str
    category: str
    buggy_expectation: str
    buggy: Callable[[ScenarioConfig], tuple]
    runner: Callable[..., tuple]
    seal_sensitive: bool = field(init=False)
    opt_sensitive: bool = field(init=False)

    def __post_init__(self):
        # one row per opt level, one column per seal mode
        grid = [[self.buggy(ScenarioConfig(s, o)) for s in SealMode] for o in OPT_LEVELS]
        if bad := [e for row in grid for e in row if e not in _EXPECTATIONS]:
            raise ValueError(f"{self.sid}: buggy returned {bad[0]!r}, not an outcome pair")
        object.__setattr__(self, "seal_sensitive", any(len(set(row)) > 1 for row in grid))
        object.__setattr__(self, "opt_sensitive", any(len(set(col)) > 1 for col in zip(*grid)))

    def expected(self, mode: str, cfg: ScenarioConfig) -> tuple:
        """The outcome pair one cell must produce: `buggy(cfg)` for the buggy
        variant, `(OK, None)` for the fixed one. The arguments are taken as
        checked, as `run_scenario` checks them."""
        return self.buggy(cfg) if mode == "buggy" else _OK


CATALOGUE: dict[str, Scenario] = {}


def scenario(sid, name, title, category, buggy_expectation, *, buggy):
    """Register the decorated runner as scenario `sid`."""
    def register(runner):
        CATALOGUE[sid] = Scenario(sid, name, title, category, buggy_expectation,
                                  buggy, runner)
        return runner
    return register


_OK = (OutcomeKind.OK, None)
_CORRUPT = (OutcomeKind.CORRUPT, None)
_BOUNDS = (OutcomeKind.FAULT, FaultKind.BOUNDS)
_TAG = (OutcomeKind.FAULT, FaultKind.TAG)
_SEAL = (OutcomeKind.FAULT, FaultKind.SEAL)
_EXPECTATIONS = (_OK, _CORRUPT, *((OutcomeKind.FAULT, kind) for kind in FaultKind))
_WORD_MODEL = {"buggy": WordModel.PADDED_CAP, "fixed": WordModel.EXACT64}


def _seal_fault_in_fault_mode(cfg: ScenarioConfig) -> tuple:
    return _SEAL if cfg.seal_mode is SealMode.FAULT_ON_MODIFY else _OK


def _fault(f: CapFault, detail: str) -> tuple:
    return OutcomeKind.FAULT, f.kind, None, None, detail


def _check(expected, actual, detail_ok="") -> tuple:
    """Ok if the idiom's result equals the oracle's, else Corrupt."""
    if expected != actual:
        expected, actual = (None if v is None else str(v) for v in (expected, actual))
        return OutcomeKind.CORRUPT, None, expected, actual, ""
    return OutcomeKind.OK, None, None, None, detail_ok


# -- S1: stack scan through a narrowly-bounded derived pointer ----------

@scenario("S1", "stack_scan_bounds", "invalid derived stack-scan pointer",
          "derived pointer", "BoundsFault (iteration 2)", buggy=lambda cfg: _BOUNDS)
def _s1(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    refs = [0, 3, 7]
    entries = [("ref", r) for r in refs] + [("imm", 0x15), ("int", 0x1234)]
    vm.rng.shuffle(entries)
    top = vm.lay_out_stack(entries)

    # buggy: the scan pointer comes from the address of a single stack slot,
    # so its bounds cover only that slot; fixed: from the stack capability
    through = set_bounds(vm.stack_cap, top, STACK_SLOT) if mode == "buggy" else None
    scanned = 0
    try:
        for v in vm.stack_values(top, through):
            scanned += 1
            vm.gc_mark(v, "fixed")
    except CapFault as f:
        return _fault(f, f"iteration {scanned + 1}")
    return _check(sorted(refs), sorted(vm.bitmap.bits()),
                  detail_ok=f"marked {len(refs)} objects")


# -- S2: dereferencing an ambiguous pointer -----------------------------

@scenario("S2", "ambiguous_pointer", "dereferencing an ambiguous pointer",
          "ambiguous pointer", "TagFault", buggy=lambda cfg: _TAG)
def _s2(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    dead = 5  # object reachable only via a pointer-like integer
    live = [1, 4]
    entries = [("ref", r) for r in live] + [("int", vm.object_addr(dead))]
    top = vm.lay_out_stack(entries)

    for v in vm.stack_values(top):
        try:
            vm.gc_mark(v, mode)
        except CapFault as f:
            return _fault(f, f"marking value @{v.address:#x}")
    return _check(sorted(live), sorted(vm.bitmap.bits()),
                  detail_ok="dead object left unmarked")


# -- S3: in-place reallocation keeps the stale narrow capability --------

@scenario("S3", "inplace_realloc", "stale capability after in-place realloc",
          "reallocation", "BoundsFault", buggy=lambda cfg: _BOUNDS)
def _s3(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    old_size, new_size = 64, 128
    chunk = vm.alloc.malloc(old_size)
    first = vm.rng.randbytes(old_size)
    vm.mem.store_bytes(chunk, chunk.base, first)

    grown = vm.alloc.realloc(chunk, new_size)
    second = vm.rng.randbytes(new_size - old_size)

    writer = chunk if mode == "buggy" else grown
    try:
        vm.mem.store_bytes(writer, chunk.base + old_size, second)
    except CapFault as f:
        return _fault(f, "write into the grown area via the old capability")
    got = vm.mem.load_bytes(grown, grown.base, new_size)
    return _check((first + second).hex(), got.hex(),
                  detail_ok="grown chunk readable end to end")


# -- S4: mark bitmap indexed by storage size, not value width -----------

DEFAULT_MARK_SET = {3, 70, 127}


@scenario("S4", "bitmap_padding", "mark bitmap indexed over padding bits",
          "integer padding", "Corrupt (dropped bits)", buggy=lambda cfg: _CORRUPT)
def _s4(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    marks = DEFAULT_MARK_SET | set(vm.rng.sample(range(HEAP_PAGE_BYTES // OBJECT_SLOT), 8))
    bitmap = MarkBitmap(HEAP_PAGE_BYTES // OBJECT_SLOT, _WORD_MODEL[mode])
    for i in sorted(marks):
        bitmap.set(i)
    return _check(sorted(marks), sorted(bitmap.bits()),
                  detail_ok=f"{len(marks)} bits set and read back")


# -- S5: shape id shifted past the value width --------------------------

@scenario("S5", "shape_id", "shape id shifted past the value width",
          "integer padding", "Corrupt (shape reads back 0)", buggy=lambda cfg: _CORRUPT)
def _s5(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    shape_id = vm.rng.randrange(1, 1 << SHAPE_ID_NUM_BITS)
    shift = _WORD_MODEL[mode].storage_bits - SHAPE_ID_NUM_BITS

    header = vm.object_addr(0)
    flags = 0x19  # pre-existing low flag bits
    vm.mem.store_bytes(vm.heap_page, header, struct.pack("<Q", flags))

    # install: flags |= shape_id << shift, through capability arithmetic
    word = struct.unpack("<Q", vm.mem.load_bytes(vm.heap_page, header, 8))[0]
    mask = vm.binop(int64_to_capint(shape_id), shift, "shl")
    word = (word | mask.address) & MASK64
    vm.mem.store_bytes(vm.heap_page, header, struct.pack("<Q", word))

    # read back
    word = struct.unpack("<Q", vm.mem.load_bytes(vm.heap_page, header, 8))[0]
    got = vm.binop(int64_to_capint(word), shift, "shr").address & ((1 << SHAPE_ID_NUM_BITS) - 1)
    return _check(shape_id, got, detail_ok=f"shape id {shape_id:#x} round-tripped")


# -- S6: word-parallel UTF-8 lead-byte count over padded words ----------

DEFAULT_S6_TEXT = "héllo wörld, naïve café, héllo wörld!"


@scenario("S6", "utf8_count", "word-parallel UTF-8 count over padded words",
          "integer padding", "Corrupt (undercount)", buggy=lambda cfg: _CORRUPT)
def _s6(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    model = _WORD_MODEL[mode]
    buf = pad_utf8(DEFAULT_S6_TEXT.encode(), model.storage_bytes)
    chunk = vm.alloc.malloc(len(buf))
    vm.mem.store_bytes(chunk, chunk.base, buf)
    stored = vm.mem.load_bytes(chunk, chunk.base, len(buf))
    got = count_utf8_lead_bytes(stored, model)
    return _check(utf8_lead_oracle(buf), got, detail_ok=f"counted {got} lead bytes")


# -- S7: symbol search subtracts from a sealed return address -----------

SYMBOL_TABLE = (
    SymbolEntry("init", 0x100, 0x80),
    SymbolEntry("eval", 0x180, 0x200),
    SymbolEntry("parse", 0x380, 0x40),
)


def _find_symbol_oracle(addr: int) -> str | None:
    for sym in SYMBOL_TABLE:
        start = CODE_BASE + sym.st_value
        if start <= addr < start + sym.st_size:
            return sym.name
    return None


@scenario("S7", "backtrace_symbols", "symbol search on sealed return address",
          "sealed capability", "SealFault (fault mode) / Ok (invalidate mode)",
          buggy=_seal_fault_in_fault_mode)
def _s7(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    trace_addr = vm.return_address(CODE_BASE + 0x1A0)
    found = None
    for sym in SYMBOL_TABLE:
        saddr = (CODE_BASE + sym.st_value) & MASK64
        if mode == "buggy":
            try:
                d = vm.binop(trace_addr, saddr, "sub")
            except CapFault as f:
                return _fault(f, f"distance computation for {sym.name}")
            dist = d.address
        else:
            dist = (capint_to_int64(trace_addr) - saddr) & MASK64
        if dist < sym.st_size:
            found = sym.name
            break
    return _check(_find_symbol_oracle(trace_addr.address), found,
                  detail_ok=f"symbol {found}")


# -- S8: hashing a sealed dispatch-table capability ---------------------

@scenario("S8", "insn_hash", "hashing a sealed dispatch capability",
          "sealed capability", "SealFault (fault mode) / Ok (invalidate mode)",
          buggy=_seal_fault_in_fault_mode)
def _s8(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    addr = CODE_BASE + 0x40
    dispatch = vm.return_address(addr)  # sealed entry, like any code pointer
    oracle = insn_hash_int(addr)
    if mode == "buggy":
        try:
            h = insn_hash_capint(dispatch, vm.seal_mode)
        except CapFault as f:
            return _fault(f, "hash of sealed dispatch capability")
        got = h.address
    else:
        got = insn_hash_int(capint_to_int64(dispatch))
    return _check(f"{oracle:#x}", f"{got:#x}", detail_ok=f"hash {got:#x}")


# -- S9: immediate test on a sealed return address ----------------------

@scenario("S9", "immediate_test_sealed", "immediate test on a sealed return address",
          "sealed capability", "SealFault (O0 + fault mode) / Ok otherwise",
          buggy=lambda cfg: _seal_fault_in_fault_mode(cfg) if cfg.opt_level == "O0" else _OK)
def _s9(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    refs = [2, 6]
    entries = [("ref", r) for r in refs] + [("ret", CODE_BASE + 0x180), ("imm", 0x2B)]
    vm.rng.shuffle(entries)
    top = vm.lay_out_stack(entries)

    for v in vm.stack_values(top):
        try:
            if not vm.vm_immediate_p(v, mode, cfg.opt_level):
                vm.gc_mark(v, "fixed")
        except CapFault as f:
            return _fault(f, "immediate test created a sealed temporary")
    return _check(sorted(refs), sorted(vm.bitmap.bits()),
                  detail_ok="return address skipped, references marked")


# -- S10: container downcast through a plain integer type ---------------

@scenario("S10", "downcast_sizet", "container downcast via a plain integer",
          "integer cast", "TagFault", buggy=lambda cfg: _TAG)
def _s10(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    member_offset = 24  # fixed record-layout constant
    rec = vm.alloc.malloc(64)
    planted = vm.rng.getrandbits(64)
    vm.mem.store_bytes(rec, rec.base, struct.pack("<Q", planted))
    w = set_address(rec, rec.base + member_offset, vm.seal_mode)

    if mode == "buggy":
        # pointer arithmetic on a non-capability integer: the cast back
        # yields an invalid capability
        n = (capint_to_int64(w) - member_offset) & MASK64
        container = int64_to_capint(n)
    else:
        container = vm.binop(w, member_offset, "sub")
    try:
        got = struct.unpack("<Q", vm.mem.load_bytes(container, container.address, 8))[0]
    except CapFault as f:
        return _fault(f, "field load through the recovered container pointer")
    return _check(f"{planted:#x}", f"{got:#x}", detail_ok="container field recovered")


# -- S11: page protection strips validity tags --------------------------

@scenario("S11", "mprotect_tags", "page protection invalidates stored tags",
          "page protection", "TagFault", buggy=lambda cfg: _TAG)
def _s11(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    slot = vm.heap_page.base  # page-aligned granule inside the heap page
    stored = vm.object_ref(3)
    vm.mem.store_cap(vm.heap_page, slot, stored)

    vm.mem.mprotect(PageProtRequest(vm.heap_page.base, PAGE, Perm(0)))
    vm.mem.mprotect(PageProtRequest(vm.heap_page.base, PAGE,
                                    Perm.LOAD | Perm.STORE,
                                    prot_cap=(mode == "fixed")))
    loaded = vm.mem.load_cap(vm.heap_page, slot)
    try:
        vm.mem.load_bytes(loaded, loaded.address, 8)
    except CapFault as f:
        return _fault(f, "dereference of the reloaded capability")
    return _check(True, loaded == stored,
                  detail_ok="capability survived the protection cycle")


# -- S12: context creation truncates capability arguments ---------------

@scenario("S12", "makecontext_args", "context copy truncates capability arguments",
          "context arguments", "TagFault", buggy=lambda cfg: _TAG)
def _s12(vm: MiniVm, mode: str, cfg: ScenarioConfig) -> tuple:
    ctx = vm.alloc.malloc(64)
    arg = vm.object_ref(9)
    header = vm.rng.getrandbits(64)
    vm.mem.store_bytes(vm.heap_page, arg.address, struct.pack("<Q", header))

    if mode == "buggy":
        # the argument is copied into the context as a 64-bit integer
        vm.mem.store_bytes(ctx, ctx.base, struct.pack("<Q", arg.address))
    else:
        vm.mem.store_cap(ctx, ctx.base, arg)

    # the callee later picks the argument up from the context
    received = vm.mem.load_cap(ctx, ctx.base)
    try:
        got = struct.unpack("<Q", vm.mem.load_bytes(received, received.address, 8))[0]
    except CapFault as f:
        return _fault(f, "callee dereference of the copied argument")
    return _check(f"{header:#x}", f"{got:#x}",
                  detail_ok="argument survived the context copy")


def run_scenario(sid: str, mode: str, config: ScenarioConfig | None = None) -> dict:
    """Run one scenario variant on a fresh simulator instance and return
    the cell's report record, the one `run_matrix` appends: `pass` says
    whether its kind and fault are the pair `Scenario.expected` gives.
    `config` `None` means the default; an unknown id or mode and a config
    that is not a `ScenarioConfig` raise `ValueError`."""
    if not (isinstance(sid, str) and sid in CATALOGUE):
        raise not_one_of("scenario id", tuple(CATALOGUE), sid)
    if mode not in MODES:
        raise not_one_of("mode", MODES, mode)
    cfg = ScenarioConfig() if config is None else config
    if not isinstance(cfg, ScenarioConfig):
        raise not_a("config", ScenarioConfig, config)
    record = CATALOGUE[sid]
    vm = MiniVm(cfg.seal_mode, cfg.seed)
    kind, fault, expected, actual, detail = record.runner(vm, mode, cfg)
    return {
        "scenario": sid,
        "mode": mode,
        "seal_mode": cfg.seal_mode._value_ if record.seal_sensitive else None,
        "opt_level": cfg.opt_level if record.opt_sensitive else None,
        "outcome": {  # `_value_` skips the enum's `value` descriptor
            "kind": kind._value_,
            "fault": fault._value_ if fault else None,
            "expected": expected,
            "actual": actual,
            "detail": detail,
        },
        "pass": (kind, fault) == record.expected(mode, cfg),
    }
