"""Desk-scale simulator of a capability memory model (tagged fat
pointers, tagged memory, quarantine allocator) plus a miniature VM layer
that reproduces classic VM-porting pitfalls in buggy and fixed form."""

__version__ = "0.1.0"

from .allocator import AllocError, CapAllocator, OutOfMemory
from .capability import (
    CapFault,
    Capability,
    FaultKind,
    Perm,
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
from .memory import GRANULE, PAGE, PageProtRequest, TaggedMemory
from .scenarios import (
    CATALOGUE,
    OutcomeKind,
    ScenarioConfig,
    run_scenario,
)
from .vm import MarkBitmap, MiniVm, SymbolEntry, count_utf8_lead_bytes
