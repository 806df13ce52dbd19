import random
import re
from pathlib import Path

import pytest

from capsim.capability import FaultKind, SealMode
from capsim.harness import RunSpec, _configs_for, run_matrix
from capsim.vm import CODE_BASE, MiniVm, SymbolEntry
from capsim import scenarios
from capsim.scenarios import (
    CATALOGUE,
    MODES,
    OutcomeKind,
    ScenarioConfig,
    run_scenario,
    scenario,
)

FAULT = ScenarioConfig(seal_mode=SealMode.FAULT_ON_MODIFY)
INVALIDATE = ScenarioConfig(seal_mode=SealMode.INVALIDATE_ON_MODIFY)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario("S99", "buggy")
    with pytest.raises(ValueError):
        run_scenario("S1", "weird")


@pytest.mark.parametrize("field", [{"seal_mode": "fault"}, {"opt_level": "O7"}],
                         ids=["seal_mode", "opt_level"])
def test_config_rejects_an_unknown_dimension_value(field):
    with pytest.raises(ValueError):
        ScenarioConfig(**field)


# a seed must be an int: anything else would run unreproducibly (None),
# pass as another value (True is 1) or fail only in a runner that draws
NON_INT_SEEDS = [None, True, False, [1], 1.0, "1"]
# random.Random(-n) draws the stream of n, so a negative seed would run
# another seed's data under its own name
NEGATIVE_SEEDS = [-1, -7, -(1 << 64)]
EVERY_SEED_TAKER = pytest.mark.parametrize(
    "make", [lambda seed: ScenarioConfig(seed=seed),
             lambda seed: RunSpec(seed=seed),
             lambda seed: MiniVm(seed=seed)],
    ids=["ScenarioConfig", "RunSpec", "MiniVm"])


@EVERY_SEED_TAKER
@pytest.mark.parametrize("seed", NON_INT_SEEDS, ids=repr)
def test_a_non_int_seed_is_rejected(make, seed):
    with pytest.raises(ValueError, match="seed must be an int"):
        make(seed)


@EVERY_SEED_TAKER
@pytest.mark.parametrize("seed", NEGATIVE_SEEDS, ids=repr)
def test_a_negative_seed_is_rejected(make, seed):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        make(seed)


def test_scenarios_that_never_draw_build_no_random_generator(monkeypatch):
    built = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)
    monkeypatch.setattr(random, "Random", CountingRandom)
    cfg = ScenarioConfig(seed=3)
    for sid in ("S2", "S6", "S7", "S8", "S11"):
        for mode in MODES:
            run_scenario(sid, mode, cfg)
    assert built == []
    run_scenario("S5", "buggy", cfg)
    assert built == [3]


def test_each_run_builds_one_vm_from_its_config(monkeypatch):
    built = []
    init = MiniVm.__init__

    def recording_init(self, seal_mode, seed):
        built.append((seal_mode, seed))
        init(self, seal_mode, seed)
    monkeypatch.setattr(MiniVm, "__init__", recording_init)
    cfg = ScenarioConfig(seal_mode=SealMode.INVALIDATE_ON_MODIFY, seed=7)
    for sid in CATALOGUE:
        for mode in ("buggy", "fixed"):
            built.clear()
            run_scenario(sid, mode, cfg)
            assert built == [(SealMode.INVALIDATE_ON_MODIFY, 7)], (sid, mode)


def test_s1_buggy_bounds_fault_on_iteration_2():
    out = run_scenario("S1", "buggy")["outcome"]
    assert out["kind"] == "fault" and out["fault"] == "bounds"
    assert out["detail"] == "iteration 2"


def test_s2_buggy_tag_fault():
    out = run_scenario("S2", "buggy")["outcome"]
    assert out["kind"] == "fault" and out["fault"] == "tag"


def test_s3_buggy_bounds_fault():
    out = run_scenario("S3", "buggy")["outcome"]
    assert out["kind"] == "fault" and out["fault"] == "bounds"


def test_s4_buggy_drops_high_offsets():
    # seed 0 draws 8 marks beside the fixed 3, 70 and 127; the padded
    # bitmap keeps only those in the low 64 bits of its one 128-bit word
    out = run_scenario("S4", "buggy")["outcome"]
    assert out["kind"] == "corrupt"
    assert out["expected"] == str([3, 10, 66, 70, 77, 98, 103, 107, 122, 124, 127])
    assert out["actual"] == str([3, 10])


def test_s4_fixed_matches_oracle():
    out = run_scenario("S4", "fixed")["outcome"]
    assert out["kind"] == "ok" and out["detail"] == "11 bits set and read back"


def test_s5_buggy_shape_reads_back_zero():
    out = run_scenario("S5", "buggy")["outcome"]
    assert out["kind"] == "corrupt" and out["actual"] == "0"


def test_s6_fixed_counts_one_lead_byte_per_character():
    out = run_scenario("S6", "fixed")["outcome"]
    assert len(scenarios.DEFAULT_S6_TEXT) == 37
    assert out["kind"] == "ok" and out["detail"] == "counted 37 lead bytes"


@pytest.mark.parametrize("config", [{}, 0, "x", SealMode.FAULT_ON_MODIFY],
                         ids=["empty-dict", "zero", "str", "seal-mode"])
def test_a_config_that_is_not_a_scenario_config_raises_value_error(config):
    with pytest.raises(ValueError, match="^config must be a ScenarioConfig, not "):
        run_scenario("S7", "buggy", config)


def test_no_config_means_the_default_config():
    rec = run_scenario("S7", "buggy", None)
    assert rec == run_scenario("S7", "buggy", ScenarioConfig())
    assert (rec["outcome"]["kind"], rec["outcome"]["fault"]) == ("fault", "seal")


def test_s6_buggy_undercounts():
    out = run_scenario("S6", "buggy")["outcome"]
    assert out["kind"] == "corrupt"
    assert int(out["actual"]) < int(out["expected"])


def test_s7_seal_modes():
    out = run_scenario("S7", "buggy", FAULT)["outcome"]
    assert out["kind"] == "fault" and out["fault"] == "seal"
    out = run_scenario("S7", "buggy", INVALIDATE)["outcome"]
    assert out["kind"] == "ok" and "eval" in out["detail"]
    for cfg in (FAULT, INVALIDATE):
        assert run_scenario("S7", "fixed", cfg)["outcome"]["kind"] == "ok"


@pytest.mark.parametrize("sym", scenarios.SYMBOL_TABLE, ids=lambda sym: sym.name)
def test_the_symbol_oracle_holds_a_symbol_from_its_start_to_its_last_byte(sym):
    start = CODE_BASE + sym.st_value
    end = start + sym.st_size
    assert scenarios._find_symbol_oracle(start) == sym.name
    assert scenarios._find_symbol_oracle(end - 1) == sym.name
    assert scenarios._find_symbol_oracle(start - 1) != sym.name
    assert scenarios._find_symbol_oracle(end) != sym.name


@pytest.mark.parametrize("mode, cfg", [("fixed", FAULT), ("buggy", INVALIDATE)])
def test_s7_a_symbol_ending_at_the_traced_address_does_not_hold_it(monkeypatch, mode, cfg):
    # S7 traces CODE_BASE + 0x1A0, one past the end of "before"
    monkeypatch.setattr(scenarios, "SYMBOL_TABLE",
                        (SymbolEntry("before", 0x180, 0x20), SymbolEntry("at", 0x1A0, 0x10)))
    out = run_scenario("S7", mode, cfg)["outcome"]
    assert out["kind"] == "ok" and out["detail"] == "symbol at"


def test_s8_spot_hash():
    # S8 hashes the dispatch entry at CODE_BASE + 0x40 = 0x1040
    out = run_scenario("S8", "fixed")["outcome"]
    assert out["kind"] == "ok" and out["detail"] == "hash 0x800a"


def test_s8_invalidate_mode_hash_matches_fixed():
    buggy = run_scenario("S8", "buggy", INVALIDATE)["outcome"]
    fixed = run_scenario("S8", "fixed", INVALIDATE)["outcome"]
    assert buggy["kind"] == "ok" and fixed["kind"] == "ok"
    assert buggy["detail"] == fixed["detail"]


def test_s9_matrix():
    cases = {
        ("buggy", "O0", SealMode.FAULT_ON_MODIFY): ("fault", "seal"),
        ("buggy", "O0", SealMode.INVALIDATE_ON_MODIFY): ("ok", None),
        ("buggy", "O1", SealMode.FAULT_ON_MODIFY): ("ok", None),
        ("buggy", "O1", SealMode.INVALIDATE_ON_MODIFY): ("ok", None),
        ("fixed", "O0", SealMode.FAULT_ON_MODIFY): ("ok", None),
        ("fixed", "O1", SealMode.INVALIDATE_ON_MODIFY): ("ok", None),
    }
    for (mode, opt, seal), expect in cases.items():
        out = run_scenario("S9", mode, ScenarioConfig(seal_mode=seal, opt_level=opt))["outcome"]
        assert (out["kind"], out["fault"]) == expect, (mode, opt, seal, out)


def test_s10_buggy_tag_fault_fixed_recovers():
    out = run_scenario("S10", "buggy")["outcome"]
    assert out["kind"] == "fault" and out["fault"] == "tag"
    assert run_scenario("S10", "fixed")["outcome"]["kind"] == "ok"


def test_s11_prot_cap_matrix():
    out = run_scenario("S11", "buggy")["outcome"]
    assert out["kind"] == "fault" and out["fault"] == "tag"
    assert run_scenario("S11", "fixed")["outcome"]["kind"] == "ok"


def test_s12_truncating_copy():
    out = run_scenario("S12", "buggy")["outcome"]
    assert out["kind"] == "fault" and out["fault"] == "tag"
    assert run_scenario("S12", "fixed")["outcome"]["kind"] == "ok"


def test_all_fixed_runs_ok_every_config():
    for sid in CATALOGUE:
        for seal in SealMode:
            for opt in ("O0", "O1"):
                cfg = ScenarioConfig(seal_mode=seal, opt_level=opt)
                out = run_scenario(sid, "fixed", cfg)["outcome"]
                assert out["kind"] == "ok", (sid, seal, opt, out)


def test_determinism():
    for sid in CATALOGUE:
        for mode in ("buggy", "fixed"):
            cfg = ScenarioConfig(seal_mode=SealMode.FAULT_ON_MODIFY, seed=99)
            assert run_scenario(sid, mode, cfg) == run_scenario(sid, mode, cfg)


def test_seeds_change_data_not_outcome_kind():
    for seed in (0, 1, 2, 17):
        cfg = ScenarioConfig(seed=seed)
        assert run_scenario("S4", "buggy", cfg)["outcome"]["kind"] == "corrupt"
        assert run_scenario("S10", "fixed", cfg)["outcome"]["kind"] == "ok"


def test_conservatism_gap():
    # an object reachable only through a pointer-like integer is marked
    # by neither variant: buggy faults, fixed skips it
    buggy = run_scenario("S2", "buggy")["outcome"]
    fixed = run_scenario("S2", "fixed")["outcome"]
    assert buggy["kind"] == "fault"
    assert fixed["kind"] == "ok" and "unmarked" in fixed["detail"]


def test_run_matrix_records_are_run_scenarios_records():
    # a cell has one representation: `run_matrix` appends what
    # `run_scenario` returns, and copies or rebuilds none of it
    spec = RunSpec(seed=7)
    cells = [(sid, mode, cfg) for sid, record in CATALOGUE.items()
             for mode in MODES for cfg in _configs_for(record, spec)]
    assert run_matrix(spec)["records"] == [run_scenario(*cell) for cell in cells]


# every faulting cell of `run_matrix(RunSpec())` at seed 0, in report order
FAULTING_CELLS_AT_SEED_0 = [
    # scenario, mode, seal_mode, opt_level, fault, detail
    ("S1", "buggy", None, None, "bounds", "iteration 2"),
    ("S2", "buggy", None, None, "tag", "marking value @0x40a0"),
    ("S3", "buggy", None, None, "bounds", "write into the grown area via the old capability"),
    ("S7", "buggy", "fault", None, "seal", "distance computation for init"),
    ("S8", "buggy", "fault", None, "seal", "hash of sealed dispatch capability"),
    ("S9", "buggy", "fault", "O0", "seal", "immediate test created a sealed temporary"),
    ("S10", "buggy", None, None, "tag", "field load through the recovered container pointer"),
    ("S11", "buggy", None, None, "tag", "dereference of the reloaded capability"),
    ("S12", "buggy", None, None, "tag", "callee dereference of the copied argument"),
]


def test_the_faulting_cells_at_seed_0_are_pinned():
    rows = [(r["scenario"], r["mode"], r["seal_mode"], r["opt_level"],
             r["outcome"]["fault"], r["outcome"]["detail"])
            for r in run_matrix(RunSpec())["records"] if r["outcome"]["kind"] == "fault"]
    assert rows == FAULTING_CELLS_AT_SEED_0


def test_catalogue_complete():
    for record in CATALOGUE.values():
        for mode in ("buggy", "fixed"):
            assert record.expected(mode, ScenarioConfig()) in scenarios._EXPECTATIONS


def test_the_catalogue_holds_the_twelve_scenarios_in_registration_order():
    assert list(CATALOGUE) == [f"S{i}" for i in range(1, 13)]
    assert all(sid == record.sid for sid, record in CATALOGUE.items())


NOT_OUTCOME_PAIRS = {
    "string-ok": ("ok",),
    "string-fault": ("fault", FaultKind.TAG),
    "string-corrupt": ("corrupt",),
    "fault-without-kind": (OutcomeKind.FAULT, None),
    "ok-with-kind": (OutcomeKind.OK, FaultKind.TAG),
    "fault-kind-as-string": (OutcomeKind.FAULT, "tag"),
    "list": [OutcomeKind.OK, None],
}


@pytest.mark.parametrize("expectation", NOT_OUTCOME_PAIRS.values(), ids=NOT_OUTCOME_PAIRS)
def test_a_buggy_expectation_that_is_not_an_outcome_pair_fails_to_register(
        monkeypatch, expectation):
    monkeypatch.setattr(scenarios, "CATALOGUE", {})
    register = scenario("S13", "stale", "an old-style expectation", "test", "Ok",
                        buggy=lambda cfg: expectation)
    with pytest.raises(ValueError, match="^S13: buggy returned"):
        register(lambda vm, mode, cfg: None)
    assert scenarios.CATALOGUE == {}


def test_dimension_flags_follow_the_buggy_expectation():
    flags = {sid: (r.seal_sensitive, r.opt_sensitive) for sid, r in CATALOGUE.items()}
    assert flags == {sid: (sid in ("S7", "S8", "S9"), sid == "S9") for sid in CATALOGUE}


OUTCOME_NAMES = {
    (OutcomeKind.FAULT, FaultKind.BOUNDS): "BoundsFault",
    (OutcomeKind.FAULT, FaultKind.TAG): "TagFault",
    (OutcomeKind.FAULT, FaultKind.SEAL): "SealFault",
    (OutcomeKind.CORRUPT, None): "Corrupt",
    (OutcomeKind.OK, None): "Ok",
}


@pytest.mark.parametrize("sid", list(CATALOGUE))
def test_buggy_expectation_text_names_the_buggy_outcomes(sid):
    record = CATALOGUE[sid]
    yielded = {OUTCOME_NAMES[record.buggy(cfg)] for cfg in _configs_for(record, RunSpec())}
    named = set(re.findall(r"\b(?:%s)\b" % "|".join(OUTCOME_NAMES.values()),
                           record.buggy_expectation))
    assert named == yielded


def test_readme_scenario_table_lists_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|\s*(S\d+)\s*\|[^|\n]*\|\s*(.*?)\s*\|$", section, flags=re.M)
    assert rows == [(sid, r.buggy_expectation) for sid, r in CATALOGUE.items()]
