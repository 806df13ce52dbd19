import re
from pathlib import Path

import pytest

from capsim.capability import FaultKind, SealMode
from capsim.harness import RunSpec, _configs_for
from capsim.vm import MiniVm
from capsim.scenarios import (
    CATALOGUE,
    SCENARIO_IDS,
    OutcomeKind,
    ScenarioConfig,
    expected_outcome,
    outcome_matches,
    run_scenario,
)

FAULT = ScenarioConfig(seal_mode=SealMode.FAULT_ON_MODIFY)
INVALIDATE = ScenarioConfig(seal_mode=SealMode.INVALIDATE_ON_MODIFY)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_scenario("S99", "buggy")
    with pytest.raises(ValueError):
        run_scenario("S1", "weird")


def test_expected_outcome_rejects_an_unknown_mode():
    with pytest.raises(ValueError):
        expected_outcome("S1", "weird", ScenarioConfig())


@pytest.mark.parametrize("field", [{"seal_mode": "fault"}, {"opt_level": "O7"}],
                         ids=["seal_mode", "opt_level"])
def test_config_rejects_an_unknown_dimension_value(field):
    with pytest.raises(ValueError):
        ScenarioConfig(**field)


def test_each_run_builds_one_vm_from_its_config(monkeypatch):
    built = []
    init = MiniVm.__init__

    def recording_init(self, seal_mode, seed):
        built.append((seal_mode, seed))
        init(self, seal_mode, seed)
    monkeypatch.setattr(MiniVm, "__init__", recording_init)
    cfg = ScenarioConfig(seal_mode=SealMode.INVALIDATE_ON_MODIFY, seed=7)
    for sid in SCENARIO_IDS:
        for mode in ("buggy", "fixed"):
            built.clear()
            run_scenario(sid, mode, cfg)
            assert built == [(SealMode.INVALIDATE_ON_MODIFY, 7)], (sid, mode)


def test_s1_buggy_bounds_fault_on_iteration_2():
    out = run_scenario("S1", "buggy")
    assert out.kind is OutcomeKind.FAULT and out.fault is FaultKind.BOUNDS
    assert out.detail == "iteration 2"


def test_s2_buggy_tag_fault():
    out = run_scenario("S2", "buggy")
    assert out.kind is OutcomeKind.FAULT and out.fault is FaultKind.TAG


def test_s3_buggy_bounds_fault():
    out = run_scenario("S3", "buggy")
    assert out.kind is OutcomeKind.FAULT and out.fault is FaultKind.BOUNDS


def test_s4_buggy_drops_high_offsets():
    out = run_scenario("S4", "buggy", payload={3, 70, 127})
    assert out.kind is OutcomeKind.CORRUPT
    assert out.expected == str([3, 70, 127])
    assert out.actual == str([3])


def test_s4_fixed_matches_oracle():
    out = run_scenario("S4", "fixed", payload={3, 70, 127})
    assert out.kind is OutcomeKind.OK


def test_s5_buggy_shape_reads_back_zero():
    out = run_scenario("S5", "buggy")
    assert out.kind is OutcomeKind.CORRUPT and out.actual == "0"


def test_s6_fixed_hello_counts_5():
    out = run_scenario("S6", "fixed", payload="héllo")
    assert out.kind is OutcomeKind.OK and "counted 5" in out.detail


@pytest.mark.parametrize("payload", ["", b""], ids=["str", "bytes"])
def test_s6_rejects_an_empty_payload(payload):
    with pytest.raises(ValueError):
        run_scenario("S6", "fixed", payload=payload)


def test_s6_buggy_undercounts():
    out = run_scenario("S6", "buggy")
    assert out.kind is OutcomeKind.CORRUPT
    assert int(out.actual) < int(out.expected)


def test_s7_seal_modes():
    out = run_scenario("S7", "buggy", FAULT)
    assert out.kind is OutcomeKind.FAULT and out.fault is FaultKind.SEAL
    out = run_scenario("S7", "buggy", INVALIDATE)
    assert out.kind is OutcomeKind.OK and "eval" in out.detail
    for cfg in (FAULT, INVALIDATE):
        assert run_scenario("S7", "fixed", cfg).kind is OutcomeKind.OK


def test_s8_spot_hash():
    out = run_scenario("S8", "fixed", payload=0x1000)
    assert out.kind is OutcomeKind.OK and "0x8202" in out.detail


def test_s8_invalidate_mode_hash_matches_fixed():
    buggy = run_scenario("S8", "buggy", INVALIDATE)
    fixed = run_scenario("S8", "fixed", INVALIDATE)
    assert buggy.kind is OutcomeKind.OK and fixed.kind is OutcomeKind.OK
    assert buggy.detail == fixed.detail


def test_s9_matrix():
    cases = {
        ("buggy", "O0", SealMode.FAULT_ON_MODIFY): ("fault", FaultKind.SEAL),
        ("buggy", "O0", SealMode.INVALIDATE_ON_MODIFY): ("ok",),
        ("buggy", "O1", SealMode.FAULT_ON_MODIFY): ("ok",),
        ("buggy", "O1", SealMode.INVALIDATE_ON_MODIFY): ("ok",),
        ("fixed", "O0", SealMode.FAULT_ON_MODIFY): ("ok",),
        ("fixed", "O1", SealMode.INVALIDATE_ON_MODIFY): ("ok",),
    }
    for (mode, opt, seal), expect in cases.items():
        out = run_scenario("S9", mode, ScenarioConfig(seal_mode=seal, opt_level=opt))
        assert outcome_matches(out, expect), (mode, opt, seal, out)


def test_s10_buggy_tag_fault_fixed_recovers():
    out = run_scenario("S10", "buggy")
    assert out.kind is OutcomeKind.FAULT and out.fault is FaultKind.TAG
    assert run_scenario("S10", "fixed").kind is OutcomeKind.OK


def test_s11_prot_cap_matrix():
    out = run_scenario("S11", "buggy")
    assert out.kind is OutcomeKind.FAULT and out.fault is FaultKind.TAG
    assert run_scenario("S11", "fixed").kind is OutcomeKind.OK


def test_s12_truncating_copy():
    out = run_scenario("S12", "buggy")
    assert out.kind is OutcomeKind.FAULT and out.fault is FaultKind.TAG
    assert run_scenario("S12", "fixed").kind is OutcomeKind.OK


def test_all_fixed_runs_ok_every_config():
    for sid in SCENARIO_IDS:
        for seal in SealMode:
            for opt in ("O0", "O1"):
                cfg = ScenarioConfig(seal_mode=seal, opt_level=opt)
                out = run_scenario(sid, "fixed", cfg)
                assert out.kind is OutcomeKind.OK, (sid, seal, opt, out)


def test_determinism():
    for sid in SCENARIO_IDS:
        for mode in ("buggy", "fixed"):
            cfg = ScenarioConfig(seal_mode=SealMode.FAULT_ON_MODIFY, seed=99)
            assert run_scenario(sid, mode, cfg) == run_scenario(sid, mode, cfg)


def test_seeds_change_data_not_outcome_kind():
    for seed in (0, 1, 2, 17):
        cfg = ScenarioConfig(seed=seed)
        assert run_scenario("S4", "buggy", cfg).kind is OutcomeKind.CORRUPT
        assert run_scenario("S10", "fixed", cfg).kind is OutcomeKind.OK


def test_conservatism_gap():
    # an object reachable only through a pointer-like integer is marked
    # by neither variant: buggy faults, fixed skips it
    buggy = run_scenario("S2", "buggy")
    fixed = run_scenario("S2", "fixed")
    assert buggy.kind is OutcomeKind.FAULT
    assert fixed.kind is OutcomeKind.OK and "unmarked" in fixed.detail


def test_catalogue_complete():
    assert set(CATALOGUE) == set(SCENARIO_IDS)
    for sid in SCENARIO_IDS:
        for mode in ("buggy", "fixed"):
            expected_outcome(sid, mode, ScenarioConfig())


def test_scenario_ids_is_a_live_view_of_the_registry():
    assert list(SCENARIO_IDS) == [f"S{i}" for i in range(1, 13)] == list(CATALOGUE)
    assert "S7" in SCENARIO_IDS and "S13" not in SCENARIO_IDS
    assert len(SCENARIO_IDS) == 12 and set(SCENARIO_IDS) == set(CATALOGUE)
    with pytest.raises(TypeError):
        SCENARIO_IDS[0]
    assert all(sid == record.sid for sid, record in CATALOGUE.items())


OUTCOME_NAMES = {
    ("fault", FaultKind.BOUNDS): "BoundsFault",
    ("fault", FaultKind.TAG): "TagFault",
    ("fault", FaultKind.SEAL): "SealFault",
    ("corrupt",): "Corrupt",
    ("ok",): "Ok",
}


@pytest.mark.parametrize("sid", list(SCENARIO_IDS))
def test_buggy_expectation_text_names_the_buggy_outcomes(sid):
    record = CATALOGUE[sid]
    yielded = {OUTCOME_NAMES[record.buggy(cfg)] for cfg in _configs_for(record, RunSpec())}
    named = set(re.findall(r"\b(?:%s)\b" % "|".join(OUTCOME_NAMES.values()),
                           record.buggy_expectation))
    assert named == yielded


def test_readme_scenario_table_lists_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Scenarios\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\|\s*(S\d+)\s*\|", section, flags=re.M) == list(SCENARIO_IDS)
