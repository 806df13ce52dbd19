"""Each oracle accepts capsim's real output and rejects a deliberately wrong one."""
import copy
import json
import random

import capsim.cli as cli
from capsim.memory import TaggedMemory

from capbench.oracles import MATRIX_TABLE, check_bytes, check_matrix, check_revoke, revoke_oracle
from capbench.workloads import HeapChurn, Recorder, sweep


def _report(tmp_path, seed=0):
    out = tmp_path / "report.json"
    assert cli.main(["run", "all", "--format", "json", "--seed", str(seed), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_matrix_table_matches_capsim(tmp_path):
    assert len(MATRIX_TABLE) == 34
    assert check_matrix(_report(tmp_path, seed=7)) == []


def test_matrix_oracle_rejects_flipped_fault_kind(tmp_path):
    report = _report(tmp_path)
    bad = copy.deepcopy(report)
    rec = next(r for r in bad["records"] if r["scenario"] == "S1" and r["mode"] == "buggy")
    rec["outcome"]["fault"] = "tag"
    problems = check_matrix(bad)
    assert len(problems) == 1 and "S1" in problems[0]


def test_matrix_oracle_rejects_missing_cell_and_fixed_mismatch(tmp_path):
    bad = copy.deepcopy(_report(tmp_path))
    del bad["records"][0]
    fixed = next(r for r in bad["records"] if r["mode"] == "fixed")
    fixed["outcome"]["actual"] = "something else"
    problems = check_matrix(bad)
    assert any("missing cell" in p for p in problems)
    assert any("expected" in p for p in problems)


def test_revoke_oracle_uses_bounds_intersection():
    slots = [(0, 16), (16, 48), (64, 80), (0, 128)]
    freed = [(32, 64)]
    # (0, 128) has its base outside the freed region but still intersects it
    assert revoke_oracle(slots, freed) == [True, False, True, False]


def test_revoke_oracle_rejects_one_tag_left_set():
    expected = revoke_oracle([(0, 16), (16, 48)], [(32, 64)])
    assert check_revoke(expected, [True, False], 1) == []
    assert check_revoke(expected, [True, True], 1)
    assert check_revoke(expected, [True, False], 2)


def test_revoke_sweep_catches_a_skipped_clear(monkeypatch):
    rec = Recorder()
    sweep(random.Random(1), 64, 32, rec)
    assert rec.attempted == 1 and rec.failed == 0

    original = TaggedMemory.clear_granule_tag
    skipped = []

    def clear_all_but_first(self, addr):
        if not skipped:
            skipped.append(addr)
            return
        original(self, addr)

    monkeypatch.setattr(TaggedMemory, "clear_granule_tag", clear_all_but_first)
    rec = Recorder()
    sweep(random.Random(1), 64, 32, rec)
    assert skipped and rec.failed == 1


def test_byte_oracle_rejects_one_corrupted_byte():
    data = bytes(range(16))
    known = b"\x01" * 15 + b"\x00"
    assert check_bytes(data, known, data) == []
    assert check_bytes(data, known, data[:15] + b"\xff") == []  # never written
    corrupted = data[:3] + b"\xee" + data[4:]
    assert check_bytes(data, known, corrupted) == ["byte 3: 0xee != written 0x03"]


def _churn(seed, ops):
    wl = HeapChurn(seed, "unused")
    wl.per_pass = ops
    rec = Recorder()
    wl.run_pass(0, rec)
    return rec


def test_heap_churn_is_clean_and_repeatable():
    first, second = _churn(3, 4000), _churn(3, 4000)
    assert first.failed == 0 and first.attempted > 4000
    assert first.sim == second.sim
    assert first.sim["sim.churn.tag_faults"] > 0


def test_heap_churn_catches_a_corrupted_byte(monkeypatch):
    original = TaggedMemory.load_bytes

    def corrupt_first_byte(self, authority, addr, n):
        got = original(self, authority, addr, n)
        return bytes([got[0] ^ 0xFF]) + got[1:]

    monkeypatch.setattr(TaggedMemory, "load_bytes", corrupt_first_byte)
    rec = _churn(3, 4000)
    assert rec.failed > 0
    assert any("!= written" in p for p in rec.problems)


def test_recorder_keeps_latencies_in_reference_units():
    rec = Recorder()
    for ns in (1000, 3000, 2000):
        rec.add(ns)
    ref = next(iter(rec.reference_ns))
    assert sum(rec.reference_ns.values()) == 1  # one reference per REF_INTERVAL_NS
    assert rec.count() == 3 and rec.total_ns() == 6000
    assert rec.percentile_ms(50) == 0.002
    assert rec.percentile_ref(50) == (2000 * 1_000_000 // ref) / 1e6
