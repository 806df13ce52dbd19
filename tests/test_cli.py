import hashlib
import json
import os
import stat

import pytest

from capsim import cli
from capsim.capability import CapFault, FaultKind, SealMode
from capsim.cli import EXIT_FAILURES, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from capsim.harness import RunSpec, run_matrix
from capsim.scenarios import CATALOGUE, OutcomeKind, Scenario, scenario
from capsim.vm import CODE_BASE


def test_list_has_twelve_rows(capsys):
    assert main(["list"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 13  # header + 12 scenarios
    assert lines[1].startswith("S1 ")


def test_list_mentions_seal_mode_expectations(capsys):
    main(["list"])
    out = capsys.readouterr().out
    for sid in ("S7", "S8", "S9"):
        row = next(l for l in out.splitlines() if l.startswith(sid + " "))
        assert "fault mode" in row and "Ok" in row


def test_list_stable(capsys):
    main(["list"])
    first = capsys.readouterr().out
    main(["list"])
    assert capsys.readouterr().out == first


def test_run_all_passes(capsys):
    rc = main(["run", "all", "--mode", "both", "--seal-semantics", "both",
               "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert report["summary"]["failed"] == 0
    assert report["summary"]["total"] == report["summary"]["passed"]


def test_run_single_buggy_corrupt_passes(capsys):
    rc = main(["run", "S4", "--mode", "buggy", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    (record,) = report["records"]
    assert record["outcome"]["kind"] == "corrupt"
    assert record["pass"] is True
    assert record["seal_mode"] is None and record["opt_level"] is None


def test_unknown_id_usage_error(capsys):
    assert main(["run", "S99"]) == EXIT_USAGE


def test_bad_flag_usage_error():
    assert main(["run", "all", "--mode", "bogus"]) == EXIT_USAGE


def test_negative_seed_is_a_usage_error(capsys):
    # seed -7 would draw seed 7's stream while the report said -7
    assert main(["run", "all", "--seed", "-7"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be non-negative, not -7\n"


def test_json_round_trips():
    report = run_matrix(RunSpec(scenarios=("S1", "S7"), seed=5))
    assert json.loads(json.dumps(report)) == report


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    rc = main(["run", "S1", "--format", "json", "--out", str(path)])
    assert rc == EXIT_OK
    report = json.loads(path.read_text())
    assert {r["scenario"] for r in report["records"]} == {"S1"}


def test_exit_status_soundness():
    # exit 0 iff every record passes; the full matrix passes, so force a
    # failing record by checking the flag the CLI keys on
    report = run_matrix(RunSpec())
    assert all(r["pass"] for r in report["records"])


def test_record_schema():
    report = run_matrix(RunSpec(scenarios=("S9",)))
    for r in report["records"]:
        assert set(r) == {"scenario", "mode", "seal_mode", "opt_level",
                          "outcome", "pass"}
        assert set(r["outcome"]) == {"kind", "fault", "expected", "actual",
                                     "detail"}


# sha256 of `capsim run all --format FMT --seed SEED` as printed to stdout.
# The report stays byte-identical unless a schema change is intended and
# documented; update these only together with such a change.
REPORT_SHA256 = {
    ("json", 0): "229840428aa510902fb91bfb7b116af4047a5d667f681cbe398d2968f48bed16",
    ("json", 5): "938a5cd4913c5d196461154845f4a8047077165c5fa5f6ecc41cc9c070d8e2dc",
    ("json", 11): "9b47a8a1a5dd52ec7e9126f4df62f170b1f03d1f0a9a47c2771f007c68ae3222",
    ("json", 1234): "85a0bb36d34f341c9a580477cb36102f24509cc4d2a5f8a65c8a77a3c70955aa",
    ("text", 0): "b328798687ef4c85cc0f4e0aac3c9f90152551e4ee2e42dc5a40683d9809264e",
}
# sha256 of `capsim list` as printed to stdout; the catalogue text changes
# only together with this digest.
LIST_SHA256 = "c56917ce94e88ff9c982cf6685b536823ed81bcdbf51f8b6d5fa519a61230bea"

S1_JSON = ["run", "S1", "--format", "json"]


def _stdout_of(argv, capsys) -> bytes:
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("fmt, seed", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(fmt, seed, tmp_path, capsys):
    argv = ["run", "all", "--format", fmt, "--seed", str(seed)]
    printed = _stdout_of(argv, capsys)
    assert hashlib.sha256(printed).hexdigest() == REPORT_SHA256[fmt, seed]
    path = tmp_path / "report"  # a longer old report must leave no tail
    path.write_bytes(b"#" * (len(printed) + 4096))
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    assert path.read_bytes() == printed


# (flag, RunSpec field, record field, {value: cells in `run all`})
RUN_DIMENSIONS = [
    ("--mode", "mode", "mode", {"buggy": 17, "fixed": 17, "both": 34}),
    ("--seal-semantics", "seal_semantics", "seal_mode",
     {"fault": 26, "invalidate": 26, "both": 34}),
    ("--opt-level", "opt_level", "opt_level", {"O0": 30, "O1": 30, "both": 34}),
]


@pytest.mark.parametrize("flag, spec_field, record_field, totals, value", [
    pytest.param(*dimension, value, id=f"{dimension[0]}={value}")
    for dimension in RUN_DIMENSIONS for value in dimension[3]
])
def test_each_run_dimension_value_matches_run_matrix(
        flag, spec_field, record_field, totals, value, capsys):
    """`capsim run all` with one dimension set equals `run_matrix` with
    the same RunSpec field, and its records carry exactly that value."""
    printed = _stdout_of(["run", "all", "--format", "json", flag, value], capsys)
    report = run_matrix(RunSpec(**{spec_field: value}))
    assert json.loads(printed) == report
    assert report["summary"]["total"] == totals[value]
    seen = {r[record_field] for r in report["records"]} - {None}
    assert seen == (set(totals) - {"both"} if value == "both" else {value})


def test_successive_main_calls_are_independent(capsys):
    assert cli._parser() is cli._parser()
    chosen = ["run", "S1", "S7", "--format", "json", "--seed", "5",
              "--mode", "buggy"]
    first = _stdout_of(chosen, capsys)
    assert main(["run", "all", "--mode", "bogus"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err
    # options given to earlier calls do not carry over to the defaults
    report = json.loads(_stdout_of(["run", "S4", "--format", "json"], capsys))
    assert report["seed"] == 0
    assert {r["mode"] for r in report["records"]} == {"buggy", "fixed"}
    assert _stdout_of(chosen, capsys) == first


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_a_usage_error(where, tmp_path, capsys):
    path = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
    rc = main(["run", "S1", "--out", str(path)])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert err.startswith(f"error: cannot write report to {path}: ")
    assert "internal error" not in err


def test_out_opens_without_truncating(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_text("old report\n")
    flags = []
    real_open = os.open

    def recording_open(file, flag, *args, **kwargs):
        if os.fspath(file) == str(path):
            flags.append(flag)
        return real_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    assert main(S1_JSON + ["--out", str(path)]) == EXIT_OK
    assert flags and not any(f & os.O_TRUNC for f in flags)


def test_out_through_symlink_rewrites_target(tmp_path, capsys):
    printed = _stdout_of(S1_JSON, capsys)
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 50000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(S1_JSON + ["--out", str(link)]) == EXIT_OK
    assert link.is_symlink()
    assert target.read_bytes() == printed


def test_out_keeps_inode_mode_and_hard_links(tmp_path, capsys):
    printed = _stdout_of(S1_JSON, capsys)
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 50000)
    path.chmod(0o640)
    alias = tmp_path / "alias.json"
    os.link(path, alias)
    before = path.stat()
    assert main(S1_JSON + ["--out", str(path)]) == EXIT_OK
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640
    assert alias.read_bytes() == printed


def test_out_creates_new_file_with_umask_mode(tmp_path):
    path = tmp_path / "new.json"
    old = os.umask(0o027)
    try:
        assert main(S1_JSON + ["--out", str(path)]) == EXIT_OK
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_out_dev_null(capsys):
    assert main(S1_JSON + ["--out", os.devnull]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_list_bytes_are_pinned(capsys):
    assert hashlib.sha256(_stdout_of(["list"], capsys)).hexdigest() == LIST_SHA256


def test_run_all_with_unknown_id_is_a_usage_error(capsys):
    assert main(["run", "all", "S99"]) == EXIT_USAGE
    assert "S99" in capsys.readouterr().err


def test_run_selects_each_scenario_once_in_registry_order(capsys):
    argv = ["run", "S9", "S3", "S9", "--mode", "buggy", "--format", "json"]
    records = json.loads(_stdout_of(argv, capsys))["records"]
    cells = [(r["scenario"], r["seal_mode"], r["opt_level"]) for r in records]
    assert len(set(cells)) == len(cells) == 5
    assert [sid for sid, _, _ in cells] == ["S3"] + ["S9"] * 4
    assert records == json.loads(_stdout_of(argv[:1] + ["S3", "S9"] + argv[4:], capsys))["records"]


# -- a throwaway S13: adding a scenario is one registry entry -------------

TAG_FAULT = (OutcomeKind.FAULT, FaultKind.TAG, None, None, "throwaway fault")
OK = (OutcomeKind.OK, None, None, None, "throwaway ok")


def _register_s13(monkeypatch, buggy_result):
    """Register S13, whose record expects a tag fault from its buggy
    variant and whose runner reports `buggy_result` (or raises it)."""
    def run(vm, mode, cfg):
        if isinstance(buggy_result, Exception) and mode == "buggy":
            raise buggy_result
        return buggy_result if mode == "buggy" else OK
    monkeypatch.setitem(CATALOGUE, "S13", Scenario(
        "S13", "throwaway", "a scenario registered by a test", "test", "TagFault",
        buggy=lambda cfg: (OutcomeKind.FAULT, FaultKind.TAG), runner=run))


def test_a_registered_scenario_appears_everywhere(monkeypatch, capsys):
    before = list(CATALOGUE.items())
    with monkeypatch.context() as m:
        _register_s13(m, TAG_FAULT)
        assert main(["list"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 14 and rows[-1].startswith("S13 ")
        assert RunSpec().scenarios == tuple(sid for sid, _ in before) + ("S13",)
        report = json.loads(_stdout_of(["run", "all", "--format", "json"], capsys))
        assert [r["scenario"] for r in report["records"][-2:]] == ["S13", "S13"]
        assert report["summary"] == {"total": 36, "passed": 36, "failed": 0}
    assert list(CATALOGUE.items()) == before
    assert "S13" not in CATALOGUE and len(CATALOGUE) == 12


def test_a_registered_scenario_runs_in_the_dimensions_its_expectation_varies_in(
        monkeypatch, capsys):
    """A scenario whose buggy variant faults only at O1 under fault mode
    gets both dimensions without saying so: four buggy cells."""
    monkeypatch.setitem(CATALOGUE, "S13", None)  # the key goes again at teardown

    def buggy(cfg):
        faults = (cfg.seal_mode, cfg.opt_level) == (SealMode.FAULT_ON_MODIFY, "O1")
        return (OutcomeKind.FAULT, FaultKind.SEAL) if faults else (OutcomeKind.OK, None)

    @scenario("S13", "seal_at_o1", "a sealed temporary at O1 only", "test",
              "SealFault (O1 + fault mode) / Ok otherwise", buggy=buggy)
    def _s13(vm, mode, cfg):
        if mode == "buggy" and cfg.opt_level == "O1":
            try:
                vm.binop(vm.return_address(CODE_BASE), 1, "add")
            except CapFault as f:
                return OutcomeKind.FAULT, f.kind, None, None, "sealed temporary"
        return OK

    assert (CATALOGUE["S13"].seal_sensitive, CATALOGUE["S13"].opt_sensitive) == (True, True)
    report = json.loads(_stdout_of(["run", "all", "--mode", "buggy", "--format", "json"], capsys))
    cells = {(r["seal_mode"], r["opt_level"]): r for r in report["records"]
             if r["scenario"] == "S13"}
    assert sorted(cells) == [("fault", "O0"), ("fault", "O1"),
                             ("invalidate", "O0"), ("invalidate", "O1")]
    assert all(r["pass"] for r in cells.values())
    faulted = [cell for cell, r in cells.items() if r["outcome"]["kind"] == "fault"]
    assert faulted == [("fault", "O1")]


def test_contradicted_expectation_exits_with_failures(monkeypatch, capsys):
    _register_s13(monkeypatch, OK)
    assert main(["run", "S13", "--mode", "buggy", "--format", "json"]) == EXIT_FAILURES
    (record,) = json.loads(capsys.readouterr().out)["records"]
    assert record["pass"] is False and record["outcome"]["kind"] == "ok"
    assert main(["run", "S13", "--mode", "buggy"]) == EXIT_FAILURES
    header, _, row, summary = capsys.readouterr().out.splitlines()
    assert row.split()[:6] == ["S13", "buggy", "-", "-", "ok", "NO"]
    assert summary.startswith("0/1 cells passed, 1 failed")


def test_internal_error_names_the_exception_and_its_location(monkeypatch, capsys):
    _register_s13(monkeypatch, RuntimeError("boom"))
    assert main(["run", "S13"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: boom\n")
    assert "Traceback (most recent call last):" in err and "raise buggy_result" in err
