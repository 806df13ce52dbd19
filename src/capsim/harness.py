"""Matrix runner: execute scenarios across configurations, compare each
outcome to the catalogued expectation, and assemble a report."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__
from .capability import SealMode
from .scenarios import (
    CATALOGUE,
    OPT_LEVELS,
    Scenario,
    ScenarioConfig,
    expected_outcome,
    outcome_matches,
    run_scenario,
)

_SEAL_CHOICES = {m.value: [m] for m in SealMode} | {"both": list(SealMode)}
_OPT_CHOICES = {o: [o] for o in OPT_LEVELS} | {"both": list(OPT_LEVELS)}
_MODE_CHOICES = {"buggy": ["buggy"], "fixed": ["fixed"], "both": ["buggy", "fixed"]}


@dataclass(frozen=True)
class RunSpec:
    scenarios: tuple[str, ...] = field(default_factory=lambda: tuple(CATALOGUE))
    mode: str = "both"
    seal_semantics: str = "both"
    opt_level: str = "both"
    seed: int = 0

    def __post_init__(self):
        unknown = [s for s in self.scenarios if s not in CATALOGUE]
        if unknown:
            raise ValueError(f"unknown scenario id(s): {', '.join(unknown)}")
        if self.mode not in _MODE_CHOICES:
            raise ValueError(f"bad mode {self.mode!r}")
        if self.seal_semantics not in _SEAL_CHOICES:
            raise ValueError(f"bad seal semantics {self.seal_semantics!r}")
        if self.opt_level not in _OPT_CHOICES:
            raise ValueError(f"bad optimization level {self.opt_level!r}")


def _configs_for(record: Scenario, spec: RunSpec):
    """The applicable config cells: the seal-mode and opt-level dimensions
    exist only for scenarios whose record says they apply; the others run
    with `ScenarioConfig`'s default seal mode and opt level."""
    seals = _SEAL_CHOICES[spec.seal_semantics] if record.seal_sensitive \
        else [ScenarioConfig.seal_mode]
    opts = _OPT_CHOICES[spec.opt_level] if record.opt_sensitive \
        else [ScenarioConfig.opt_level]
    for seal in seals:
        for opt in opts:
            yield ScenarioConfig(seal_mode=seal, opt_level=opt, seed=spec.seed)


def run_matrix(spec: RunSpec) -> dict:
    """Run the full cross-product and return the report as plain data
    (JSON-serializable dicts). Each selected scenario runs once, in
    registry order, however often and in whatever order it was named."""
    records = []
    chosen = set(spec.scenarios)
    for sid, record in CATALOGUE.items():
        if sid not in chosen:
            continue
        for mode in _MODE_CHOICES[spec.mode]:
            for cfg in _configs_for(record, spec):
                outcome = run_scenario(sid, mode, cfg)
                expectation = expected_outcome(sid, mode, cfg)
                records.append({
                    "scenario": sid,
                    "mode": mode,
                    "seal_mode": outcome.seal_mode,
                    "opt_level": outcome.opt_level,
                    "outcome": {
                        "kind": outcome.kind.value,
                        "fault": outcome.fault.value if outcome.fault else None,
                        "expected": outcome.expected,
                        "actual": outcome.actual,
                        "detail": outcome.detail,
                    },
                    "pass": outcome_matches(outcome, expectation),
                })
    passed = sum(1 for r in records if r["pass"])
    return {
        "version": __version__,
        "seed": spec.seed,
        "records": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
        },
    }


def format_text(report: dict) -> str:
    lines = []
    header = f"{'scenario':<9}{'mode':<7}{'seal':<12}{'opt':<5}{'outcome':<15}{'pass':<6}detail"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report["records"]:
        out = r["outcome"]
        what = out["kind"] if not out["fault"] else f"{out['kind']}:{out['fault']}"
        detail = out["detail"]
        if out["kind"] == "corrupt":
            detail = f"expected {out['expected']}, got {out['actual']}"
        lines.append(
            f"{r['scenario']:<9}{r['mode']:<7}{r['seal_mode'] or '-':<12}"
            f"{r['opt_level'] or '-':<5}{what:<15}"
            f"{'yes' if r['pass'] else 'NO':<6}{detail}"
        )
    s = report["summary"]
    lines.append(f"{s['passed']}/{s['total']} cells passed, {s['failed']} failed "
                 f"(seed {report['seed']}, simulator {report['version']})")
    return "\n".join(lines)
