"""Matrix runner: execute scenarios across configurations, compare each
outcome to the catalogued expectation, and assemble a report."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__
from .capability import SEAL_MODES, check_int, not_a, not_one_of
from .scenarios import (
    CATALOGUE,
    MODES,
    OPT_LEVELS,
    Scenario,
    ScenarioConfig,
    outcome_matches,
    run_scenario,
)

# per `RunSpec` field, each value a user may name -> the values it runs
RUN_CHOICES = {
    "mode": {m: (m,) for m in MODES} | {"both": MODES},
    "seal_semantics": {m._value_: (m,) for m in SEAL_MODES} | {"both": SEAL_MODES},
    "opt_level": {o: (o,) for o in OPT_LEVELS} | {"both": OPT_LEVELS},
}


@dataclass(frozen=True)
class RunSpec:
    scenarios: tuple[str, ...] = field(default_factory=lambda: tuple(CATALOGUE))
    mode: str = "both"
    seal_semantics: str = "both"
    opt_level: str = "both"
    seed: int = 0

    def __post_init__(self):
        check_int(self.seed, "seed", 0)
        if not isinstance(self.scenarios, tuple):  # a bare str would read as one id per character
            raise not_a("scenario ids", tuple, self.scenarios)
        ids = tuple(CATALOGUE)
        checks = [("scenario id", sid, ids) for sid in self.scenarios]
        checks += [(name, getattr(self, name), tuple(c)) for name, c in RUN_CHOICES.items()]
        for what, value, choices in checks:
            if value not in choices:
                raise not_one_of(what, choices, value)


def _configs_for(record: Scenario, spec: RunSpec):
    """The applicable config cells: the seal-mode and opt-level dimensions
    exist only for scenarios whose record says they apply; the others run
    with `ScenarioConfig`'s default seal mode and opt level."""
    seals = RUN_CHOICES["seal_semantics"][spec.seal_semantics] if record.seal_sensitive \
        else [ScenarioConfig.seal_mode]
    opts = RUN_CHOICES["opt_level"][spec.opt_level] if record.opt_sensitive \
        else [ScenarioConfig.opt_level]
    for seal in seals:
        for opt in opts:
            yield ScenarioConfig(seal_mode=seal, opt_level=opt, seed=spec.seed)


def run_matrix(spec: RunSpec) -> dict:
    """Run the full cross-product and return the report as plain data
    (JSON-serializable dicts). Each selected scenario runs once, in
    registry order, however often and in whatever order it was named.
    The configs depend only on which dimensions apply, and a
    `ScenarioConfig` is frozen, so records alike in that share them."""
    records = []
    configs = {}  # (seal_sensitive, opt_sensitive) -> the configs to run
    chosen = set(spec.scenarios)
    for sid, record in CATALOGUE.items():
        if sid not in chosen:
            continue
        dims = record.seal_sensitive, record.opt_sensitive
        if dims not in configs:
            configs[dims] = list(_configs_for(record, spec))
        for mode in RUN_CHOICES["mode"][spec.mode]:
            for cfg in configs[dims]:
                outcome = run_scenario(sid, mode, cfg)
                expectation = record.expected(mode, cfg)
                records.append({
                    "scenario": sid,
                    "mode": mode,
                    "seal_mode": outcome.seal_mode,
                    "opt_level": outcome.opt_level,
                    "outcome": {  # `_value_` skips the enum's `value` descriptor
                        "kind": outcome.kind._value_,
                        "fault": outcome.fault._value_ if outcome.fault else None,
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


def format_json(report: dict) -> str:
    """Render `report` as `json.dumps(report, indent=2)` does, byte for byte.

    CPython's C encoder runs only when `indent` is None, so the indented
    dump goes through the pure-Python `_iterencode`; this renderer writes
    the same bytes in about half the time. Dicts, lists and tuples
    (rendered as lists) are walked recursively; strings go through the
    encoder's own `encode_basestring_ascii`, ints through `int.__repr__`,
    and True, False and None are literals. Any other leaf (a float, say)
    is rendered by `json.dumps(leaf)`, which raises `TypeError` for what
    JSON cannot hold. A dict key that is not a `str` raises `TypeError` in
    `encode_basestring_ascii`, where `json.dumps` would have converted an
    int, float, bool or None key. So the result is exactly the reference
    dump, or an exception.
    """
    return _json_value(report, "\n")


def _json_value(value, newline: str) -> str:
    """`value` rendered where `newline` (a line break and the current
    indent) starts each line; its items start at one more level."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_value(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_json_str(key) + ": " + _json_value(item, inner)
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(value)
