"""Shorthands the tests share, each over the one spelling the package
gives a fact: a tag cleared by `dataclasses.replace`, a memory pattern
packed by `Capability.encode` into a buffer, and an expectation from the
scenario record's own `expected`."""
import dataclasses

from capsim.scenarios import CATALOGUE, ScenarioConfig


def untagged(c, **changes):
    """`c` with its tag cleared and `changes` applied."""
    return dataclasses.replace(c, tag=False, **changes)


def encoded(c) -> bytearray:
    """The 16-byte memory pattern of `c`."""
    buf = bytearray(16)
    c.encode(buf, 0)
    return buf


def expected(sid, mode, cfg=None, payload=None) -> tuple:
    """The outcome pair a cell of scenario `sid` must produce in `cfg`
    (default `ScenarioConfig()`) on `payload`, parsed by the record as
    `run_scenario` parses it (`None` for the default input)."""
    record = CATALOGUE[sid]
    given = () if payload is None else (record.parse(payload),)
    return record.expected(mode, ScenarioConfig() if cfg is None else cfg, given)
