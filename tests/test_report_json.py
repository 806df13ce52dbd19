"""`harness.format_json` writes exactly the bytes of `json.dumps(v, indent=2)`
or raises; `json.dumps` is the reference every test here compares against."""
import enum
import itertools
import json
from collections import OrderedDict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from capsim.cli import EXIT_OK, main
from capsim.harness import RUN_CHOICES, format_json

LEAVES = (st.none() | st.booleans() | st.integers(min_value=-2**200, max_value=2**200)
          | st.floats() | st.text())
VALUES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=16)


# st.text() builds Hypothesis's character cache on first use, which a fresh
# checkout (no .hypothesis/ directory) counts as slow input generation.
@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(VALUES)
@example({"a": [[], {}, ([{}],)], "": {"b": [()]}})
@example(["\x00\x1f\x7f\"\\/", "é ☃ 😀", "\ud800", {"é\n": "😀"}])
@example([2**64, -2**64 - 1, 0, True, False, None])
@example([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324])
def test_format_json_matches_indented_json_dumps(value):
    assert format_json(value) == json.dumps(value, indent=2)


class _Flag(enum.IntFlag):
    A = 1
    B = 2


class _Str(str):
    pass


class _List(list):
    pass


@pytest.mark.parametrize("value", [
    _Flag.A | _Flag.B, {"k": _Flag.B}, _Str("x"), {_Str("k"): _Str("v")},
    OrderedDict(b=1, a=[2]), _List([1, _List()]), {"t": (1, (2, ()))},
], ids=repr)
def test_format_json_matches_json_dumps_on_subclasses(value):
    assert format_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, b"ab", bytearray(b"ab"), {1: "x"}, {None: 0}, {(1,): 0},
    [{"a": {2.5: None}}], {"deep": [frozenset()]}, 1 + 2j,
], ids=repr)
def test_format_json_raises_type_error_on_what_it_does_not_render(value):
    with pytest.raises(TypeError):
        format_json(value)


@pytest.mark.parametrize("mode, seal, opt, seed", [
    pytest.param(mode, seal, opt, seed, id=f"{mode}-{seal}-{opt}-seed{seed}")
    for mode, seal, opt in itertools.product(*RUN_CHOICES.values())
    for seed in (0, 7)
])
def test_run_all_json_is_the_indented_dump_of_its_report(mode, seal, opt, seed, capsys):
    argv = ["run", "all", "--format", "json", "--mode", mode,
            "--seal-semantics", seal, "--opt-level", opt, "--seed", str(seed)]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
