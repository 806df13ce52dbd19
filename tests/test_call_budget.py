"""One `capsim run all` enters a bounded number of Python frames.

`sys.setprofile` counts the "call" events of code in the capsim package
during one `cli.main(["run", "all", "--format", "json", ...])`.  The count
is deterministic, so the bound guards the per-cell path on every Python
without timing anything.  Frames whose name starts with `<` (lambdas,
comprehensions, generator expressions) are not counted: Python 3.12
inlines comprehensions, so whether they are frames depends on the version.
Generated code has no file in the package and is not counted either: the
`__init__` that a dataclass or `capability._slot_init` writes.
"""
import os
import sys

import capsim
from capsim import cli

PACKAGE = os.path.dirname(capsim.__file__) + os.sep

# frames entered by a warm `capsim run all --format json --seed 0`
CALL_BUDGET = 1945


def _capsim_calls(argv) -> int:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(PACKAGE) \
                and not code.co_name.startswith("<"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        status = cli.main(argv)
    finally:
        sys.setprofile(previous)
    assert status == cli.EXIT_OK
    return calls


def test_run_all_stays_within_its_call_budget(tmp_path):
    argv = ["run", "all", "--format", "json", "--seed", "0", "--out", str(tmp_path / "r.json")]
    cli.main(argv)  # builds the argument parser once per process
    assert _capsim_calls(argv) <= CALL_BUDGET
