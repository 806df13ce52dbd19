"""Command-line front end for the pitfall-scenario harness."""
from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from .harness import RUN_CHOICES, RunSpec, format_json, format_text, run_matrix
from .scenarios import CATALOGUE

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every `main`
    call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="capsim",
        description="Run capability-model pitfall scenarios in buggy and fixed form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the scenario catalogue")

    run = sub.add_parser("run", help="run scenarios and report pass/fail")
    run.add_argument("scenarios", nargs="+",
                     help="scenario ids (S1..S12) or 'all'")
    for name, choices in RUN_CHOICES.items():  # --mode, --seal-semantics, --opt-level
        run.add_argument("--" + name.replace("_", "-"), choices=choices,
                         default=getattr(RunSpec, name))
    run.add_argument("--seed", type=int, default=RunSpec.seed)
    run.add_argument("--format", choices=["text", "json"], default="text")
    run.add_argument("--out", default=None,
                     help="write the report to this path instead of stdout")
    return parser


def _cmd_list() -> int:
    rows = [("id", "name", "category", "title", "buggy expectation")]
    rows += [(r.sid, r.name, r.category, r.title, r.buggy_expectation)
             for r in CATALOGUE.values()]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return EXIT_OK


def _cmd_run(args) -> int:
    ids = [sid for arg in args.scenarios for sid in (CATALOGUE if arg == "all" else [arg])]
    try:
        spec = RunSpec(scenarios=tuple(ids), seed=args.seed,
                       **{name: getattr(args, name) for name in RUN_CHOICES})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = run_matrix(spec)
    rendered = format_json(report) if args.format == "json" else format_text(report)
    if args.out:
        try:
            _write_report(args.out, rendered + "\n")
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        print(rendered)
    return EXIT_OK if report["summary"]["failed"] == 0 else EXIT_FAILURES


def _write_report(path: str, text: str) -> None:
    """Write `text` over the file at `path` in place, creating it if needed.

    The file is opened without `O_TRUNC` and written from offset 0; a
    regular file is then cut to the bytes written. Truncating a file to
    zero bytes and writing it again (and renaming over it) makes ext4's
    `auto_da_alloc` flush the new blocks on close, which costs tens of
    milliseconds per report. Writing in place keeps the inode, the mode
    and hard links, follows symlinks, and creates a new file with mode
    0o666 & ~umask, as `open(path, "w")` does. It is not atomic: a crash
    mid-write can leave the new report's prefix over the old one's tail.
    Pipes, terminals and devices such as /dev/null are written and left
    untruncated.
    """
    data = memoryview(text.encode())
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "list":
            return _cmd_list()
        return _cmd_run(args)
    except Exception as exc:  # simulator bug, not a scenario failure
        import traceback  # only on this path, to keep start-up light
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
