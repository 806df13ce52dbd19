"""Shorthands the tests share, each over the one spelling the package
gives a fact: a tag cleared by `dataclasses.replace` and a memory pattern
packed by `Capability.encode` into a buffer."""
import dataclasses


def untagged(c, **changes):
    """`c` with its tag cleared and `changes` applied."""
    return dataclasses.replace(c, tag=False, **changes)


def encoded(c) -> bytearray:
    """The 16-byte memory pattern of `c`."""
    buf = bytearray(16)
    c.encode(buf, 0)
    return buf

