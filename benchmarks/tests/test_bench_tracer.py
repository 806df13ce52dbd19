"""The tracer's attribution and its patching of capsim's bindings."""
import math

import capsim
import capsim.allocator
import capsim.capability
import capsim.cli
import capsim.harness
import capsim.memory
import capsim.scenarios
from capsim import Perm, TaggedMemory, make_root

from capbench.tracer import NO_SPAN, Tracer


def _spin(n):
    return sum(range(n))


def test_self_times_add_up_to_outer_wall_time():
    t = Tracer()
    leaf = t.wrap("leaf", lambda: _spin(3000))

    def mid_body():
        leaf()
        _spin(1000)
        leaf()
    mid = t.wrap("mid", mid_body)

    def outer_body():
        mid()
        _spin(500)
        mid()
    outer = t.wrap("outer", outer_body)
    outer()

    names = [t.names[n] for n in t.span_name]
    assert names == ["outer", "mid", "leaf", "leaf", "mid", "leaf", "leaf"]
    assert list(t.span_parent) == [NO_SPAN, 0, 1, 1, 0, 4, 4]
    wall = t.span_end[0] - t.span_start[0]
    self_times = t.self_times()
    assert all(s >= 0 for s in self_times)
    assert math.isclose(sum(self_times), wall, rel_tol=1e-9)
    summary = t.summary()
    assert summary["leaf"]["calls"] == 4
    assert math.isclose(sum(e["self_ms"] for e in summary.values()), wall * 1e3, rel_tol=1e-9)


def test_install_replaces_every_binding_and_uninstall_restores_them():
    originals = {
        "check_access": capsim.capability.check_access,
        "set_bounds": capsim.capability.set_bounds,
        "run_scenario": capsim.scenarios.run_scenario,
        "run_matrix": capsim.harness.run_matrix,
    }
    t = Tracer()
    t.install()
    try:
        for mod in (capsim, capsim.capability, capsim.memory):
            assert mod.check_access is not originals["check_access"]
        assert capsim.memory.check_access is capsim.capability.check_access
        assert capsim.allocator.set_bounds is not originals["set_bounds"]
        assert capsim.harness.run_scenario is capsim.scenarios.run_scenario
        assert capsim.cli.run_matrix is not originals["run_matrix"]
    finally:
        t.uninstall()
    assert capsim.memory.check_access is originals["check_access"]
    assert capsim.allocator.set_bounds is originals["set_bounds"]
    assert capsim.harness.run_scenario is originals["run_scenario"]
    assert capsim.cli.run_matrix is originals["run_matrix"]


def test_each_iter_tagged_step_is_a_span():
    mem = TaggedMemory(4096)
    root = make_root(0, 4096, Perm.LOAD | Perm.STORE)
    for addr in (0, 32, 64):
        mem.store_cap(root, addr, root)
    t = Tracer()
    t.install()
    try:
        assert [a for a, _ in mem.iter_tagged()] == [0, 32, 64]
    finally:
        t.uninstall()
    assert t.counters["memory.iter_tagged.calls"] == 1
    assert t.counters["memory.iter_tagged.yielded"] == 3
    assert t.summary()["memory.iter_tagged"]["calls"] == 4  # three items, then the end


def test_scenario_spans_carry_the_cell_as_request():
    t = Tracer()
    t.install()
    try:
        capsim.scenarios.run_scenario("S3", "buggy")
    finally:
        t.uninstall()
    labels = t.durations_by_request("scenarios.run_scenario")
    assert list(labels) == ["cell S3 buggy fault O0"]
    inner = {t.request_labels[r] for r in t.span_request}
    assert inner == {"cell S3 buggy fault O0"}
