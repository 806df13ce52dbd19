"""Span tracer that wraps capsim's public functions from outside the package.

`from .capability import set_bounds` binds the function once per importing
module, so a wrapper has to replace the name in every capsim module that
holds it, not only in the defining one.  Methods and constructors are
wrapped on their class, which every caller shares.

Spans live in flat arrays while the run lasts (name, start, end, parent span,
request id) and are written out once at the end.  A span's self time is its
duration minus the durations of its direct children; calls on one thread
nest, so the children never overlap.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

import capsim.allocator as allocator
import capsim.capability as capability
import capsim.cli as cli
import capsim.harness as harness
import capsim.memory as memory
import capsim.scenarios as scenarios
import capsim.vm as vm

NO_SPAN = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.request = 0
        self.request_labels: list[str] = ["run"]
        self.counters: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [NO_SPAN]

    def new_request(self, label: str) -> int:
        """Start a request (a matrix cell, a churn operation, a sweep); the
        spans opened from here on carry its id."""
        self.request_labels.append(label)
        self.request = len(self.request_labels) - 1
        return self.request

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- span recording -------------------------------------------------

    def wrap(self, name: str, fn, enter=None, leave=None):
        """Return `fn` wrapped in a span called `name`.

        `enter(args)` runs before the call and its result is handed to
        `leave(state, args, result, exc)` after it; both run outside the
        span's interval, so they never count as the callee's time.
        """
        nid = self.name_id(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            state = enter(args) if enter else None
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                ends[i] = clock()
                stack.pop()
                if leave:
                    leave(state, args, result, exc)

        traced.__wrapped__ = fn
        return traced

    def wrap_iterator(self, name: str, fn):
        """Wrap a generator function so that each `next()` is its own span;
        the consumer's work between two items is not counted."""
        nid = self.name_id(name)
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self
        counters = self.counters

        def traced(*args, **kwargs):
            counters[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                i = len(names)
                names.append(nid)
                parents.append(stack[-1])
                requests.append(tracer.request)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                    stack.pop()
                counters[name + ".yielded"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers into capsim --------------------------------

    def patch_function(self, module, attr: str, wrapped) -> None:
        """Replace `module.attr` in every loaded capsim module that bound it."""
        original = getattr(module, attr)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "capsim" or modname.startswith("capsim.")):
                continue
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr: str, wrapped) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def install(self) -> None:
        """Wrap the capsim functions the benchmark reports on."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        c = self.counters
        fn, meth = self._wrap_function, self._wrap_method

        def count_fault(name, kind):
            def leave(state, args, result, exc):
                if isinstance(exc, kind):
                    c[name] += 1
            return leave

        for attr in ("set_address", "set_bounds", "capint_binop", "seal_entry"):
            fn(capability, attr, "capability." + attr)
        fn(capability, "check_access", "capability.check_access",
           leave=count_fault("capability.check_access.faults", capability.CapFault))
        meth(capability.Capability, "encode", "capability.encode")

        meth(memory.TaggedMemory, "__init__", "memory.TaggedMemory")
        for attr in ("store_cap", "load_cap", "store_bytes", "load_bytes",
                     "clear_granule_tag"):
            meth(memory.TaggedMemory, attr, "memory." + attr)

        def mprotect_pages(state, args, result, exc):
            c["memory.mprotect.pages"] += args[1].length // memory.PAGE
        meth(memory.TaggedMemory, "mprotect", "memory.mprotect", leave=mprotect_pages)
        self.patch_method(memory.TaggedMemory, "iter_tagged", self.wrap_iterator(
            "memory.iter_tagged", memory.TaggedMemory.__dict__["iter_tagged"]))

        meth(allocator.CapAllocator, "malloc", "allocator.malloc",
             leave=count_fault("allocator.malloc.oom", allocator.OutOfMemory))
        meth(allocator.CapAllocator, "free", "allocator.free")

        def realloc_leave(state, args, result, exc):
            if exc is None and result.base == args[1].base:
                c["allocator.realloc.in_place"] += 1
        meth(allocator.CapAllocator, "realloc", "allocator.realloc", leave=realloc_leave)

        def revoke_enter(args):
            c["allocator.revoke.quarantine_regions"] += len(args[0].quarantine)
            return c["memory.iter_tagged.yielded"]

        def revoke_leave(visited_before, args, result, exc):
            if exc is None:
                c["allocator.revoke.cleared"] += result
                c["allocator.revoke.visited"] += c["memory.iter_tagged.yielded"] - visited_before
        meth(allocator.CapAllocator, "revoke", "allocator.revoke",
             enter=revoke_enter, leave=revoke_leave)

        meth(vm.MiniVm, "__init__", "vm.MiniVm")
        meth(vm.MiniVm, "lay_out_stack", "vm.lay_out_stack")
        meth(vm.MiniVm, "vm_immediate_p", "vm.vm_immediate_p")

        def gc_mark_leave(state, args, result, exc):
            if result:
                c["vm.gc_mark.marked"] += 1
        meth(vm.MiniVm, "gc_mark", "vm.gc_mark", leave=gc_mark_leave)
        meth(vm.MarkBitmap, "set", "vm.MarkBitmap.set")
        meth(vm.MarkBitmap, "bits", "vm.MarkBitmap.bits")
        fn(vm, "count_utf8_lead_bytes", "vm.count_utf8_lead_bytes")
        fn(vm, "insn_hash_capint", "vm.insn_hash_capint")

        def cell_enter(args):
            previous = self.request
            sid, mode = args[0], args[1]
            cfg = args[2] if len(args) > 2 and args[2] is not None else scenarios.ScenarioConfig()
            self.new_request(f"cell {sid} {mode} {cfg.seal_mode.value} {cfg.opt_level}")
            return previous

        def cell_leave(previous, args, result, exc):
            self.request = previous
        fn(scenarios, "run_scenario", "scenarios.run_scenario",
           enter=cell_enter, leave=cell_leave)
        fn(harness, "run_matrix", "harness.run_matrix")
        fn(cli, "main", "cli.main")

    def _wrap_function(self, module, attr, name, enter=None, leave=None):
        self.patch_function(module, attr, self.wrap(name, getattr(module, attr), enter, leave))

    def _wrap_method(self, cls, attr, name, enter=None, leave=None):
        self.patch_method(cls, attr, self.wrap(name, cls.__dict__[attr], enter, leave))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- attribution ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span self time in seconds: duration minus direct children."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        self_time = list(durations)
        for i, parent in enumerate(self.span_parent):
            if parent != NO_SPAN:
                self_time[parent] -= durations[i]
        return self_time

    def summary(self) -> dict[str, dict[str, float]]:
        """calls and self_ms (summed self time) per span name."""
        out: dict[str, dict[str, float]] = {}
        for nid, self_s in zip(self.span_name, self.self_times()):
            entry = out.setdefault(self.names[nid], {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += self_s * 1e3
        return out

    def durations_by_request(self, name: str) -> dict[str, list[float]]:
        """Durations (ms) of the spans called `name`, keyed by request label."""
        nid = self._name_ids.get(name)
        out: dict[str, list[float]] = defaultdict(list)
        for i, n in enumerate(self.span_name):
            if n == nid:
                label = self.request_labels[self.span_request[i]]
                out[label].append((self.span_end[i] - self.span_start[i]) * 1e3)
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "span": i,
                    "name": self.names[self.span_name[i]],
                    "start_us": round((self.span_start[i] - t0) * 1e6, 3),
                    "end_us": round((self.span_end[i] - t0) * 1e6, 3),
                    "parent": self.span_parent[i],
                    "request": self.request_labels[self.span_request[i]],
                }) + "\n")
