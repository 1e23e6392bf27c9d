"""In-memory span tracer and the layer wrappers the traced run installs.

The benchmark measures the simulator from outside: :func:`instrument`
replaces the public entry points of each layer (``hw/``, ``core/``,
``timewarp/``, ``rvm/``, ``backends/``, ``serve/``) with wrappers that
record one span per call and restores the originals on exit.  Nothing
under ``src/`` is edited, and a bare run executes the original code.

A span records its name, host start and end (``perf_counter_ns``), its
parent span and the id of the unit of work it belongs to (a TPC-A or
served transaction, a copy chunk, a Time Warp run).  Spans live in flat
arrays while the run goes on and are summarised or written out after it
ends.  A span's *self time* is its duration minus the durations of its
direct children; because children nest inside their parent, the self
times of all spans sum exactly to the summed durations of the root spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from array import array

import numpy as np

from repro.backends.base import LogDevice
from repro.backends.group_commit import GroupCommit
from repro.core.address_space import AddressSpace
from repro.hw.cpu import CPU
from repro.rvm.rlvm import RLVM, RLVMTransaction
from repro.rvm.rvm import RVM, Transaction
from repro.serve.server import TxnServer
from repro.timewarp.kernel import TimeWarpSimulation
from repro.timewarp.state_saving import CopyStateSaver, LVMStateSaver, StateSaver

#: The module, not the ``bcopy`` function the package re-exports.
bcopy = importlib.import_module("repro.baselines.bcopy")

#: Span name of each wrapped entry point, by layer.
HW = "hw"
CORE_WORD = "core.word"
CORE_BULK = "core.bulk"
TW_RUN = "timewarp.run"
TW_SAVER = "timewarp.saver"
RVM_BEGIN = "rvm.begin"
RVM_TXN_OPS = "rvm.txn_ops"
RVM_COMMIT = "rvm.commit"
RVM_FLUSH = "rvm.flush"
RVM_TRUNCATE = "rvm.truncate"
BK_WRITE = "backends.write"
BK_FLUSH = "backends.flush"
BK_BARRIER = "backends.barrier"
SERVE_RUN = "serve.run"

SPAN_NAMES = (
    HW,
    CORE_WORD,
    CORE_BULK,
    TW_RUN,
    TW_SAVER,
    RVM_BEGIN,
    RVM_TXN_OPS,
    RVM_COMMIT,
    RVM_FLUSH,
    RVM_TRUNCATE,
    BK_WRITE,
    BK_FLUSH,
    BK_BARRIER,
    SERVE_RUN,
)

NO_UNIT = -1


class SpanTracer:
    """Records nested spans from one host thread."""

    def __init__(self) -> None:
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.unit = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        #: indices of the spans currently open, innermost last
        self.stack: list[int] = []
        #: unit of work that newly opened spans belong to
        self.unit_id = NO_UNIT
        #: bytes moved by the bulk engine (read_block + write_block)
        self.bulk_bytes = 0
        #: logged stores issued through ``CPU.write_through`` on the word path
        self.logged_words = 0
        #: serve requests submitted, and submits still awaiting their reply
        self.requests = 0
        self.requests_open = 0

    def span_id(self, name: str) -> int:
        return self._ids[name]

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so every call records a span ``name``."""
        nid = self._ids[name]
        names, parents, units = self.name, self.parent, self.unit
        starts, ends, childs, stack = self.start, self.end, self.child, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            units.append(tracer.unit_id)
            childs.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t = clock()
                ends[idx] = t
                stack.pop()
                p = parents[idx]
                if p >= 0:
                    childs[p] += t - starts[idx]

        return traced

    def open_spans(self) -> int:
        return len(self.stack) + self.requests_open

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name call counts and self time, plus the root-span total."""
        if self.open_spans():
            raise RuntimeError(f"{self.open_spans()} span(s) left open")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        self_ns = dur - np.frombuffer(self.child, dtype=np.int64)
        if (self_ns < 0).any():
            raise RuntimeError("a span's children outlast it: spans do not nest")
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_ns, minlength=len(self.names))
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_ns": {n: int(selfs[i]) for i, n in enumerate(self.names)},
            "self_total_ns": int(self_ns.sum()),
            "root_total_ns": int(dur[parent < 0].sum()),
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\tunit\n")
            names = self.names
            for i, (n, s, e, p, u) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.unit)
            ):
                out.write(f"{i}\t{names[n]}\t{s}\t{e}\t{p}\t{u}\n")


# ----------------------------------------------------------------------
# Wrappers over the layers' entry points
# ----------------------------------------------------------------------
def _hw_wrapper(tracer: SpanTracer, fn, counts_logged: bool):
    """hw span around a CPU call made by the word path.

    The fused bulk paths call the CPU inline; that work counts as core,
    so no span opens when the innermost open span is ``core.bulk``.
    """
    traced = tracer.wrap(fn, HW)
    bulk = tracer.span_id(CORE_BULK)
    names, stack = tracer.name, tracer.stack

    def hw(*args, **kwargs):
        if stack and names[stack[-1]] == bulk:
            return fn(*args, **kwargs)
        if counts_logged:
            tag = kwargs["log_tag"] if "log_tag" in kwargs else args[4]
            if tag is not None:
                tracer.logged_words += 1
        return traced(*args, **kwargs)

    return hw


def _bulk_wrapper(tracer: SpanTracer, fn):
    traced = tracer.wrap(fn, CORE_BULK)

    def bulk(aspace, cpu, vaddr, data_or_length):
        tracer.bulk_bytes += (
            data_or_length if isinstance(data_or_length, int) else len(data_or_length)
        )
        return traced(aspace, cpu, vaddr, data_or_length)

    return bulk


def _txn_wrapper(tracer: SpanTracer, fn, name: str):
    """rvm span carrying the transaction's id as its unit."""
    traced = tracer.wrap(fn, name)

    def txn_op(txn, *args, **kwargs):
        prev, tracer.unit_id = tracer.unit_id, txn.tid
        try:
            return traced(txn, *args, **kwargs)
        finally:
            tracer.unit_id = prev

    return txn_op


def _begin_wrapper(tracer: SpanTracer, fn):
    traced = tracer.wrap(fn, RVM_BEGIN)
    units, starts = tracer.unit, tracer.start

    def begin(library, *args, **kwargs):
        idx = len(starts)
        txn = traced(library, *args, **kwargs)
        units[idx] = txn.tid
        return txn

    return begin


def _submit_wrapper(tracer: SpanTracer, fn):
    async def submit(*args, **kwargs):
        tracer.requests += 1
        tracer.requests_open += 1
        try:
            return await fn(*args, **kwargs)
        finally:
            tracer.requests_open -= 1

    return submit


@contextlib.contextmanager
def _patched(patches):
    """Apply ``(owner, attribute, replacement)`` patches; undo on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


@contextlib.contextmanager
def instrument(tracer: SpanTracer):
    """Wrap every layer's entry points for the duration of the block."""
    patches = []

    def own(cls, attr):
        return attr in cls.__dict__

    for attr in ("write_through", "cached_read", "cached_write", "compute"):
        fn = CPU.__dict__[attr]
        patches.append(
            (CPU, attr, _hw_wrapper(tracer, fn, counts_logged=attr == "write_through"))
        )
    for attr in ("read", "write", "read_bytes", "write_bytes"):
        patches.append((AddressSpace, attr, tracer.wrap(AddressSpace.__dict__[attr], CORE_WORD)))
    for attr in ("read_block", "write_block"):
        patches.append((AddressSpace, attr, _bulk_wrapper(tracer, AddressSpace.__dict__[attr])))
    patches.append((bcopy, "vm_copy", tracer.wrap(bcopy.vm_copy, CORE_BULK)))

    patches.append((TimeWarpSimulation, "run", tracer.wrap(TimeWarpSimulation.run, TW_RUN)))
    for cls in (StateSaver, CopyStateSaver, LVMStateSaver):
        for attr in ("before_event", "on_lvt_change", "rollback", "advance_checkpoint"):
            if own(cls, attr):
                patches.append((cls, attr, tracer.wrap(cls.__dict__[attr], TW_SAVER)))

    for lib, txn in ((RVM, Transaction), (RLVM, RLVMTransaction)):
        patches.append((lib, "begin", _begin_wrapper(tracer, lib.__dict__["begin"])))
        patches.append((lib, "flush", tracer.wrap(lib.__dict__["flush"], RVM_FLUSH)))
        patches.append((lib, "truncate", tracer.wrap(lib.__dict__["truncate"], RVM_TRUNCATE)))
        for attr in ("read", "write", "set_range", "read_block", "write_block"):
            if own(txn, attr):
                patches.append((txn, attr, _txn_wrapper(tracer, txn.__dict__[attr], RVM_TXN_OPS)))
        patches.append((txn, "commit", _txn_wrapper(tracer, txn.__dict__["commit"], RVM_COMMIT)))

    for cls in (LogDevice, GroupCommit):
        for attr, name in (("write", BK_WRITE), ("flush", BK_FLUSH), ("barrier", BK_BARRIER)):
            patches.append((cls, attr, tracer.wrap(cls.__dict__[attr], name)))

    patches.append((TxnServer, "submit", _submit_wrapper(tracer, TxnServer.__dict__["submit"])))

    with _patched(patches):
        yield tracer
