"""Metrics, spans and the profiler as one subscriber of the probe stream.

An :class:`Observability` attached to :mod:`repro.probe` turns the
stream's typed events into metric counters, trace spans and profiler
intervals; instrumented sites never see it.  Its handler table
(:meth:`Observability.handlers`) is the one place that knows which
counter and which span each event feeds.

Cycle exactness under tracing: the two fused fast loops
(``bulk._write_run_bus_logged`` and ``Logger._drain_fast``) bypass the
per-record generic code where the per-record events live.  With a
tracer the subscriber is ``per_record``, so the probe's flag makes the
fused loops fall back to the exact generic paths — the same mechanism
fault plans use — and an enabled trace observes a run that is
cycle-identical to the untraced one.  Metrics-only observability keeps
the fast paths (its counters are polled or batched) and is also
cycle-identical; the overhead bench guards both properties.
"""

from __future__ import annotations

from repro import probe
from repro.obs import causal
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import TID_BUS, TID_LOGGER, Tracer

#: The count each library's commit span reports, by span prefix.
_COMMIT_COUNT_KEY = {"rvm": "ranges", "rlvm": "records"}


class Observability:
    """A metrics registry plus optional tracer and profiler."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        profiler: CycleProfiler | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.profiler = profiler
        #: per-tid stack recording whether each open span emitted a 'B'
        #: (its category was enabled) — a disabled inner span's end must
        #: not close an enabled outer span.
        self._traced: dict[int, list[bool]] = {}

    # ------------------------------------------------------------------
    # Span interface: tracer (category-gated) + profiler together
    # ------------------------------------------------------------------
    def span_begin(self, cat: str, name: str, ts: int, tid: int = 0) -> None:
        tracer = self.tracer
        if tracer is not None:
            emitted = cat in tracer.categories
            if emitted:
                tracer.begin(cat, name, ts, tid)
            self._traced.setdefault(tid, []).append(emitted)
        if self.profiler is not None:
            self.profiler.push(name, ts, tid)

    def span_end(self, ts: int, tid: int = 0, args=None) -> None:
        tracer = self.tracer
        if tracer is not None:
            stack = self._traced.get(tid)
            if stack and stack.pop():
                tracer.end(ts, tid, args)
        if self.profiler is not None:
            self.profiler.pop(ts, tid)

    def span(self, cat, name, start, end, tid=0, args=None) -> None:
        """A closed (leaf) span: one 'X' event + profiler interval."""
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.complete(cat, name, start, end - start, tid, args)
        if self.profiler is not None:
            self.profiler.record(name, start, end, tid)

    def instant(self, cat, name, ts, tid=0, args=None) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.instant(cat, name, ts, tid, args)

    def flow_start(self, cat, name, ts, tid=0, flow_id=0) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.flow_start(cat, name, ts, tid, flow_id)

    def flow_step(self, cat, name, ts, tid=0, flow_id=0) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.flow_step(cat, name, ts, tid, flow_id)

    def flow_end(self, cat, name, ts, tid=0, flow_id=0) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.flow_end(cat, name, ts, tid, flow_id)

    def counter_track(self, cat, name, ts, value) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.counter(cat, name, ts, value)

    def emit_counter_tracks(self, ts: int) -> None:
        """Sample every registry counter onto its trace counter track."""
        tracer = self.tracer
        if tracer is None or "metrics" not in tracer.categories:
            return
        for name, counter in self.metrics._counters.items():
            tracer.counter("metrics", name, ts, counter.value)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def finalize(self, ts: int | None = None) -> None:
        """Close open spans in both tracer and profiler."""
        if self.tracer is not None:
            self.tracer.finalize(ts)
        self._traced.clear()
        if self.profiler is not None:
            self.profiler.finalize(ts or 0)

    # ------------------------------------------------------------------
    # Probe subscriber: events -> counters and spans
    # ------------------------------------------------------------------
    @property
    def per_record(self) -> bool:
        """A tracer needs every record on the generic (evented) paths."""
        return self.tracer is not None

    def handlers(self) -> dict:
        return {
            "bus.txn": self._bus_txn,
            "logger.fifo_depth": self._fifo_depth,
            "logger.dma": self._logger_dma,
            "logger.fault": self._logger_fault,
            "logger.overload": self._logger_overload,
            "tc.miss": self._tc_miss,
            "bulk.run": self._bulk_run,
            "vm.reset_deferred_copy": self._reset_deferred_copy,
            "kernel.page_fault": self._page_fault,
            "kernel.protection_trap": self._protection_trap,
            "kernel.overload": self._kernel_overload,
            "device.write": self._device_write,
            "device.read": self._device_read,
            "device.buffer": self._device_buffer,
            "device.flush": self._device_flush,
            "device.barrier": self._device_barrier,
            "wal.append": self._wal_append,
            "wal.append_group": self._wal_append_group,
            "rvm.set_range": self._set_range,
            "rvm.commit": self._commit,
            "rvm.abort": self._abort,
            "rvm.flush": self._flush,
            "rvm.truncate": self._truncate,
            "tw.event": self._tw_event,
            "tw.rollback": self._tw_rollback,
            "tw.gvt": self._tw_gvt,
            "serve.ack": self._serve_ack,
            "serve.client_wss": self._client_wss,
        }

    def _with_rids(self, args: dict) -> dict:
        """Tag a library span with the serve requests it works for."""
        tracker = probe.find(causal.CausalTracker)
        rids = tracker.current_rids() if tracker is not None else ()
        if rids:
            args["rids"] = list(rids)
        return args

    def _bus_txn(self, request_cycle, start, bus_cycles) -> None:
        # Contention = cycles the requester waited for the bus.
        if start > request_cycle:
            self.metrics.inc("hw.bus.wait_cycles", start - request_cycle)
        tracer = self.tracer
        if tracer is not None and "bus" in tracer.categories:
            tracer.complete("bus", "bus.txn", start, bus_cycles, TID_BUS)

    def _fifo_depth(self, cycle, depth) -> None:
        self.counter_track("logger", "logger.fifo_depth", cycle, depth)

    def _logger_dma(self, cycle, done, dest, hw_ts) -> None:
        tracer = self.tracer
        if tracer is not None and "logger" in tracer.categories:
            args = {"dest": dest, "hw_ts": hw_ts}
            tracer.complete("logger", "logger.dma", cycle, done - cycle, TID_LOGGER, args)

    def _logger_fault(self, cycle, stall_cycles, name) -> None:
        # Fault service stalls the whole pipeline (the FIFO backs up
        # behind it) — the paper's "logging fault" penalty.
        self.metrics.inc("hw.logger.stall_cycles", stall_cycles)
        self.instant("logger", name, cycle, TID_LOGGER)

    def _logger_overload(self, now, drain_complete, _b) -> None:
        self.metrics.inc("hw.logger.overload_drains")
        end = max(now, drain_complete)
        self.span("logger", "logger.overload_drain", now, end, TID_LOGGER)

    def _tc_miss(self) -> None:
        self.metrics.inc("core.tc_misses")

    def _bulk_run(self, fast: bool) -> None:
        self.metrics.inc("core.bulk.write_runs_fast" if fast else "core.bulk.write_runs_slow")

    def _reset_deferred_copy(self, now, total, start, tid) -> None:
        self.metrics.inc("core.deferred_copy_resets")
        self.metrics.inc("core.deferred_copy_dirty_pages", total.dirty_pages)
        args = {
            "pages_scanned": total.pages_scanned,
            "dirty_pages": total.dirty_pages,
            "dirty_lines": total.dirty_lines,
        }
        self.span("vm", "vm.reset_deferred_copy", start, now, tid, args)

    def _page_fault(self, now, vaddr, logged, start, tid) -> None:
        args = {"vaddr": vaddr, "logged": logged}
        self.span("kernel", "kernel.page_fault", start, now, tid, args)

    def _protection_trap(self, now, vaddr, start, tid) -> None:
        self.metrics.inc("kernel.protection_traps")
        self.span("kernel", "kernel.protection_trap", start, now, tid, {"vaddr": vaddr})

    def _kernel_overload(self, drain_complete) -> None:
        self.instant("kernel", "kernel.overload_suspend", drain_complete)

    def _device_write(self, now, backend, nbytes, start, tid) -> None:
        self.metrics.inc("rvm.disk.writes")
        self.metrics.inc("rvm.disk.bytes_written", nbytes)
        # The I/O cost is charged to the issuing CPU (these devices
        # have no concurrent transfer engine), so the span lives on the
        # CPU's track and nests under wal.append / rvm.commit.
        args = {"bytes": nbytes, "backend": backend}
        self.span("disk", "disk.write", start, now, tid, args)

    def _device_read(self, now, backend, nbytes, start, tid) -> None:
        self.metrics.inc("rvm.disk.reads")
        self.span("disk", "disk.read", start, now, tid, {"bytes": nbytes, "backend": backend})

    def _device_buffer(self, now, backend, nbytes) -> None:
        self.metrics.inc("rvm.disk.buffered_writes")
        self.metrics.inc("rvm.disk.bytes_buffered", nbytes)

    def _device_flush(self, now, backend, runs) -> None:
        self.metrics.inc("rvm.disk.flushes")
        if runs:
            self.metrics.inc("rvm.disk.flushed_runs", runs)

    def _device_barrier(self, now, backend, _b) -> None:
        self.metrics.inc("rvm.disk.barriers")

    def _wal_append(self, now, kind, nbytes, start, tid) -> None:
        self.metrics.inc("rvm.wal.appends")
        self.metrics.inc("rvm.wal.bytes", nbytes)
        self.span("wal", "wal.append", start, now, tid, {"kind": kind, "bytes": nbytes})

    def _wal_append_group(self, now, nbytes, _first, start, tid, entries) -> None:
        self.metrics.inc("rvm.wal.appends")
        self.metrics.inc("rvm.wal.bytes", nbytes)
        self.metrics.observe("rvm.wal.group_bytes", nbytes)
        self.span("wal", "wal.append_group", start, now, tid, {"bytes": nbytes})
        self.metrics.observe("rvm.wal.group_entries", entries)

    def _set_range(self, now, length, start, tid) -> None:
        self.metrics.inc("rvm.set_ranges")
        self.span("txn", "rvm.set_range", start, now, tid, {"length": length})

    def _commit(self, now, txn, count, start, tid, lib, flush, begin) -> None:
        self.metrics.inc("rvm.commits")
        self.metrics.observe("rvm.txn_cycles", now - begin)
        args = {"tid": txn, _COMMIT_COUNT_KEY[lib]: count, "flush": flush}
        self.span("txn", f"{lib}.commit", start, now, tid, self._with_rids(args))

    def _abort(self, now, txn, _b, start, tid, lib, begin, ranges) -> None:
        self.metrics.inc("rvm.aborts")
        self.metrics.observe("rvm.txn_cycles", now - begin)
        args = {"tid": txn} if ranges is None else {"tid": txn, "ranges": ranges}
        self.span("txn", f"{lib}.abort", start, now, tid, args)

    def _flush(self, now, pending, _b, start, tid, lib) -> None:
        self.metrics.inc("rvm.flushes")
        args = self._with_rids({"pending_commits": pending})
        self.span("txn", f"{lib}.flush", start, now, tid, args)

    def _truncate(self, now, entries, _b, start, tid, lib) -> None:
        self.metrics.inc("rvm.truncates")
        args = {"entries_applied": entries}
        self.span("txn", f"{lib}.truncate", start, now, tid, args)

    def _tw_event(self, now, event, sends, start, tid) -> None:
        self.metrics.inc("tw.events")
        args = {"vt": event.recv_time, "obj": event.dest_obj, "sends": sends}
        self.span("timewarp", "tw.event", start, now, tid, args)

    def _tw_rollback(self, now, vt, undone, antimessages, start, tid) -> None:
        self.metrics.inc("tw.rollbacks")
        self.metrics.inc("tw.antimessages", antimessages)
        self.metrics.observe("tw.rollback_depth", undone)
        args = {"vt": vt, "undone": undone, "antimessages": antimessages}
        self.span("timewarp", "tw.rollback", start, now, tid, args)

    def _tw_gvt(self, gvt, now) -> None:
        self.metrics.set_gauge("tw.gvt", gvt)
        self.counter_track("timewarp", "tw.gvt", now, gvt)

    def _serve_ack(self, now, rid, txn, latency, backend) -> None:
        self.metrics.observe("serve.commit_cycles", latency)
        self.metrics.observe(f"serve.commit_cycles.{backend}", latency)

    def _client_wss(self, wss: dict) -> None:
        for client, pages in wss.items():
            self.metrics.set_gauge(f"serve.client_wss.{client}", pages)
