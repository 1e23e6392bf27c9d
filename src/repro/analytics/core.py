"""Incremental folds over write-log records.

Every estimator here is a *fold*: feed it records one at a time (or in
column batches, for the stream tap's hot loop) and read the running
result at any point.  Folding a complete log produces exactly what the
offline :mod:`repro.analysis` modules compute — they are thin wrappers
over these classes — and folding incrementally while the program runs
produces the same numbers live, which is what the online estimators
the Intel PML line of work builds (working-set size from the dirty
stream) need.

Nothing in this module touches the simulated machine: folds consume
decoded records or raw columns, so attaching them costs zero simulated
cycles by construction.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Iterable

import numpy as np

from repro.hw.params import LINE_SIZE, LOG_RECORD_SIZE, PAGE_SIZE

#: Default working-set window, matching
#: :func:`repro.analysis.locality.working_set_curve`.
DEFAULT_WSS_WINDOW = 64

#: Default page-heat half life in record-timestamp ticks (the 6.25 MHz
#: hardware counter, i.e. cycles / timestamp divider — "cycle-decayed").
DEFAULT_HEAT_HALF_LIFE = 4096


class StatsFold:
    """Running :class:`~repro.analysis.logstats.LogStats` aggregates."""

    __slots__ = (
        "record_count",
        "data_bytes_written",
        "first_timestamp",
        "last_timestamp",
        "writes_per_page",
    )

    def __init__(self) -> None:
        self.record_count = 0
        self.data_bytes_written = 0
        self.first_timestamp: int | None = None
        self.last_timestamp: int | None = None
        self.writes_per_page: Counter[int] = Counter()

    def fold(self, record) -> None:
        self.record_count += 1
        self.data_bytes_written += record.size
        if self.first_timestamp is None:
            self.first_timestamp = record.timestamp
        self.last_timestamp = record.timestamp
        self.writes_per_page[record.addr // PAGE_SIZE] += 1

    def fold_page_counts(
        self,
        page_counts: dict[int, int],
        n_records: int,
        data_bytes: int,
        first_ts: int,
        last_ts: int,
    ) -> None:
        """Pre-aggregated batch entry point (the vectorised tap path)."""
        self.record_count += n_records
        self.data_bytes_written += data_bytes
        if self.first_timestamp is None:
            self.first_timestamp = first_ts
        self.last_timestamp = last_ts
        self.writes_per_page.update(page_counts)

    @property
    def bytes_logged(self) -> int:
        return self.record_count * LOG_RECORD_SIZE

    @property
    def duration_timestamps(self) -> int:
        if self.first_timestamp is None:
            return 0
        return self.last_timestamp - self.first_timestamp

    @property
    def pages_touched(self) -> int:
        return len(self.writes_per_page)

    def as_dict(self) -> dict:
        return {
            "record_count": self.record_count,
            "bytes_logged": self.bytes_logged,
            "data_bytes_written": self.data_bytes_written,
            "duration_timestamps": self.duration_timestamps,
            "pages_touched": self.pages_touched,
        }


class WindowedWss:
    """Working-set size per ``window`` consecutive writes.

    Chunking matches :func:`repro.analysis.locality.working_set_curve`
    exactly: non-overlapping chunks of ``window`` records in log order,
    each contributing the number of unique pages it touched, with a
    final partial chunk when the record count is not a multiple.
    """

    __slots__ = ("window", "_closed", "_current")

    def __init__(self, window: int = DEFAULT_WSS_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be at least one record")
        self.window = window
        self._closed: list[int] = []
        self._current: list[int] = []

    def fold(self, record) -> None:
        self.fold_page(record.addr // PAGE_SIZE)

    def fold_page(self, page: int) -> None:
        current = self._current
        current.append(page)
        if len(current) == self.window:
            self._closed.append(len(set(current)))
            self._current = []

    def extend_pages_array(self, pages) -> None:
        """Batch fold of a 1-D numpy array of pages.

        Full windows are counted with a sort-and-compare sweep (distinct
        elements per row of the window-shaped view); only the boundary
        partial windows fall back to Python lists.  Bit-identical to
        folding each page in order.
        """
        window = self.window
        current = self._current
        n = len(pages)
        pos = 0
        if current:
            take = min(window - len(current), n)
            current.extend(pages[:take].tolist())
            pos = take
            if len(current) == window:
                self._closed.append(len(set(current)))
                current = []
        if not current:
            nwin = (n - pos) // window
            if nwin:
                block = np.sort(
                    pages[pos : pos + nwin * window].reshape(nwin, window),
                    axis=1,
                )
                distinct = 1 + (block[:, 1:] != block[:, :-1]).sum(axis=1)
                self._closed.extend(distinct.tolist())
                pos += nwin * window
            if pos < n:
                current = pages[pos:].tolist()
        self._current = current

    @property
    def latest(self) -> int:
        """WSS of the most recent *closed* window (0 before the first)."""
        return self._closed[-1] if self._closed else 0

    @property
    def windows_closed(self) -> int:
        return len(self._closed)

    def curve(self) -> list[int]:
        """The full WSS curve, including the trailing partial window."""
        out = list(self._closed)
        if self._current:
            out.append(len(set(self._current)))
        return out


class PageHeat:
    """Exponentially decayed per-page write counts ("heat").

    Heat for a page halves every ``half_life`` timestamp ticks without
    a write and gains one per write, so it approximates the page's
    recent *re-dirty rate*: a page rewritten every ``g`` ticks settles
    at heat ``1 / (1 - 2^(-g/half_life))``.  Timestamps come from the
    log records themselves (the 6.25 MHz hardware counter, derived from
    the cycle clock), so decay is in the cycle domain, not wall time.

    Decay is applied lazily — per page, on touch or on read — so the
    fold is O(1) per write and exact regardless of batching.
    """

    __slots__ = ("half_life", "_heat", "_stamp")

    def __init__(self, half_life: int = DEFAULT_HEAT_HALF_LIFE) -> None:
        if half_life < 1:
            raise ValueError("half life must be at least one tick")
        self.half_life = half_life
        self._heat: dict[int, float] = {}
        self._stamp: dict[int, int] = {}

    def touch(self, page: int, now_ts: int, count: int = 1) -> None:
        prev = self._heat.get(page)
        if prev is None:
            self._heat[page] = float(count)
        else:
            dt = now_ts - self._stamp[page]
            self._heat[page] = prev * 2.0 ** (-dt / self.half_life) + count
        self._stamp[page] = now_ts

    def touch_many(self, counts: dict[int, int], now_ts: int) -> None:
        """Fold a burst of writes observed at (or before) ``now_ts``."""
        for page, count in counts.items():
            self.touch(page, now_ts, count)

    def heat(self, page: int, now_ts: int | None = None) -> float:
        value = self._heat.get(page)
        if value is None:
            return 0.0
        if now_ts is None:
            return value
        dt = now_ts - self._stamp[page]
        if dt <= 0:
            return value
        return value * 2.0 ** (-dt / self.half_life)

    def top(self, n: int = 8, now_ts: int | None = None) -> list[tuple[int, float]]:
        """The ``n`` hottest pages as (page, heat), hottest first."""
        scored = [
            (page, self.heat(page, now_ts)) for page in self._heat
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:n]

    def __len__(self) -> int:
        return len(self._heat)


class RateEwma:
    """An exponentially weighted moving average of a sampled rate."""

    __slots__ = ("alpha", "value", "primed")

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value = 0.0
        self.primed = False

    def update(self, sample: float) -> float:
        if not self.primed:
            self.value = float(sample)
            self.primed = True
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value


class GrowthForecast:
    """Log-growth forecasting from an EWMA of bytes per tick.

    ``observe`` feeds appended byte counts stamped with a monotonically
    non-decreasing tick (record timestamps for hardware logs, CPU
    cycles for a WAL); ``forecast``/``ticks_until`` extrapolate.
    """

    __slots__ = ("bytes_per_tick", "total_bytes", "_last_ts", "_pending")

    def __init__(self, alpha: float = 0.25) -> None:
        self.bytes_per_tick = RateEwma(alpha)
        self.total_bytes = 0
        self._last_ts: int | None = None
        self._pending = 0

    def observe(self, nbytes: int, ts: int) -> None:
        self.total_bytes += nbytes
        if self._last_ts is None:
            self._last_ts = ts
            return
        self._pending += nbytes
        dt = ts - self._last_ts
        if dt > 0:
            self.bytes_per_tick.update(self._pending / dt)
            self._pending = 0
            self._last_ts = ts

    def forecast(self, horizon_ticks: int) -> float:
        """Expected total bytes ``horizon_ticks`` from the last sample."""
        return self.total_bytes + self.bytes_per_tick.value * horizon_ticks

    def ticks_until(self, limit_bytes: int) -> float | None:
        """Ticks until ``limit_bytes`` total, or None if not growing."""
        if limit_bytes <= self.total_bytes:
            return 0.0
        rate = self.bytes_per_tick.value
        if rate <= 0.0:
            return None
        return (limit_bytes - self.total_bytes) / rate


class LocalityFold:
    """Incremental LRU-stack locality metrics.

    The running state is the same LRU stack
    :func:`repro.analysis.locality.reuse_distances` walks, so folding a
    complete record sequence reproduces
    :func:`repro.analysis.locality.analyse_locality` exactly —
    including its power-of-two distance bucketing and the
    most-recent-8-lines "hot" criterion.
    """

    __slots__ = ("accesses", "hot", "histogram", "pages", "_stack")

    def __init__(self) -> None:
        self.accesses = 0
        self.hot = 0
        self.histogram: Counter[int] = Counter()
        self.pages: set[int] = set()
        self._stack: OrderedDict[int, None] = OrderedDict()

    def fold(self, record) -> None:
        self.pages.add(record.addr // PAGE_SIZE)
        self.fold_line(record.addr // LINE_SIZE)

    def fold_line(self, line: int) -> int:
        """Fold one line access; returns its LRU stack distance (-1 cold)."""
        self.accesses += 1
        stack = self._stack
        if line in stack:
            distance = list(stack.keys())[::-1].index(line)
            stack.move_to_end(line)
            bucket = 0
            while (1 << (bucket + 1)) <= distance + 1:
                bucket += 1
            self.histogram[bucket] += 1
            if distance < 8:
                self.hot += 1
            return distance
        stack[line] = None
        self.histogram[-1] += 1
        return -1

    @property
    def unique_lines(self) -> int:
        return len(self._stack)

    @property
    def unique_pages(self) -> int:
        return len(self.pages)

    @property
    def hot_fraction(self) -> float:
        return self.hot / self.accesses if self.accesses else 0.0


class RedundancyFold:
    """Incremental per-address rewrite counts (section 2.7)."""

    __slots__ = ("counts", "total_writes")

    def __init__(self) -> None:
        self.counts: Counter[int] = Counter()
        self.total_writes = 0

    def fold(self, record) -> None:
        self.counts[record.addr] += 1
        self.total_writes += 1

    @property
    def unique_locations(self) -> int:
        return len(self.counts)

    @property
    def redundant_writes(self) -> int:
        return self.total_writes - len(self.counts)

    def hot_locations(self, top: int = 10) -> list[tuple[int, int]]:
        return self.counts.most_common(top)


class PageTouchAttribution:
    """Per-key (e.g. per-client) page-touch accounting.

    Used by the transaction server to attribute working-set footprint
    to clients: RVM recoverable segments are deliberately *unlogged*,
    so attribution happens where the client identity is known — at the
    request dispatcher — rather than in the hardware log stream.
    """

    __slots__ = ("_pages",)

    def __init__(self) -> None:
        self._pages: dict[object, Counter] = {}

    def touch(self, key, vaddr: int, nbytes: int = 1) -> None:
        counter = self._pages.get(key)
        if counter is None:
            counter = self._pages[key] = Counter()
        first = vaddr // PAGE_SIZE
        last = (vaddr + max(nbytes, 1) - 1) // PAGE_SIZE
        for page in range(first, last + 1):
            counter[page] += 1

    def wss(self, key) -> int:
        """Unique pages the key has touched."""
        counter = self._pages.get(key)
        return len(counter) if counter is not None else 0

    def keys(self) -> list:
        return list(self._pages)

    def report(self) -> dict:
        return {
            key: {
                "pages": len(counter),
                "writes": sum(counter.values()),
            }
            for key, counter in self._pages.items()
        }


def fold_records(records: Iterable, *folds) -> tuple:
    """Fold every record through each fold, in order; returns ``folds``."""
    for record in records:
        for fold in folds:
            fold.fold(record)
    return folds
