"""Correctness checks on each workload's outputs.

Each check runs after the timed phase, on the objects the run left
behind, and returns the number of operations that failed it.  An
operation is the workload's unit of work: a TPC-A transaction, a served
client transaction, a Time Warp event, or a page chunk of the copy.
Checks that can only judge a whole run (database consistency, equal
final states) fail every operation of that run.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest

import numpy as np

from repro.hw.params import PAGE_SIZE

_RECORD_DTYPE = np.dtype(
    [("addr", "<u4"), ("value", "<u4"), ("size", "<u2"), ("flags", "<u2"), ("ts", "<u4")]
)


def tpca_failures(balances, history_delta_total, recovered_balances, transactions) -> int:
    """TPC-A: accounts, tellers and branches all sum to the deltas the
    history records, before and after a crash and recovery.

    ``balances`` and ``recovered_balances`` are ``(accounts, tellers,
    branches)`` sums.  The history total is positive whenever a
    transaction ran, so the check cannot pass on an empty database.
    """
    expected = (history_delta_total,) * 3
    ok = (
        history_delta_total > 0
        and tuple(balances) == expected
        and tuple(recovered_balances) == tuple(balances)
    )
    return 0 if ok else transactions


def serve_failures(expected_tids, acked, commit_order, wal_tids, crashed) -> int:
    """Serve: every transaction a client began is acked exactly once,
    acks follow the commit-processing order, and the acked set equals
    the set of transactions the write-ahead log holds as committed.

    Returns the number of transactions that break one of these (at most
    ``len(expected_tids)``); a server crash fails all of them.
    """
    if crashed:
        return len(expected_tids)
    counts = Counter(acked)
    wal = set(wal_tids)
    failed = {tid for tid in expected_tids if counts[tid] != 1 or tid not in wal}
    failed |= wal.symmetric_difference(counts)
    for got, want in zip_longest(acked, commit_order):
        if got != want:
            failed.update(t for t in (got, want) if t is not None)
    return min(len(failed), len(expected_tids))


def timewarp_failures(lvm, copy, events) -> int:
    """Time Warp: both state savers commit the same events, end in the
    same object states, and never roll back on the forward path."""
    ok = (
        lvm.events_committed > 0
        and lvm.events_committed == copy.events_committed
        and lvm.final_state == copy.final_state
        and lvm.rollbacks == 0
        and copy.rollbacks == 0
    )
    return 0 if ok else events


def log_offsets(log, frame_to_page: dict[int, int]):
    """(segment offsets, values, sizes) of a bus-logged region's records.

    Reads the raw 16-byte records in one call and translates their
    physical addresses through ``frame_to_page`` (frame number → page
    index of the logged segment).  An address outside the segment maps
    to offset -1.
    """
    start, end = log.start_offset, log.append_offset
    rec = np.frombuffer(log.read_bytes(start, end - start), dtype=_RECORD_DTYPE)
    frames, inverse = np.unique(rec["addr"] // PAGE_SIZE, return_inverse=True)
    pages = np.array([frame_to_page.get(int(f), -1) for f in frames], dtype=np.int64)
    page = pages[inverse]
    offsets = np.where(page >= 0, page * PAGE_SIZE + rec["addr"] % PAGE_SIZE, -1)
    return offsets, rec["value"], rec["size"]


def bulk_failures(source: bytes, dest: bytes, offsets, values, sizes, chunk: int) -> int:
    """Bulk copy: the destination equals the source, and the log holds
    exactly one 4-byte record per copied word, in copy order, carrying
    the word written.  Returns the number of failed chunks."""
    n = len(source)
    chunks = -(-n // chunk)
    bad = np.zeros(chunks, dtype=bool)
    src = np.frombuffer(source, dtype=np.uint8)
    dst = np.frombuffer(dest, dtype=np.uint8)
    if len(dst) != n:
        return chunks
    diff = np.flatnonzero(src != dst)
    bad[diff // chunk] = True
    words = n // 4
    if len(offsets) != words:
        # Records lost or duplicated: judge each chunk by its record count.
        valid = offsets[(offsets >= 0) & (offsets < n)]
        counts = np.bincount(valid // chunk, minlength=chunks)
        bad |= counts != chunk // 4
        return int(bad.sum())
    expected_offsets = np.arange(0, n, 4)
    expected_values = np.frombuffer(source[: words * 4], dtype="<u4")
    wrong = (offsets != expected_offsets) | (values != expected_values) | (sizes != 4)
    bad[expected_offsets[wrong] // chunk] = True
    return int(bad.sum())
