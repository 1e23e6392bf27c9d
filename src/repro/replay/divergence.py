"""Divergence detection between a recorded run and a re-execution.

Deterministic replay is only trustworthy if re-executing a workload
reproduces it exactly.  The authoritative evidence is the hardware's own
write log: two executions of the same deterministic workload must
produce byte-identical record streams — same addresses, values, sizes
*and* timestamps (the logger's 6.25 MHz counter, so cycle timing is
part of the contract).  :func:`record_reference` runs a workload once
and keeps its record stream (plus, optionally, the cycle-domain obs
trace from :mod:`repro.obs`); :func:`replay_against` re-executes and
reports the *first* position — and machine cycle — at which the logged
writes differ, or ``None`` when the runs are identical.

A workload here is either the name of a canned workload
(:mod:`repro.obs.workloads`) or any callable returning a summary dict
with ``"machine"`` and ``"log"`` keys, the same contract the obs CLI
uses.  Traced and untraced executions are cycle-identical (the obs
layer's fast-path fallback guarantees it), so a traced reference may be
compared against an untraced replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import LoggingError
from repro.hw.records import LogRecord
from repro import probe
from repro.obs.core import Observability
from repro.obs.trace import DEFAULT_CATEGORIES, Tracer

#: Trace categories recorded with a reference run: the defaults plus the
#: per-record "logger" category, which is the one that narrates the very
#: stream being compared.
REFERENCE_CATEGORIES = frozenset(DEFAULT_CATEGORIES | {"logger"})


@dataclass(frozen=True)
class Divergence:
    """The first point at which a replay's logged writes differ."""

    #: history position (index into the record stream) of the mismatch
    index: int
    #: machine cycle of the diverging write — the start of the 6.25 MHz
    #: timestamp window of the first differing record
    cycle: int
    #: the record the reference logged at this position (None: replay
    #: logged extra records past the reference's end)
    expected: LogRecord | None
    #: the record the replay logged at this position (None: replay
    #: stopped short of the reference)
    actual: LogRecord | None

    @property
    def reason(self) -> str:
        if self.expected is None:
            return "replay logged extra records"
        if self.actual is None:
            return "replay stopped short"
        fields = [
            name
            for name in ("addr", "value", "size", "timestamp", "flags")
            if getattr(self.expected, name) != getattr(self.actual, name)
        ]
        return f"record mismatch in {', '.join(fields)}"

    def __str__(self) -> str:
        return (
            f"first divergence at write {self.index} (cycle {self.cycle}): "
            f"{self.reason}\n  expected: {self.expected}\n  actual:   {self.actual}"
        )


@dataclass(frozen=True)
class ReferenceRun:
    """A recorded execution: its logged writes and (optionally) trace."""

    #: workload name (canned) or the callable's __name__
    workload: str
    #: the full retained record stream, in write order
    records: tuple[LogRecord, ...]
    #: machine time when the run finished
    cycles: int
    #: CPU cycles per 6.25 MHz timestamp tick (Clock.timestamp)
    timestamp_divider: int
    #: Chrome trace-event document for the run, when recorded traced
    trace: dict | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.records)


def _resolve(workload) -> tuple[str, Callable[[], dict]]:
    if isinstance(workload, str):
        from repro.obs.workloads import run_workload

        return workload, lambda: run_workload(workload)
    if not callable(workload):
        raise LoggingError(
            "workload must be a canned-workload name or a callable "
            "returning a summary dict"
        )
    return getattr(workload, "__name__", repr(workload)), workload


def _execute(workload, trace: bool) -> tuple[str, dict, dict | None]:
    name, fn = _resolve(workload)
    if not trace:
        summary = fn()
        return name, summary, None
    tracer = Tracer(categories=REFERENCE_CATEGORIES)
    obs = Observability(tracer=tracer)
    with probe.attached(obs):
        summary = fn()
        machine = summary["machine"]
        tracer.clock = machine.clock
        obs.finalize(machine.clock.now)
    return name, summary, tracer.to_json(other_data={"workload": name})


def _record_stream(summary: dict) -> tuple[LogRecord, ...]:
    log = summary.get("log")
    if log is None:
        raise LoggingError(
            "workload produced no hardware log; divergence detection "
            "compares logged writes (summary['log'] must be a LogSegment)"
        )
    summary["machine"].quiesce()
    return tuple(log.records())


def record_reference(workload, trace: bool = True) -> ReferenceRun:
    """Execute ``workload`` once and record its logged-write stream.

    With ``trace=True`` (the default) the run executes under an
    installed obs :class:`~repro.obs.trace.Tracer` including the
    per-record ``logger`` category, and the finished Chrome trace
    document rides along on the returned :class:`ReferenceRun` — the
    record stream stays cycle-identical either way.
    """
    name, summary, trace_doc = _execute(workload, trace)
    machine = summary["machine"]
    return ReferenceRun(
        workload=name,
        records=_record_stream(summary),
        cycles=machine.time(),
        timestamp_divider=machine.config.timestamp_divider,
        trace=trace_doc,
    )


def find_divergence(
    expected, actual, timestamp_divider: int = 1
) -> Divergence | None:
    """First position where two record streams differ, or ``None``.

    The reported ``cycle`` is the first CPU cycle of the diverging
    record's timestamp window (``timestamp * timestamp_divider``) —
    the earliest cycle at which the hardware could have logged it.
    """
    expected = list(expected)
    actual = list(actual)
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return Divergence(
                index=index,
                cycle=want.timestamp * timestamp_divider,
                expected=want,
                actual=got,
            )
    if len(expected) == len(actual):
        return None
    index = min(len(expected), len(actual))
    longer = expected[index] if len(expected) > len(actual) else actual[index]
    return Divergence(
        index=index,
        cycle=longer.timestamp * timestamp_divider,
        expected=expected[index] if index < len(expected) else None,
        actual=actual[index] if index < len(actual) else None,
    )


def replay_against(
    reference: ReferenceRun, workload=None, trace: bool = False
) -> Divergence | None:
    """Re-execute and compare against ``reference``.

    ``workload`` defaults to the reference's canned-workload name; pass
    the original callable when the reference was recorded from one.
    Returns ``None`` when the replay reproduced every logged write —
    addresses, values, sizes and timestamps — and otherwise the first
    :class:`Divergence`.
    """
    if workload is None:
        workload = reference.workload
    _name, summary, _doc = _execute(workload, trace)
    actual = _record_stream(summary)
    return find_divergence(
        reference.records, actual, reference.timestamp_divider
    )
