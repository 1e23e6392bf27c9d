"""The one instrumentation gate: every consumer reads one event stream.

The paper's logger snoops each write once, at the bus, and every
consumer reads that one log.  Instrumentation has the same shape: a
site reads the module global ``_ACTIVE`` once and hands one typed event
per occurrence to whatever subscriber routes that kind::

    p = probe._ACTIVE
    if p is not None and "device.write" in p:
        p["device.write"](cpu.now, self.name, len(data), start, cpu.index)

With nothing attached a site costs one global load and one ``is None``
test.  The attached :class:`Probe` maps each routed kind to its
handler, so an event no subscriber routes costs a dict probe — no call
and no argument evaluation.  Subscribers (``Observability``,
``CausalTracker``, ``FlightRecorder``, ``AnalyticsHub``,
``LogRaceDetector``, ``FaultPlan``) provide ``handlers()`` (kind ->
callable) and may set ``per_record`` (it needs every record on the
generic logger/bulk paths, so the fused loops fall back) and
``pre_effect``.

Event order: a pre-effect subscriber (the fault plan) handles each
event before every other subscriber, and sites raise its events
(``hit`` and the ``*.begin`` events) before the effect they guard.
Spans, metrics and flight entries come from post-effect events, so a
crash never leaves a record of an I/O that did not happen.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import ConfigError

#: Post-effect events that close the causal stage their ``<kind>.begin``
#: event opened; LVM103 balances each pair on every normal path, together
#: with the explicit ``stage.enter`` / ``stage.exit`` events.
STAGED_KINDS = frozenset(
    {
        "wal.append",
        "wal.append_group",
        "device.write",
        "device.buffer",
        "device.flush",
        "device.barrier",
    }
)


def _fan_out(handlers: list):
    """One callable per route: the handler itself, or a fan-out whose
    result is true when any handler's is (a pre-effect veto, such as a
    fault plan forcing a FIFO drop)."""
    if len(handlers) == 1:
        return handlers[0]

    def fan_out(*args):
        vetoed = False
        for handler in handlers:
            if handler(*args):
                vetoed = True
        return vetoed

    return fan_out


class Probe(dict):
    """The attached subscribers: a map from each routed kind to its handler."""

    __slots__ = ("subscribers", "per_record")

    def __init__(self, subscribers: tuple) -> None:
        routes: dict[str, list] = {}
        ordered = sorted(subscribers, key=lambda s: not getattr(s, "pre_effect", False))
        for sub in ordered:
            for kind, handler in sub.handlers().items():
                routes.setdefault(kind, []).append(handler)
        super().__init__((kind, _fan_out(hs)) for kind, hs in routes.items())
        self.subscribers = subscribers
        #: a tracer or fault plan is attached: the fused logger/bulk
        #: loops must fall back to the generic per-record paths
        self.per_record = any(getattr(s, "per_record", False) for s in subscribers)



_ACTIVE: Probe | None = None


def hit(site: str, cycle: int | None = None, partial=None) -> None:
    """A named fault-injection site: no-op unless something is attached.

    ``partial`` makes the site torn-capable: a ``torn``-mode crash runs
    it first to make the site's half-done effect durable.
    """
    p = _ACTIVE
    if p is not None and "fault.site" in p:
        p["fault.site"](site, cycle, partial)


def attach(subscriber):
    """Add ``subscriber`` to the stream; one subscriber per type."""
    global _ACTIVE
    p = _ACTIVE
    subs = p.subscribers if p is not None else ()
    if any(type(s) is type(subscriber) for s in subs):
        raise ConfigError(f"a {type(subscriber).__name__} is already attached")
    _ACTIVE = Probe(subs + (subscriber,))
    return subscriber


def detach(subscriber) -> None:
    """Remove ``subscriber`` (a no-op when it is not attached)."""
    global _ACTIVE
    p = _ACTIVE
    subs = p.subscribers if p is not None else ()
    rest = tuple(s for s in subs if s is not subscriber)
    _ACTIVE = Probe(rest) if rest else None


def find(cls):
    """The attached subscriber of type ``cls``, or None."""
    p = _ACTIVE
    subs = p.subscribers if p is not None else ()
    return next((sub for sub in subs if isinstance(sub, cls)), None)


@contextmanager
def attached(subscriber):
    """Attach ``subscriber`` for the block, then restore the previous probe."""
    global _ACTIVE
    previous = _ACTIVE
    attach(subscriber)
    try:
        yield subscriber
    finally:
        _ACTIVE = previous
