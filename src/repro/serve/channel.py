"""In-process async request channel between clients and the server.

A thin, deterministic stand-in for a network transport: requests enter
a FIFO :class:`asyncio.Queue` and the caller awaits a future the
server resolves when the operation completes (for a commit, when it is
*durable* — the acknowledgement a client may trust after a crash).
FIFO order plus the single-threaded event loop make every serve run
schedule-deterministic, which the crash tests rely on.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field


@dataclass
class Request:
    """One client operation in flight."""

    op: str  # "begin" | "write" | "commit" | "abort" | "shutdown"
    client: int
    payload: tuple = ()
    future: asyncio.Future = field(default=None, repr=False)
    #: deterministic request id minted by ``TxnServer.submit``
    rid: int | None = None


class Channel:
    """FIFO request pipe: clients ``call``, the server consumes."""

    def __init__(self) -> None:
        self._queue: asyncio.Queue[Request] = asyncio.Queue()

    async def call(self, op: str, client: int, *payload, rid=None):
        """Submit a request and await the server's response."""
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(Request(op, client, payload, future, rid))
        return await future

    async def next_request(self) -> Request:
        return await self._queue.get()

    def pending(self) -> int:
        """Requests queued but not yet consumed by the server."""
        return self._queue.qsize()
