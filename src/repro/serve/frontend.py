"""Asyncio HTTP frontend: thousands of clients, no thread per socket.

:class:`AsyncFrontend` is the HTTP server in front of a
:class:`~repro.serve.http.ServeApp`.  One event loop multiplexes every
client connection (keep-alive HTTP/1.1), and each parsed request is
dispatched to the transport-independent :func:`repro.serve.http.route`
function on a small worker-thread pool -- ``route`` ends in locks, file
reads, and queue mutations, none of which belong on the event loop.
The ``/v1/*`` API, the 429 drain-rate backpressure, the load-shed 429s,
and the Prometheus/JSON ``/metrics`` negotiation all live in ``route``.

The blocking facade (:meth:`serve_forever` / :meth:`shutdown` /
``server_address`` / :meth:`server_close`) follows the stdlib
``socketserver`` shape, which the CLI's signal-driven drain loop
drives.  The listening socket binds in the constructor -- callers read
``server_address`` before serving.

Concurrency bound: the event loop accepts any number of sockets, but at
most ``dispatch_threads`` requests execute concurrently -- everything
else queues in the executor, turning a thundering herd into a backlog
instead of a thread explosion.  The hard admission work (bounded queue,
shed policy) stays where it was, in the app.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _status_reasons

from ..obs.metrics import METRICS
from .http import ServeApp, route

#: Upper bound on one request head (request line + headers).
MAX_HEADER_BYTES = 32 * 1024

#: Upper bound on a request body (submissions are small JSON).
MAX_BODY_BYTES = 1024 * 1024


class AsyncFrontend:
    """Event-loop HTTP server over a :class:`ServeApp`.

    ``socketserver``-shaped: construct (binds the socket), read
    ``server_address``, call :meth:`serve_forever` on a thread, stop it
    with :meth:`shutdown`, release the port with :meth:`server_close`.
    """

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        dispatch_threads: int = 8,
    ) -> None:
        self.app = app
        self._sock = socket.create_server((host, port), backlog=512)
        self._sock.setblocking(False)
        self.server_address = self._sock.getsockname()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, dispatch_threads),
            thread_name_prefix="serve-frontend",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._finished = threading.Event()
        self._finished.set()  # not serving yet

    # -- blocking facade --------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocks)."""
        self._finished.clear()
        try:
            asyncio.run(self._serve())
        finally:
            self._finished.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread; blocks until
        the loop has exited (the ``socketserver`` contract)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)
        self._finished.wait()

    def server_close(self) -> None:
        self._executor.shutdown(wait=False)
        with contextlib.suppress(OSError):
            self._sock.close()

    # -- event loop -------------------------------------------------------------------

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle_client, sock=self._sock)
        try:
            await self._stop.wait()
        finally:
            server.close()
            # The listening socket is owned by `server` now; in-flight
            # connection handlers unwind on their own broken pipes.
            with contextlib.suppress(OSError):
                await server.wait_closed()
            self._loop = None

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        METRICS.inc("serve.frontend.connections")
        # asyncio sets TCP_NODELAY only on sockets whose proto is
        # IPPROTO_TCP, and socket.create_server's listener has proto 0,
        # so its accepted connections would otherwise keep Nagle on.
        sock = writer.get_extra_info("socket")
        if sock is not None:
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        loop = asyncio.get_running_loop()
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    return
                method, target, version, headers, body = request
                status, payload, content_type, extra = await loop.run_in_executor(
                    self._executor,
                    functools.partial(
                        route,
                        self.app,
                        method,
                        target,
                        body,
                        accept=headers.get("accept"),
                    ),
                )
                METRICS.inc("serve.frontend.requests")
                keep_alive = _keep_alive(version, headers.get("connection", ""))
                # One write per response: a head written apart from its
                # payload would leave the payload behind the client's
                # delayed ACK of the head.
                writer.write(
                    _response_head(status, content_type, len(payload), extra, keep_alive)
                    + payload
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            TimeoutError,
        ):
            return  # client went away or sent garbage framing; just unwind
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict, bytes] | None:
        """One parsed request ``(method, target, version, headers, body)``,
        or None at a clean end-of-stream."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
        headers: dict[str, str] = {}
        total = len(request_line)
        while True:
            line = await reader.readline()
            total += len(line)
            if total > MAX_HEADER_BYTES:
                return None
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            return None
        if not 0 <= length <= MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target, version, headers, body


def _keep_alive(version: str, connection: str) -> bool:
    """RFC 9112 persistence: HTTP/1.1 keeps the connection open unless
    the client sends ``Connection: close``; HTTP/1.0 closes it unless
    the client sends ``Connection: keep-alive``."""
    tokens = {token.strip().lower() for token in connection.split(",")}
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


def _response_head(
    status: int,
    content_type: str,
    content_length: int,
    extra: dict,
    keep_alive: bool,
) -> bytes:
    reason = _status_reasons.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Server: repro-serve",
        f"Content-Type: {content_type}",
        f"Content-Length: {content_length}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def make_async_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 0,
    dispatch_threads: int = 8,
) -> AsyncFrontend:
    """An :class:`AsyncFrontend` bound to ``app`` (port 0 = ephemeral)."""
    return AsyncFrontend(app, host=host, port=port, dispatch_threads=dispatch_threads)
