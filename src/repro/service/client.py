"""Client library for the filter-serving daemon (sync + async).

Both clients speak the :mod:`repro.service.protocol` frames over one
TCP connection with strict request/response ordering.  The sync
:class:`FilterClient` is the ergonomic default for scripts and the CLI;
:class:`AsyncFilterClient` is for callers that want many in-flight
connections from one process (the integration tests and the throughput
benchmark drive the daemon's coalescer with it).

Both are thin shells over one sans-IO request core: every operation is
defined once, as a request (opcode, body, expected reply, decoder,
deadline), and the core also applies the breaker and checks the reply.
The shells only connect, send and receive — so an async call is the
sync call awaited.

Wire keys: every keyed operation sends its keys as one column of
``uint64`` wire keys (a ``BULK64_*`` frame; a point operation is a
one-key column).  The wire key of a ``str`` or ``bytes`` key is
:func:`~repro.hashing.encoders.encode_bytes` of its bytes (UTF-8 for
``str``), computed in bulk by :func:`~repro.hashing.encoders.
encode_str_array` — see :func:`wire_keys`.  That is the default
encoding every filter applies to the same byte key, so the daemon
never encodes a key and a served filter is byte-identical to an
in-process one fed the same keys.  Replies unpack vectorised
(``unpack_bools_array`` over the reply buffer — no per-bit Python
loop).

Connection establishment retries with full-jitter exponential backoff
(each attempt sleeps ``uniform(0, min(cap, base * 2**attempt))``) —
daemons come up asynchronously and "connect until it answers" is the
protocol every deployment script otherwise reinvents, and the jitter
keeps a fleet of clients (or a router's fan-out) from stampeding a
restarting node in lockstep.

Error frames re-raise as :class:`~repro.service.protocol.RemoteError`,
whose ``code`` preserves which :mod:`repro.errors` failure the server
hit (e.g. ``COUNTER_UNDERFLOW`` for deleting an absent key).

Overload integration (both transports, off by default):

- ``deadline_s`` gives every keyed operation a time budget.  The frame
  then travels DEADLINE-wrapped, carrying *remaining* budget (client
  deadline minus elapsed) so the server can shed the request once it
  cannot possibly answer in time.  Per-call ``deadline=`` overrides
  the default — a :class:`~repro.overload.Deadline` shared across
  retries keeps shrinking, which is the point.
- ``breaker`` installs a :class:`~repro.overload.CircuitBreaker` in
  front of the transport.  ``OVERLOADED`` answers and transport
  failures count as failures; any other server answer (including
  application errors) proves the node is serving and counts as
  success.  While open, calls fail locally with
  :class:`~repro.errors.OverloadedError` — no packet is sent.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from typing import Callable, NamedTuple

import numpy as np

from repro.hashing.encoders import encode_bytes, encode_str_array
from repro.overload import Deadline
from repro.service.protocol import (
    ErrorCode,
    FrameDecoder,
    Opcode,
    ProtocolError,
    RemoteError,
    decode_error_body,
    encode_bulk64_body,
    encode_deadline_body,
    encode_frame,
    read_frame,
    unpack_bools_array,
    unpack_counts64,
)

__all__ = ["FilterClient", "AsyncFilterClient", "wire_keys"]

#: Backoff delays never exceed this many seconds, jitter included.
BACKOFF_CAP_S = 2.0
#: Smallest batch :func:`wire_keys` encodes vectorised; below it the
#: per-key fold is cheaper than the vectorised fold's fixed cost
#: (measured: one key ~150 us vectorised vs ~5 us per key).
_VECTOR_MIN_KEYS = 64


def _jittered_delay(base_s: float, attempt: int, rng=random) -> float:
    """Full-jitter exponential backoff delay for retry ``attempt`` (0-based).

    ``rng`` defaults to the module-level :mod:`random` generator; the
    chaos harness injects a seeded ``random.Random`` so retry timing is
    reproducible from the schedule seed.
    """
    return rng.uniform(0.0, min(BACKOFF_CAP_S, base_s * (2 ** (attempt + 1))))


def _to_bytes(key) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    raise TypeError(f"wire keys must be str or bytes, got {type(key).__name__}")


def wire_keys(keys) -> np.ndarray:
    """Encode ``str``/``bytes`` keys to the ``uint64`` column the wire
    carries.

    Each key's wire form is :func:`~repro.hashing.encoders.encode_bytes`
    of its bytes (UTF-8 for ``str``).  A batch of at least 64 keys
    takes the vectorised FNV fold
    (:func:`encode_str_array`) unless a key ends in a NUL — NumPy ``S``
    arrays strip trailing NULs, so such a batch, like a small one,
    encodes key by key instead.
    """
    raw = [_to_bytes(key) for key in keys]
    if len(raw) >= _VECTOR_MIN_KEYS and not any(
        key[-1:] == b"\x00" for key in raw
    ):
        arr = np.array(raw, dtype=np.bytes_)
        if arr.dtype.itemsize:
            return encode_str_array(arr)
    return np.fromiter((encode_bytes(key) for key in raw), np.uint64, len(raw))


class _Request(NamedTuple):
    """One exchange, fully described before any IO happens."""

    opcode: Opcode
    body: bytes
    #: Reply opcode to expect; ``None`` accepts any (raw :meth:`call`).
    reply: Opcode | None
    #: Turns the reply body into the operation's result.
    decode: Callable[[bytes], object] | None
    deadline: Deadline | None = None


def _ack(body: bytes) -> None:
    return None


def _true(body: bytes) -> bool:
    return True


def _first_bool(body: bytes) -> bool:
    return bool(unpack_bools_array(body)[0])


def _json(body: bytes) -> dict:
    return json.loads(body.decode("utf-8"))


#: Keyed opcode → (reply opcode, reply decoder).
_KEYED = {
    Opcode.BULK64_INSERT: (Opcode.OK, _ack),
    Opcode.BULK64_DELETE: (Opcode.OK, _ack),
    Opcode.BULK64_QUERY: (Opcode.BITMAP, unpack_bools_array),
    Opcode.BULK64_COUNT: (Opcode.COUNTS64, unpack_counts64),
}


class _RequestCore:
    """The sans-IO request core both transports share.

    Each operation below builds a :class:`_Request` and hands it to the
    transport's ``_exchange``, which sends :meth:`_frame` and returns
    :meth:`_reply`.  The sync shell's ``_exchange`` returns the decoded
    result; the async shell's is a coroutine function, so on
    :class:`AsyncFilterClient` every operation returns an awaitable.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retries: int,
        backoff_s: float,
        deadline_s: float | None,
        breaker,
        transport,
        rng,
    ) -> None:
        self.host = host
        self.port = port
        self.retries = retries
        self.backoff_s = backoff_s
        self.deadline_s = deadline_s
        self.breaker = breaker
        if transport is None:
            from repro.service.transport import REAL_TRANSPORT

            transport = REAL_TRANSPORT
        self.transport = transport
        self._rng = rng if rng is not None else random

    def _unreachable(self, error) -> ConnectionError:
        return ConnectionError(
            f"cannot reach repro service at {self.host}:{self.port}: {error}"
        )

    # -- the two IO-free halves of an exchange ----------------------------
    def _frame(self, request: _Request) -> bytes:
        """Gate on the breaker, then encode the frame.

        The DEADLINE wrapper's budget is read here, just before the
        send, so whatever the caller already spent (earlier attempts
        against another node, retry sleeps) is deducted.
        """
        if self.breaker is not None:
            self.breaker.allow()
        if request.deadline is None:
            return encode_frame(request.opcode, request.body)
        return encode_frame(
            Opcode.DEADLINE,
            encode_deadline_body(
                request.deadline.remaining_us(), request.opcode, request.body
            ),
        )

    def _transport_failed(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _reply(self, request: _Request, opcode: Opcode, body: bytes):
        """Classify one reply for the breaker, check it, decode it."""
        if opcode == Opcode.ERROR:
            code, message = decode_error_body(body)
            if self.breaker is not None:
                if code == ErrorCode.OVERLOADED:
                    self.breaker.record_failure()
                else:
                    # The node answered; even an application error means
                    # it is serving — only overload opens the breaker.
                    self.breaker.record_success()
            raise RemoteError(code, message)
        if self.breaker is not None:
            self.breaker.record_success()
        if request.reply is None:
            return opcode, body
        if opcode != request.reply:
            raise ProtocolError(
                f"expected {request.reply.name} response, got {opcode.name}"
            )
        return request.decode(body)

    # -- operations -------------------------------------------------------
    def _keyed(self, opcode: Opcode, column, deadline, decode=None) -> _Request:
        reply, default_decode = _KEYED[opcode]
        if deadline is None and self.deadline_s is not None:
            deadline = Deadline.after(self.deadline_s)
        return _Request(
            opcode,
            encode_bulk64_body(column),
            reply,
            decode or default_decode,
            deadline,
        )

    def send_column(self, opcode: Opcode, column, *, deadline=None):
        """Send one keyed frame over an already-encoded wire-key column.

        Every keyed operation ends here; the cluster router forwards the
        columns it routes through this directly.  ``deadline`` defaults
        to ``deadline_s`` from now.
        """
        return self._exchange(self._keyed(opcode, column, deadline))

    def insert_many(self, keys, *, deadline=None) -> None:
        """Insert every key (one BULK64_INSERT frame)."""
        return self.send_column(
            Opcode.BULK64_INSERT, wire_keys(keys), deadline=deadline
        )

    def delete_many(self, keys, *, deadline=None) -> None:
        """Delete every key (one BULK64_DELETE frame)."""
        return self.send_column(
            Opcode.BULK64_DELETE, wire_keys(keys), deadline=deadline
        )

    def query_many(self, keys, *, deadline=None) -> np.ndarray:
        """Membership of every key, as a bool array."""
        return self.send_column(
            Opcode.BULK64_QUERY, wire_keys(keys), deadline=deadline
        )

    def count_many(self, keys, *, deadline=None) -> np.ndarray:
        """Multiplicity estimates of every key, as a ``uint64`` array."""
        return self.send_column(
            Opcode.BULK64_COUNT, wire_keys(keys), deadline=deadline
        )

    #: The ``*_many64`` names: each is the same operation as its
    #: ``*_many`` twin.
    insert_many64 = insert_many
    delete_many64 = delete_many
    query_many64 = query_many
    count_many64 = count_many

    def insert(self, key, *, deadline=None) -> None:
        return self.insert_many([key], deadline=deadline)

    def delete(self, key, *, deadline=None) -> None:
        return self.delete_many([key], deadline=deadline)

    def query(self, key, *, deadline=None) -> bool:
        return self._exchange(
            self._keyed(
                Opcode.BULK64_QUERY, wire_keys([key]), deadline, _first_bool
            )
        )

    def ping(self) -> bool:
        return self._exchange(_Request(Opcode.PING, b"", Opcode.OK, _true))

    def stats(self) -> dict:
        return self._exchange(_Request(Opcode.STATS, b"", Opcode.JSON, _json))

    def snapshot(self) -> dict:
        return self._exchange(
            _Request(Opcode.SNAPSHOT, b"", Opcode.JSON, _json)
        )

    def call(self, opcode: Opcode, body: bytes = b""):
        """Send one raw frame; returns ``(opcode, body)`` of the reply.

        Error frames raise :class:`RemoteError` like every typed call.
        The escape hatch the cluster tooling (epoch fetches, migration
        verbs) uses for opcodes without a dedicated method.
        """
        return self._exchange(_Request(opcode, body, None, None))


class FilterClient(_RequestCore):
    """Blocking client; usable as a context manager.

    Parameters
    ----------
    host, port:
        Daemon address.
    timeout_s:
        Socket timeout for each call.
    retries, backoff_s:
        Connection attempts and the base retry delay.  Attempt ``n``
        sleeps ``uniform(0, min(2.0, backoff_s * 2**n))`` — full-jitter
        exponential backoff.
    deadline_s:
        Default time budget per keyed operation; requests travel
        DEADLINE-wrapped so the server can shed them once stale.
        ``None`` (default) sends bare frames.
    breaker:
        Optional :class:`~repro.overload.CircuitBreaker` gating every
        operation; ``None`` (default) disables breaking.
    transport:
        Connection factory (default: real TCP via
        :data:`repro.service.transport.REAL_TRANSPORT`).
    rng:
        Random source for backoff jitter (default: the module-level
        :mod:`random` generator); inject a seeded ``random.Random``
        for reproducible retry timing.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7757,
        *,
        timeout_s: float = 10.0,
        retries: int = 8,
        backoff_s: float = 0.05,
        deadline_s: float | None = None,
        breaker=None,
        transport=None,
        rng=None,
    ) -> None:
        super().__init__(
            host,
            port,
            retries=retries,
            backoff_s=backoff_s,
            deadline_s=deadline_s,
            breaker=breaker,
            transport=transport,
            rng=rng,
        )
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._decoder = FrameDecoder()

    def connect(self) -> "FilterClient":
        """Connect with retry/backoff; returns self for chaining."""
        if self._sock is not None:
            return self
        last_error: Exception | None = None
        for attempt in range(max(1, self.retries)):
            try:
                self._sock = self.transport.create_connection(
                    self.host, self.port, timeout_s=self.timeout_s
                )
                self._decoder = FrameDecoder()
                return self
            except OSError as exc:
                last_error = exc
                time.sleep(
                    _jittered_delay(self.backoff_s, attempt, self._rng)
                )
        raise self._unreachable(last_error)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "FilterClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def bulk64_supported(self) -> bool:
        """Whether the server speaks the BULK64 frames: one PING.

        Every server does (they are the only keyed requests), so this is
        a liveness check kept for scripts that ask before bulk traffic.
        """
        return self.ping()

    def _exchange(self, request: _Request):
        frame = self._frame(request)
        try:
            if self._sock is None:
                self.connect()
            self._sock.sendall(frame)
            while True:
                for opcode, body in self._decoder.frames():
                    return self._reply(request, opcode, body)
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                self._decoder.feed(chunk)
        except OSError:
            # A timed-out or failed call leaves the strict request/
            # response stream desynchronised — the reply may arrive
            # later and would answer the *next* request.  Drop the
            # connection so a retry starts on a clean stream.
            self.close()
            self._transport_failed()
            raise


class AsyncFilterClient(_RequestCore):
    """Asyncio client with :class:`FilterClient`'s operations, each
    returning an awaitable."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7757,
        *,
        retries: int = 8,
        backoff_s: float = 0.05,
        deadline_s: float | None = None,
        breaker=None,
        transport=None,
        rng=None,
    ) -> None:
        super().__init__(
            host,
            port,
            retries=retries,
            backoff_s=backoff_s,
            deadline_s=deadline_s,
            breaker=breaker,
            transport=transport,
            rng=rng,
        )
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "AsyncFilterClient":
        if self._writer is not None:
            return self
        last_error: Exception | None = None
        for attempt in range(max(1, self.retries)):
            try:
                (
                    self._reader,
                    self._writer,
                ) = await self.transport.open_connection(self.host, self.port)
                return self
            except OSError as exc:
                last_error = exc
                await asyncio.sleep(
                    _jittered_delay(self.backoff_s, attempt, self._rng)
                )
        raise self._unreachable(last_error)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncFilterClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _exchange(self, request: _Request):
        frame = self._frame(request)
        try:
            if self._writer is None:
                await self.connect()
            self._writer.write(frame)
            await self._writer.drain()
            parsed = await read_frame(self._reader)
            if parsed is None:
                raise ConnectionError("server closed the connection")
        except OSError:
            # Same desync hazard as the sync client: never reuse a
            # stream whose in-flight reply was abandoned.
            await self.close()
            self._transport_failed()
            raise
        return self._reply(request, *parsed)
