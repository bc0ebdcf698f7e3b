"""Client-side cluster routing: the ring without the router daemon.

:class:`ClusterClient` embeds the same :class:`~repro.cluster.router.
HashRing` the router daemon uses, so a process that knows the topology
can talk straight to the shard groups — one network hop instead of two.
The router daemon remains the right front door for clients that should
not carry topology (or that benefit from its server-side coalescing);
both route identically because they share the ring implementation.
It drives the router's own async fan-out on a private event loop, so
call it from a thread with no running loop (``asyncio.to_thread``).

Topology is cached per client: the constructor seeds it (spec strings
or a fetched epoch) and no call thereafter touches the ring until the
cluster says it must — a ``MOVED`` redirect or a ``WRONG_EPOCH`` fence
rejection.  Only then does the client refetch the epoch from the nodes
it knows, with full-jitter backoff between attempts, and retry the
operation under the new ring.  During a live resharding this is the
whole client-visible story: a handful of retried calls while the
coordinator bumps the epoch, and zero lost acknowledged writes.

The surface mirrors :class:`~repro.service.client.FilterClient`
(``insert_many`` / ``query_many`` / ``delete_many`` / single-key
helpers), plus :meth:`status` for a cluster-wide health/replication
report — what ``repro cluster status`` prints.  Keys are encoded to
their wire form (:func:`~repro.service.client.wire_keys`) once, up
front, so a key lands on the same group whether it was written here,
through the router daemon, or by a plain client of either.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.cluster.router import (
    HashRing,
    HealthChecker,
    RouterBackend,
    ShardGroup,
    parse_group,
)
from repro.errors import ClusterError, OverloadedError
from repro.service.client import _jittered_delay, wire_keys
from repro.service.protocol import ErrorCode, Opcode, RemoteError

__all__ = ["ClusterClient"]


class ClusterClient:
    """Blocking cluster client; usable as a context manager.

    Parameters
    ----------
    groups:
        :class:`ShardGroup` objects or ``NAME=HOST:PORT[,HOST:PORT...]``
        spec strings (see :func:`~repro.cluster.router.parse_group`).
    vnodes:
        Virtual nodes per group — must match the router daemon's setting
        for the two to agree on placement.
    timeout_s:
        Per-call socket timeout.
    check_health:
        When True, probe every node's ``/healthz`` once up front (only
        nodes with a health port participate) so reads skip known-dead
        primaries immediately instead of waiting out a timeout.
    retries, backoff_s:
        Topology-race retry budget.  ``MOVED`` / ``WRONG_EPOCH``
        rejections and unreachable-primary errors back off with
        full-jitter exponential delays, refresh the cached topology,
        and resend — the client-side half of epoch fencing.
    """

    def __init__(
        self,
        groups,
        *,
        vnodes: int = 64,
        timeout_s: float = 5.0,
        check_health: bool = False,
        retries: int = 10,
        backoff_s: float = 0.05,
    ) -> None:
        parsed = [
            group if isinstance(group, ShardGroup) else parse_group(group)
            for group in groups
        ]
        ring = HashRing(parsed, vnodes=vnodes)
        self._loop = asyncio.new_event_loop()
        health = None
        if check_health:
            nodes = [node for group in parsed for node in group.nodes]
            health = HealthChecker(nodes)
            self._run(health.check_now())
        self.retries = retries
        self.backoff_s = backoff_s
        self._backend = RouterBackend(ring, health=health, timeout_s=timeout_s)

    def _run(self, awaitable):
        return self._loop.run_until_complete(awaitable)

    @property
    def ring(self) -> HashRing:
        return self._backend.ring

    def refresh_topology(self) -> bool:
        """Refetch the ring epoch from the cluster; True when newer.

        Called automatically on redirects; exposed for tooling that
        knows a topology change just happened (e.g. the CLI after a
        ``repro cluster join``).
        """
        return self._run(self._backend.refresh_epoch())

    def _with_retry(self, operation):
        """Run ``operation()``, a coroutine, through the topology-race
        retry loop.

        ``MOVED`` means the cached ring is stale; ``WRONG_EPOCH`` means
        the key's range is fenced *right now* and will reopen on the
        new owner within the fence window; ``ClusterError`` and
        ``OSError`` cover a primary that vanished or stalled mid-drain
        (the client drops a timed-out connection, so the retry starts
        on a clean stream).  All are transient by protocol contract,
        so: full-jitter backoff, refresh the cached topology, resend.

        ``OVERLOADED`` — from a node's admission control (a
        :class:`RemoteError` carrying a retry-after hint) or from the
        embedded router's own circuit breaker (a local
        :class:`~repro.errors.OverloadedError`) — is also retried, but
        differently: the client sleeps *at least* the server's
        retry-after hint (plus jitter), and does not refetch topology —
        the ring is fine, the node is busy.  Anything else propagates
        untouched.

        One wrinkle: transport failures also feed the breaker, so a
        plain *dead* group can open it mid-loop.  A local breaker
        rejection carries no information the caller can act on, so when
        the retry budget runs out on one, the last real transport error
        is raised instead — an unreachable group always reports as
        ``ClusterError``, never as a synthesized ``OVERLOADED``.
        """
        last_transport: BaseException | None = None
        for attempt in range(max(1, self.retries)):
            hint = 0.0
            refresh = True
            try:
                return self._run(operation())
            except OverloadedError as exc:
                # Raised locally by the router's per-group breaker; no
                # packet was sent, the hint is the remaining cooldown.
                if attempt == self.retries - 1:
                    if last_transport is not None:
                        raise last_transport from exc
                    raise
                hint = exc.retry_after_s or 0.0
                refresh = False
            except RemoteError as exc:
                last_transport = None  # the node answered: it is alive
                if exc.code == ErrorCode.OVERLOADED:
                    if attempt == self.retries - 1:
                        raise
                    hint = exc.retry_after_s or 0.0
                    refresh = False
                elif exc.code not in (ErrorCode.MOVED, ErrorCode.WRONG_EPOCH):
                    raise
                elif attempt == self.retries - 1:
                    raise
            except (ClusterError, OSError) as exc:
                last_transport = exc
                if attempt == self.retries - 1:
                    raise
            time.sleep(hint + _jittered_delay(self.backoff_s, attempt))
            if refresh:
                self.refresh_topology()

    # -- operations ------------------------------------------------------
    def insert(self, key) -> None:
        self.insert_many([key])

    def delete(self, key) -> None:
        self.delete_many([key])

    def query(self, key) -> bool:
        return bool(self.query_many([key])[0])

    async def _apply(self, op: Opcode, column: np.ndarray):
        (result,) = await self._backend.apply(op, [column])
        if isinstance(result, BaseException):
            raise result
        return result

    def insert_many(self, keys) -> None:
        column = wire_keys(keys)
        self._with_retry(lambda: self._apply(Opcode.BULK64_INSERT, column))

    def delete_many(self, keys) -> None:
        column = wire_keys(keys)
        self._with_retry(lambda: self._apply(Opcode.BULK64_DELETE, column))

    def query_many(self, keys) -> np.ndarray:
        column = wire_keys(keys)
        return self._with_retry(lambda: self._apply(Opcode.BULK64_QUERY, column))

    def status(self) -> dict:
        """Topology, health, and per-node replication state."""
        return {
            "router": self._backend.describe(),
            "nodes": self._run(self._backend.node_status()),
        }

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        if self._loop.is_closed():
            return
        self._run(self._backend.close())
        self._loop.close()

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
