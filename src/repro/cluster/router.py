"""Consistent-hash cluster router.

Scales the serving daemon horizontally the same way the paper scales a
filter vertically: partition the key space, make every access touch one
partition.  The paper's MPCBF partitions *words inside one memory* so a
query costs one DRAM row; the router partitions *keys across shard
groups* so a query costs one node.  Same trick, one level up (see
``docs/paper_mapping.md``).

Topology: the unit of placement is a :class:`ShardGroup` — a primary
plus its replicas, replicating via :mod:`repro.cluster.replication`.
Groups own ranges of a :class:`HashRing`: each group hashes to
``vnodes`` pseudo-random points on a 64-bit circle (BLAKE2b of
``"name#i"``), and a key belongs to the group owning the first point
after the key's own position: :func:`hash_key`, the BLAKE2b hash of
the key's u64 wire form (see :mod:`repro.service.protocol`).  Every
surface — router daemon, :class:`~repro.cluster.cluster_client.
ClusterClient`, node gates, migration streams — places a key by that
one rule.  Virtual nodes smooth the load (with one
point per group, a 2-group ring can split 90/10); adding a group moves
only ``~1/groups`` of the keys.

The router daemon reuses the serving stack wholesale: a
:class:`RouterBackend` implements the filter interface
(``insert_many`` / ``query_many`` / ``delete_many``), so a plain
:class:`~repro.service.server.FilterServer` hosts it and the
micro-batching coalescer works unchanged — concurrent client requests
coalesce into bulk batches *before* they fan out, amortising the
network round-trip per shard group exactly like the batcher amortises
interpreter overhead per filter call.

Failover: a :class:`HealthChecker` polls every node's ``/healthz``.
Reads route to the group's primary while it is healthy; on a primary
timeout or health-check failure they fall back to a replica (bounded
staleness: replication lag).  Writes have nowhere else to go — a dead
primary fails them with :class:`~repro.errors.ClusterError` until it
returns, preserving single-writer ordering per group.

Overload: an ``OVERLOADED`` answer from a primary sheds *reads* to the
group's replicas the same way a transport failure does (counted in
``overload_fallbacks``) — membership queries tolerate bounded
staleness, so replica capacity absorbs read storms.  Writes cannot
move, so each group's write path sits behind a
:class:`~repro.overload.CircuitBreaker`: a saturated or dead primary
trips it, and subsequent writes fail locally with a retry-after hint
instead of stoking the overload.  The breaker half-opens after its
cooldown and one probing write decides whether the group is back.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import struct
import threading
import urllib.request
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ClusterError, ConfigurationError
from repro.memmodel.accounting import AccessStats, OpKind
from repro.observability.logging import get_logger
from repro.overload import CircuitBreaker
from repro.service.client import FilterClient
from repro.service.protocol import ErrorCode, Opcode, RemoteError

__all__ = [
    "NodeAddress",
    "ShardGroup",
    "HashRing",
    "hash_key",
    "HealthChecker",
    "RouterBackend",
    "parse_node",
    "parse_group",
]

logger = get_logger("cluster.router")


@dataclass(frozen=True)
class NodeAddress:
    """One daemon's wire address, plus its observability port if known."""

    host: str
    port: int
    health_port: int | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def health_url(self) -> str | None:
        if self.health_port is None:
            return None
        return f"http://{self.host}:{self.health_port}/healthz"


def parse_node(spec: str) -> NodeAddress:
    """Parse ``HOST:PORT`` or ``HOST:PORT/HEALTHPORT``."""
    body, _, health = spec.partition("/")
    host, sep, port = body.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"node spec {spec!r} is not HOST:PORT[/HEALTHPORT]"
        )
    try:
        return NodeAddress(
            host=host,
            port=int(port),
            health_port=int(health) if health else None,
        )
    except ValueError:
        raise ConfigurationError(f"node spec {spec!r} has a non-integer port")


@dataclass(frozen=True)
class ShardGroup:
    """A primary and its replicas — the ring's unit of placement."""

    name: str
    primary: NodeAddress
    replicas: tuple[NodeAddress, ...] = ()

    @property
    def nodes(self) -> tuple[NodeAddress, ...]:
        return (self.primary, *self.replicas)


def parse_group(spec: str) -> ShardGroup:
    """Parse ``NAME=PRIMARY[,REPLICA...]`` (each a node spec)."""
    name, sep, rest = spec.partition("=")
    if not sep or not name or not rest:
        raise ConfigurationError(
            f"group spec {spec!r} is not NAME=HOST:PORT[,HOST:PORT...]"
        )
    nodes = [parse_node(part) for part in rest.split(",")]
    return ShardGroup(name=name, primary=nodes[0], replicas=tuple(nodes[1:]))


_U64 = struct.Struct("<Q")


def _hash64(data: bytes) -> int:
    return _U64.unpack(hashlib.blake2b(data, digest_size=8).digest())[0]


def hash_key(key: int) -> int:
    """A wire key's 64-bit ring position: BLAKE2b of its 8-byte
    little-endian packing."""
    return _hash64(_U64.pack(key))


class HashRing:
    """Consistent-hash ring with virtual nodes.

    ``lookup`` is O(log(groups * vnodes)) via bisect on the sorted
    point array.  The ring is immutable after construction; topology
    changes build a new ring (the router swaps it atomically).
    """

    def __init__(self, groups: list[ShardGroup], *, vnodes: int = 64) -> None:
        if not groups:
            raise ConfigurationError("a hash ring needs at least one group")
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        seen = set()
        for group in groups:
            if group.name in seen:
                raise ConfigurationError(
                    f"duplicate shard group name {group.name!r}"
                )
            seen.add(group.name)
        self.groups = {group.name: group for group in groups}
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for group in groups:
            for index in range(vnodes):
                points.append(
                    (_hash64(f"{group.name}#{index}".encode()), group.name)
                )
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def lookup(self, key: int) -> ShardGroup:
        """The group owning wire key ``key`` (at :func:`hash_key`)."""
        return self.groups[self.owner_at(hash_key(key))]

    def owner_at(self, position: int) -> str:
        """Name of the group owning ring ``position`` (a 64-bit hash).

        The owner is the group of the first ring point *strictly after*
        the position (``lookup`` uses ``bisect_right``), so each vnode
        point owns the arc ``[previous_point, point)`` ending at it.
        """
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0  # wrap: the first point owns the top arc
        return self._owners[index]

    def vnode_at(self, position: int) -> int:
        """The ring point (vnode position) owning ``position``."""
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0
        return self._points[index]

    def points(self) -> list[int]:
        """All vnode positions, sorted ascending."""
        return list(self._points)

    def partition(self, keys: np.ndarray) -> dict[str, np.ndarray]:
        """Split a wire-key column into per-group arrays of key *indices*."""
        parts: dict[str, list[int]] = {}
        for index, key in enumerate(keys.tolist()):
            parts.setdefault(self.lookup(key).name, []).append(index)
        return {
            name: np.asarray(indices, dtype=np.intp)
            for name, indices in parts.items()
        }

    def vnode_counts(self) -> dict[str, int]:
        counts: Counter[str] = Counter(self._owners)
        return {name: counts.get(name, 0) for name in self.groups}

    def load_fractions(self) -> dict[str, float]:
        """Fraction of the 64-bit hash space each group owns."""
        space = float(2**64)
        fractions = {name: 0.0 for name in self.groups}
        for index, point in enumerate(self._points):
            prev = self._points[index - 1] if index else self._points[-1]
            arc = (point - prev) % 2**64 if index else point + (2**64 - prev)
            fractions[self._owners[index]] += arc / space
        return fractions

    def describe(self) -> dict:
        return {
            "groups": sorted(self.groups),
            "vnodes": self.vnodes,
            "load_fractions": self.load_fractions(),
        }


class HealthChecker:
    """Background poller of every node's ``/healthz`` endpoint.

    Runs in a daemon thread (the router backend is already
    thread-based); nodes without a health port are assumed healthy and
    failures surface through connection errors instead.
    """

    def __init__(
        self,
        nodes: list[NodeAddress],
        *,
        interval_s: float = 1.0,
        timeout_s: float = 1.0,
        probe=None,
    ) -> None:
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        if probe is not None:
            # Injectable probe seam: ``probe(url) -> bool``.  The chaos
            # harness answers from simulated node state instead of HTTP.
            self._probe = probe
        self._urls = {
            node.address: node.health_url()
            for node in nodes
        }
        self._healthy = {address: True for address in self._urls}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def is_healthy(self, node: NodeAddress) -> bool:
        return self._healthy.get(node.address, True)

    def status(self) -> dict[str, bool]:
        return dict(self._healthy)

    def check_now(self) -> None:
        """One synchronous poll of every node (tests call this)."""
        for address, url in self._urls.items():
            if url is None:
                continue
            healthy = self._probe(url)
            if healthy != self._healthy[address]:
                logger.info(
                    "node_health_changed",
                    extra={"node": address, "healthy": healthy},
                )
            self._healthy[address] = healthy

    def _probe(self, url: str) -> bool:
        try:
            with urllib.request.urlopen(url, timeout=self.timeout_s) as resp:
                return 200 <= resp.status < 300
        except OSError:
            return False

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-health", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + self.timeout_s + 1.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            self.check_now()
            self._stop.wait(self.interval_s)


def _default_client_factory(
    node: NodeAddress, *, timeout_s: float
) -> FilterClient:
    return FilterClient(
        node.host,
        node.port,
        timeout_s=timeout_s,
        retries=2,
        backoff_s=0.02,
    )


@dataclass
class _GroupClients:
    """Cached connections to one shard group's nodes."""

    group: ShardGroup
    clients: dict[str, FilterClient] = field(default_factory=dict)
    #: ``factory(node, timeout_s=...) -> FilterClient`` — the router's
    #: client-construction seam (simulations inject their transport).
    factory: object = _default_client_factory

    def client(self, node: NodeAddress, *, timeout_s: float) -> FilterClient:
        client = self.clients.get(node.address)
        if client is None:
            client = self.factory(node, timeout_s=timeout_s)
            self.clients[node.address] = client
        return client

    def drop(self, node: NodeAddress) -> None:
        client = self.clients.pop(node.address, None)
        if client is not None:
            client.close()

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        self.clients.clear()


class RouterBackend:
    """Filter-shaped fan-out over a hash ring of shard groups.

    Implements exactly the interface
    :class:`~repro.service.batching.FilterExecutor` drives
    (``insert_many`` / ``query_many`` / ``delete_many`` over wire-key
    columns, which it forwards as they arrived), so a stock
    :class:`~repro.service.server.FilterServer` can host it: client
    requests coalesce in the server's micro-batcher, then each bulk
    call here partitions the batch by ring position and plays one
    request per shard group.  All calls run on the batcher's single
    worker thread, so the connection cache needs no locks.
    """

    supports_deletion = True
    #: The router holds no filter memory of its own.
    total_bits = 0

    def __init__(
        self,
        ring: HashRing,
        *,
        health: HealthChecker | None = None,
        timeout_s: float = 5.0,
        breaker_failures: int = 8,
        breaker_cooldown_s: float = 0.5,
        client_factory=None,
    ) -> None:
        self.ring = ring
        self.health = health
        self.timeout_s = timeout_s
        self.breaker_failures = breaker_failures
        self.breaker_cooldown_s = breaker_cooldown_s
        #: ``factory(node, timeout_s=...) -> FilterClient``; ``None``
        #: builds real TCP clients (the production path).
        self.client_factory = (
            client_factory
            if client_factory is not None
            else _default_client_factory
        )
        self.name = f"router[{len(ring.groups)} groups]"
        #: Ring lookups cost one hash evaluation per key; account them
        #: in the same AccessStats currency as a real filter.
        self.stats = AccessStats()
        #: ``(group, kind) -> keys`` routed counters for the exporter.
        self.routed_keys: Counter[tuple[str, str]] = Counter()
        self.fallback_reads = 0
        #: Reads served by a replica *because the primary shed them*
        #: (OVERLOADED), as opposed to ``fallback_reads`` which also
        #: counts plain transport failovers.
        self.overload_fallbacks = 0
        #: Installed :class:`~repro.rebalance.epochs.RingEpoch`, once a
        #: coordinator has pushed (or a MOVED redirect fetched) one.
        self._epoch = None
        self._groups = {
            name: _GroupClients(group=group, factory=self.client_factory)
            for name, group in ring.groups.items()
        }
        #: Per-group write-path breakers (reads fail over instead).
        self._breakers = {
            name: self._new_breaker() for name in ring.groups
        }

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self.breaker_failures,
            cooldown_s=self.breaker_cooldown_s,
        )

    # -- ring epochs -----------------------------------------------------
    def install_epoch(self, group: str, blob: bytes) -> dict:
        """Adopt a ring epoch (``group`` is unused — routers own no arc).

        Rebuilds the ring and connection cache, keeping live
        connections for shard groups that survive the change.  Runs on
        the hosting server's single worker thread like every other
        call, so no request can observe a half-swapped ring.
        """
        from repro.rebalance.epochs import RingEpoch

        epoch = RingEpoch.from_bytes(blob)
        if self._epoch is not None and epoch.version < self._epoch.version:
            return self.describe()  # stale delivery
        self._epoch = epoch
        self.ring = epoch.ring()
        previous = self._groups
        self._groups = {}
        for name, shard_group in self.ring.groups.items():
            cached = previous.pop(name, None)
            if cached is not None and cached.group == shard_group:
                self._groups[name] = cached
            else:
                if cached is not None:
                    cached.close()
                self._groups[name] = _GroupClients(
                    group=shard_group, factory=self.client_factory
                )
        for cached in previous.values():
            cached.close()  # drained groups
        # Surviving groups keep their breaker history; new groups start
        # closed, and breakers of drained groups are dropped with them.
        self._breakers = {
            name: self._breakers.get(name) or self._new_breaker()
            for name in self.ring.groups
        }
        self.name = f"router[{len(self.ring.groups)} groups]"
        logger.info(
            "router_epoch_installed", extra={"version": epoch.version}
        )
        return {
            "epoch_version": epoch.version,
            "groups": sorted(self.ring.groups),
        }

    def epoch_blob(self) -> bytes:
        if self._epoch is None:
            return b""
        return self._epoch.to_bytes()

    def refresh_epoch(self) -> bool:
        """Fetch the newest epoch any known node holds; adopt if newer.

        The MOVED recovery path: a redirect proves this router's ring
        is stale, and the node that rejected us (or any of its peers)
        already holds the epoch that explains where the key went.
        """
        from repro.rebalance.epochs import RingEpoch

        best: RingEpoch | None = None
        best_blob = b""
        for clients in list(self._groups.values()):
            for node in clients.group.nodes:
                try:
                    _, blob = clients.client(
                        node, timeout_s=self.timeout_s
                    ).call(Opcode.RING_EPOCH)
                except (ConnectionError, OSError, TimeoutError, RemoteError):
                    continue
                if not blob:
                    continue
                try:
                    epoch = RingEpoch.from_bytes(blob)
                except ConfigurationError:
                    continue
                if best is None or epoch.version > best.version:
                    best, best_blob = epoch, blob
        if best is None:
            return False
        if self._epoch is not None and best.version <= self._epoch.version:
            return False
        self.install_epoch("", best_blob)
        return True

    # -- filter interface ------------------------------------------------
    def insert_many(self, keys: np.ndarray) -> None:
        self._mutate(Opcode.BULK64_INSERT, keys)

    def delete_many(self, keys: np.ndarray) -> None:
        self._mutate(Opcode.BULK64_DELETE, keys)

    def query_many(self, keys: np.ndarray) -> np.ndarray:
        self._account(OpKind.QUERY, len(keys))
        answers = np.zeros(len(keys), dtype=bool)
        for group_name, where in self.ring.partition(keys).items():
            self.routed_keys[(group_name, "query")] += len(where)
            subset = keys[where]
            try:
                result = self._query_group(self._groups[group_name], subset)
            except RemoteError as exc:
                # MOVED: our ring is stale.  Refresh it from the nodes
                # and re-route just this slice under the new epoch.
                if exc.code != ErrorCode.MOVED or not self.refresh_epoch():
                    raise
                result = self.query_many(subset)
            answers[where] = result
        return answers

    # -- routing ---------------------------------------------------------
    def _account(self, kind: OpKind, count: int) -> None:
        if count:
            self.stats.record(
                kind, count=count, word_accesses=0.0,
                hash_bits=64.0 * count, hash_calls=count,
            )

    def _mutate(self, opcode: Opcode, keys: np.ndarray) -> None:
        insert = opcode == Opcode.BULK64_INSERT
        kind = "insert" if insert else "delete"
        self._account(OpKind.INSERT if insert else OpKind.DELETE, len(keys))
        for group_name, where in self.ring.partition(keys).items():
            self.routed_keys[(group_name, kind)] += len(where)
            subset = keys[where]
            clients = self._groups[group_name]
            primary = clients.group.primary
            if self.health is not None and not self.health.is_healthy(primary):
                raise ClusterError(
                    f"group {group_name!r}: primary {primary.address} is "
                    f"unhealthy; writes have no failover target"
                )
            breaker = self._breakers.get(group_name)
            if breaker is not None:
                # Raises OverloadedError locally while the group's write
                # path is open — no packet reaches the drowning primary.
                breaker.allow()
            try:
                client = clients.client(primary, timeout_s=self.timeout_s)
                client.send_column(opcode, subset)
            except RemoteError as exc:
                if breaker is not None:
                    if exc.code == ErrorCode.OVERLOADED:
                        breaker.record_failure()
                    else:
                        breaker.record_success()  # answering = serving
                # MOVED: re-route this slice under a refreshed ring.
                # (WRONG_EPOCH — a fence mid-migration — is forwarded:
                # the client owns that retry, with backoff.)
                if exc.code == ErrorCode.MOVED and self.refresh_epoch():
                    self._mutate(opcode, subset)
                    continue
                raise  # the filter's own error (e.g. underflow): forward
            except (ConnectionError, OSError, TimeoutError) as exc:
                if breaker is not None:
                    breaker.record_failure()
                clients.drop(primary)
                raise ClusterError(
                    f"group {group_name!r}: primary {primary.address} "
                    f"unreachable for {kind}: {exc}"
                ) from exc
            else:
                if breaker is not None:
                    breaker.record_success()

    def _query_group(self, clients: _GroupClients, subset: np.ndarray):
        group = clients.group
        candidates = [
            node
            for node in group.nodes
            if self.health is None or self.health.is_healthy(node)
        ] or list(group.nodes)
        last_error: Exception | None = None
        shed_by_primary = False
        for position, node in enumerate(candidates):
            try:
                client = clients.client(node, timeout_s=self.timeout_s)
                result = client.send_column(Opcode.BULK64_QUERY, subset)
                if position > 0 or node is not group.primary:
                    self.fallback_reads += len(subset)
                    if shed_by_primary:
                        self.overload_fallbacks += len(subset)
                return result
            except RemoteError as exc:
                if exc.code == ErrorCode.OVERLOADED and position + 1 < len(
                    candidates
                ):
                    # The primary shed this read; a replica can serve it
                    # (bounded staleness) — same move as a transport
                    # failover, but the node is alive, so keep its
                    # connection.
                    shed_by_primary = True
                    last_error = exc
                    continue
                raise
            except (ConnectionError, OSError, TimeoutError) as exc:
                clients.drop(node)
                last_error = exc
        raise ClusterError(
            f"group {group.name!r}: no node answered the query "
            f"({len(group.nodes)} tried): {last_error}"
        )

    # -- introspection ---------------------------------------------------
    def breaker_states(self) -> dict[str, int]:
        """Per-group breaker gauge values (0 closed / 1 half-open / 2 open)."""
        return {
            name: breaker.state_code
            for name, breaker in sorted(self._breakers.items())
        }

    def node_health(self) -> dict[str, bool]:
        if self.health is None:
            return {}
        return self.health.status()

    def node_status(self) -> dict[str, dict]:
        """REPL_STATUS-backed view of every node (best effort)."""
        out: dict[str, dict] = {}
        for clients in self._groups.values():
            for node in clients.group.nodes:
                try:
                    stats = clients.client(
                        node, timeout_s=self.timeout_s
                    ).stats()
                    out[node.address] = stats.get(
                        "cluster", {"role": "single"}
                    )
                except (ConnectionError, OSError, RemoteError) as exc:
                    clients.drop(node)
                    out[node.address] = {"error": str(exc)}
        return out

    def describe(self) -> dict:
        return {
            "ring": self.ring.describe(),
            "epoch_version": (
                None if self._epoch is None else self._epoch.version
            ),
            "groups": {
                name: {
                    "primary": clients.group.primary.address,
                    "replicas": [
                        node.address for node in clients.group.replicas
                    ],
                }
                for name, clients in self._groups.items()
            },
            "fallback_reads": self.fallback_reads,
            "overload_fallbacks": self.overload_fallbacks,
            "breakers": {
                name: breaker.describe()
                for name, breaker in sorted(self._breakers.items())
            },
            "node_health": self.node_health(),
            "routed_keys": {
                f"{group}/{kind}": count
                for (group, kind), count in sorted(self.routed_keys.items())
            },
        }

    def close(self) -> None:
        for clients in self._groups.values():
            clients.close()


def _json_default(value):
    return str(value)


def format_status(backend: RouterBackend) -> str:
    """Human-oriented JSON dump used by ``repro cluster status``."""
    payload = {"router": backend.describe(), "nodes": backend.node_status()}
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
