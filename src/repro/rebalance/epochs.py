"""Versioned ring topologies and the durable epoch log.

The cluster's answer to the paper's fixed-geometry partitions: the word
layout inside one filter never changes, but the *node* layout must — so
every topology the cluster has ever served is a :class:`RingEpoch`, a
monotonically versioned, CRC-stamped description of the shard groups
and their vnode count.  Epoch ``v`` fully determines a
:class:`~repro.cluster.router.HashRing`, so any two parties holding the
same epoch bytes route every key identically — the property epoch
fencing relies on.

Durability mirrors the snapshot trailer idiom: the payload is canonical
JSON followed by the ``MPEP`` magic and a CRC32 over everything before
the checksum field, so a torn or corrupted epoch file fails loudly at
load time.  The :class:`EpochLog` is a directory of such files next to
the coordinator's state; appending epoch ``v+1`` is the *commit point*
of a rebalance plan — a crash before the append resumes the migration,
a crash after it merely re-delivers the (idempotent) commit messages.

:func:`compute_moves` diffs two epochs into the minimal set of arc
moves.  Ownership is piecewise-constant between points of the union of
both rings (``lookup`` is ``bisect_right``, so a point owns the arc
*ending* at it, half-open ``[prev, point)``); sampling each union arc
at its start yields exactly the ranges whose owner changes.  For a
join, every arc that moves is claimed by the newcomer — the
minimal-disruption property the ring tests pin down.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cluster.router import (
    HashRing,
    NodeAddress,
    ShardGroup,
    hash_key,
    ring_positions,
)
from repro.errors import ClusterError, ConfigurationError
from repro.service.storage import REAL_STORAGE

__all__ = [
    "RingEpoch",
    "EpochLog",
    "KeyRange",
    "KeyRangeSet",
    "Move",
    "compute_moves",
    "hash_key",
    "ring_positions",
]

#: Epoch trailer magic: payload | b"MPEP" | u32 crc32(payload + magic).
_EPOCH_MAGIC = b"MPEP"
_TRAILER = struct.Struct("<4sI")
_RING_SPACE = 2**64


def _node_to_json(node: NodeAddress) -> list:
    return [node.host, node.port, node.health_port]


def _node_from_json(raw) -> NodeAddress:
    host, port, health_port = raw
    return NodeAddress(
        host=str(host),
        port=int(port),
        health_port=None if health_port is None else int(health_port),
    )


@dataclass(frozen=True)
class RingEpoch:
    """One immutable, versioned cluster topology."""

    version: int
    vnodes: int
    groups: tuple[ShardGroup, ...]

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ConfigurationError(
                f"epoch versions start at 1, got {self.version}"
            )

    def ring(self) -> HashRing:
        """The hash ring this epoch describes (cached per instance)."""
        ring = self.__dict__.get("_ring")
        if ring is None:
            ring = HashRing(list(self.groups), vnodes=self.vnodes)
            object.__setattr__(self, "_ring", ring)
        return ring

    def group(self, name: str) -> ShardGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise ClusterError(f"epoch v{self.version} has no group {name!r}")

    def group_names(self) -> list[str]:
        return [group.name for group in self.groups]

    # -- derived topologies ---------------------------------------------
    def with_group(self, group: ShardGroup) -> "RingEpoch":
        """The next epoch after ``group`` joins the ring."""
        if any(existing.name == group.name for existing in self.groups):
            raise ConfigurationError(
                f"group {group.name!r} is already in epoch v{self.version}"
            )
        return RingEpoch(
            version=self.version + 1,
            vnodes=self.vnodes,
            groups=(*self.groups, group),
        )

    def without_group(self, name: str) -> "RingEpoch":
        """The next epoch after group ``name`` drains out of the ring."""
        remaining = tuple(g for g in self.groups if g.name != name)
        if len(remaining) == len(self.groups):
            raise ClusterError(f"epoch v{self.version} has no group {name!r}")
        if not remaining:
            raise ConfigurationError(
                "cannot drain the last group out of the ring"
            )
        return RingEpoch(
            version=self.version + 1, vnodes=self.vnodes, groups=remaining
        )

    # -- serialisation ---------------------------------------------------
    def to_bytes(self) -> bytes:
        """Canonical JSON + ``MPEP`` CRC trailer (see module docstring)."""
        payload = json.dumps(
            {
                "version": self.version,
                "vnodes": self.vnodes,
                "groups": [
                    {
                        "name": group.name,
                        "nodes": [_node_to_json(n) for n in group.nodes],
                    }
                    for group in self.groups
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        head = payload + _EPOCH_MAGIC
        return head + struct.pack("<I", zlib.crc32(head))

    @classmethod
    def from_bytes(cls, blob: bytes, *, source: str = "epoch") -> "RingEpoch":
        if len(blob) < _TRAILER.size:
            raise ConfigurationError(f"{source}: epoch blob is truncated")
        magic, crc = _TRAILER.unpack_from(blob, len(blob) - _TRAILER.size)
        if magic != _EPOCH_MAGIC:
            raise ConfigurationError(f"{source}: not a ring epoch (bad magic)")
        if zlib.crc32(blob[:-4]) != crc:
            raise ConfigurationError(
                f"{source}: epoch CRC mismatch (corrupted or torn write)"
            )
        try:
            doc = json.loads(blob[: -_TRAILER.size].decode("utf-8"))
            groups = tuple(
                ShardGroup(
                    name=str(raw["name"]),
                    primary=_node_from_json(raw["nodes"][0]),
                    replicas=tuple(
                        _node_from_json(n) for n in raw["nodes"][1:]
                    ),
                )
                for raw in doc["groups"]
            )
            return cls(
                version=int(doc["version"]),
                vnodes=int(doc["vnodes"]),
                groups=groups,
            )
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{source}: malformed epoch payload: {exc}"
            ) from exc

    def describe(self) -> dict:
        return {
            "version": self.version,
            "vnodes": self.vnodes,
            "groups": {
                group.name: {
                    "primary": group.primary.address,
                    "replicas": [n.address for n in group.replicas],
                }
                for group in self.groups
            },
        }


class EpochLog:
    """Append-only directory of epoch files — the plan commit record.

    One file per version (``epoch-00000007.bin``), each written with
    the crash-safe tmp/fsync/rename/dir-fsync dance.  Appending is the
    atomic commit of a topology change: :meth:`contains` is how a
    resumed coordinator decides whether a crashed plan already
    committed (deliver the commits again) or not (resume streaming).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, version: int) -> Path:
        return self.directory / f"epoch-{version:08d}.bin"

    def versions(self) -> list[int]:
        return sorted(
            int(path.stem.split("-")[1])
            for path in self.directory.glob("epoch-*.bin")
        )

    def contains(self, version: int) -> bool:
        return self._path(version).exists()

    def load(self, version: int) -> RingEpoch:
        path = self._path(version)
        if not path.exists():
            raise ClusterError(f"epoch log has no version {version}")
        epoch = RingEpoch.from_bytes(path.read_bytes(), source=str(path))
        if epoch.version != version:
            raise ConfigurationError(
                f"{path}: file names version {version} but payload says "
                f"v{epoch.version}"
            )
        return epoch

    def latest(self) -> RingEpoch | None:
        versions = self.versions()
        if not versions:
            return None
        return self.load(versions[-1])

    def append(self, epoch: RingEpoch) -> Path:
        """Durably record ``epoch``; idempotent for identical bytes."""
        path = self._path(epoch.version)
        blob = epoch.to_bytes()
        if path.exists():
            if path.read_bytes() == blob:
                return path  # resumed plan re-committing: fine
            raise ClusterError(
                f"epoch v{epoch.version} already recorded with different "
                f"topology — refusing to overwrite history"
            )
        REAL_STORAGE.write_atomic(path, blob)
        return path


@dataclass(frozen=True)
class KeyRange:
    """A half-open arc ``[start, end)`` of the 64-bit ring.

    ``start > end`` encodes the wrap through zero; ``start == end``
    covers the whole ring (a single-arc degenerate only seen with one
    union point).
    """

    start: int
    end: int

    def contains(self, position):
        """Membership of a position (an int, or a uint64 column
        elementwise)."""
        if self.start < self.end:
            return (position >= self.start) & (position < self.end)
        if self.start > self.end:
            return (position >= self.start) | (position < self.end)
        return position >= 0  # the whole ring

    def span(self) -> int:
        """Arc length in hash units (full ring when start == end)."""
        return ((self.end - self.start) % _RING_SPACE) or _RING_SPACE

    def describe(self) -> dict:
        return {"start": self.start, "end": self.end}


class KeyRangeSet:
    """A set of arcs with membership tests over key hashes."""

    def __init__(self, ranges) -> None:
        self.ranges = tuple(ranges)

    def contains(self, position: int) -> bool:
        return any(r.contains(position) for r in self.ranges)

    def mask(self, positions: np.ndarray) -> np.ndarray:
        """:meth:`contains` over a column of ring positions."""
        inside = np.zeros(len(positions), dtype=bool)
        for r in self.ranges:
            inside |= r.contains(positions)
        return inside

    def select(self, keys: np.ndarray) -> np.ndarray:
        """The wire keys of ``keys`` whose ring position is in the set."""
        return keys[self.mask(ring_positions(keys))]

    def span(self) -> int:
        return sum(r.span() for r in self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)

    def __iter__(self):
        return iter(self.ranges)

    def describe(self) -> list[dict]:
        return [r.describe() for r in self.ranges]

    @classmethod
    def from_json(cls, raw: list) -> "KeyRangeSet":
        return cls(
            KeyRange(start=int(r["start"]), end=int(r["end"])) for r in raw
        )


@dataclass(frozen=True)
class Move:
    """One arc changing hands between two epochs."""

    #: The new-ring point (vnode position) that owns the arc after the
    #: change — the unit the plan's state machine tracks.
    vnode: int
    range: KeyRange
    src: str
    dst: str

    def describe(self) -> dict:
        return {
            "vnode": self.vnode,
            "range": self.range.describe(),
            "src": self.src,
            "dst": self.dst,
        }


def compute_moves(old: RingEpoch, new: RingEpoch) -> list[Move]:
    """Arcs whose owner differs between ``old`` and ``new``.

    Walks the union of both rings' points; between consecutive union
    points neither ring changes owner, so one sample per arc suffices.
    """
    old_ring, new_ring = old.ring(), new.ring()
    union = sorted(set(old_ring.points()) | set(new_ring.points()))
    moves: list[Move] = []
    for index, start in enumerate(union):
        end = union[(index + 1) % len(union)]
        src = old_ring.owner_at(start)
        dst = new_ring.owner_at(start)
        if src != dst:
            moves.append(
                Move(
                    vnode=new_ring.vnode_at(start),
                    range=KeyRange(start=start, end=end),
                    src=src,
                    dst=dst,
                )
            )
    return moves
