"""Sharded filter bank: hash-routed parallel filters.

A :class:`ShardedFilterBank` splits one logical set across ``s``
independent filter shards.  Keys route to shards by an independent
hash (never one of the shards' own hashes, so routing does not bias
the per-shard distributions), exactly how multi-pipeline packet
processors spread flow state across per-port filters.

Columnar-kernel MPCBF shards (the default MPCBF) keep their state in
one stacked :class:`~repro.kernels.columnar.ColumnarHCBF` arena of
``s × l`` words, allocated once when the bank is built: shard ``i``
owns rows ``[i·l, (i+1)·l)`` and its own ``columns`` is a view of that
row block, so shard-level calls and bank-level bulk calls share one
state.  A bulk request routes once, stably sorts its keys by shard,
locates them with one :meth:`PartitionedHashFamily.locate_array` call
(each key hashed with its shard's seeds), runs one kernel call over the
arena, and hands statistics, ``overflow_events`` and ``skipped_deletes``
back to each shard by row block.  At served batch sizes a bulk call's
cost is mostly fixed per-NumPy-call overhead, so one chain per request
instead of one per shard is what pays (numbers in
``docs/performance.md``).

Other shard types (CBF, BF, scalar-kernel MPCBF, ...) keep per-shard
dispatch: the batch is routed, stably grouped by shard with one
``argsort``, handed to each shard's own bulk path, and results
scattered back into input order.

Execution modes:

* ``executor="thread"`` (default): inline on the calling thread.
  ``max_workers > 1`` runs per-shard dispatch on a thread pool; it
  matters only for shard types the arena cannot hold.  Measure before
  enabling: NumPy's gathers do release the GIL, but at typical batch
  sizes the Python-side orchestration dominates and threads add
  overhead.
* ``executor="process"``: a spawn-based process pool over the arena
  moved into one :class:`multiprocessing.shared_memory` block
  (columnar-kernel MPCBF shards only — their state is plain fixed-dtype
  arrays, see :mod:`repro.kernels.shmem`).  Workers re-bind the same
  row blocks and mutate the shared arrays in place, so only the key
  chunks and small stat deltas cross the process boundary.  Crossover
  heuristic: process dispatch only pays off once per-shard chunks
  amortise the IPC + pickling of the keys — batches smaller than
  ``PROCESS_MIN_BATCH`` (≈64k keys) total run inline through the arena
  even in process mode.  Call :meth:`close` (or use the bank as a
  context manager) to tear down the pool and the shared segment.

Error semantics on a failing batch (documented, tested): inline
execution stops at the first failing shard chunk — later shards'
chunks stay unapplied.  The arena path keeps this rule by construction:
sorted by shard, its one kernel call runs shard 0's chunk, then shard
1's, and stops at the first failing key.  Pool modes run every shard's
chunk and then raise the failing shard with the lowest index.  Either
way each shard individually preserves its own filter's
partial-application semantics, and a :class:`WordOverflowError` names
the word by its index within its shard.

Semantics are identical to a single filter of ``s``× the memory with
the caveat that per-shard load imbalance (binomial, like the words of
an MPCBF) slightly raises the effective load of the fullest shard.
"""

from __future__ import annotations

import atexit
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.errors import (
    ConfigurationError,
    ReproError,
    UnsupportedOperationError,
)
from repro.filters.base import CountingFilterBase, FilterBase
from repro.filters.factory import FilterSpec, build_filter
from repro.filters.mpcbf import MPCBF
from repro.hashing.encoders import KeyEncoder
from repro.hashing.mixers import derive_seeds, splitmix64, splitmix64_array
from repro.kernels.columnar import ColumnarHCBF
from repro.kernels.shmem import SharedArrayPack
from repro.memmodel.accounting import AccessStats, OpKind

__all__ = ["ShardedFilterBank", "PROCESS_MIN_BATCH"]

#: Below this total batch size, process-mode dispatch runs inline: the
#: pool's IPC + key pickling costs more than the kernel work it saves.
PROCESS_MIN_BATCH = 65536

# Worker-process globals, set once per worker by _worker_init.
_WORKER_BANK: "ShardedFilterBank | None" = None
_WORKER_ARENA: SharedArrayPack | None = None


def _worker_cleanup() -> None:
    """Drop every shared-array view before the worker interpreter exits.

    NumPy views keep the segment's buffer exported; without this,
    ``SharedMemory.__del__`` hits a BufferError during shutdown.
    """
    global _WORKER_BANK, _WORKER_ARENA
    if _WORKER_BANK is not None:
        _WORKER_BANK._bind_private_copy()
        _WORKER_BANK = None
    if _WORKER_ARENA is not None:
        try:
            _WORKER_ARENA.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        _WORKER_ARENA = None


def _worker_init(arena_name, arena_meta, spec, num_shards) -> None:
    """Pool initializer: rebuild the bank, rebind onto the shared arena."""
    global _WORKER_BANK, _WORKER_ARENA
    _WORKER_ARENA = SharedArrayPack.attach(arena_name, arena_meta)
    bank = ShardedFilterBank(spec, num_shards)
    bank._bind(_WORKER_ARENA.arrays())
    _WORKER_BANK = bank
    atexit.register(_worker_cleanup)


def _worker_apply(shard_index: int, opname: str, encoded: np.ndarray):
    """Run one shard chunk in a worker; ship back results + stat deltas.

    The filter state mutates in shared memory; access statistics and
    the overflow/skip counters are worker-local Python objects, so the
    per-call deltas travel back for the parent to fold in.  Library
    errors return as values (picklable via their ``__reduce__``) so the
    parent can apply its cross-shard ordering before raising.
    """
    filt = _WORKER_BANK.shards[shard_index]
    filt.reset_stats()
    pre_overflow = getattr(filt, "overflow_events", 0)
    pre_skipped = getattr(filt, "skipped_deletes", 0)
    result = None
    error = None
    try:
        result = getattr(filt, opname)(encoded)
    except ReproError as exc:
        error = exc
    return (
        result,
        filt.stats,
        getattr(filt, "overflow_events", 0) - pre_overflow,
        getattr(filt, "skipped_deletes", 0) - pre_skipped,
        error,
    )


def _arena_geometry(shard: FilterBase) -> tuple | None:
    """What must match for shards to share an arena (None: cannot)."""
    if not isinstance(shard, MPCBF) or shard.columns is None:
        return None
    return (
        shard.num_words,
        shard.word_bits,
        shard.first_level_bits,
        shard.k,
        shard.g,
        shard.word_overflow,
    )


class ShardedFilterBank:
    """``s`` hash-routed filter shards behaving as one filter.

    Parameters
    ----------
    spec:
        Per-shard filter specification (each shard gets ``spec`` with a
        distinct derived seed; ``spec.memory_bits`` is the *per-shard*
        budget).
    num_shards:
        Number of shards ``s``.
    max_workers:
        Pool width for bulk operations; ``1`` (default) runs shards
        sequentially under ``executor="thread"``.  Columnar MPCBF banks
        use it only for the process pool.
    executor:
        ``"thread"`` (default) or ``"process"`` — see module docstring.
        Process mode requires columnar-kernel MPCBF shards and lazily
        moves the arena into shared memory and starts the pool on the
        first large dispatch.
    """

    def __init__(
        self,
        spec: FilterSpec,
        num_shards: int,
        *,
        max_workers: int = 1,
        executor: str = "thread",
        encoder: KeyEncoder | None = None,
    ) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        if executor not in ("thread", "process"):
            raise ConfigurationError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        self.spec = spec
        self.num_shards = num_shards
        self.max_workers = max_workers
        self.executor = executor
        self.encoder = encoder or KeyEncoder()
        self._pool: ProcessPoolExecutor | None = None
        #: Shared-memory copy of the arena while a process pool runs.
        self._arena: SharedArrayPack | None = None
        #: Every columnar MPCBF shard's words, stacked (None otherwise).
        self._stacked: ColumnarHCBF | None = None
        seeds = derive_seeds(spec.seed ^ 0x5348415244, num_shards + 1)
        self._route_seed = seeds[0]
        self.shards: list[FilterBase] = []
        for i in range(num_shards):
            shard_spec = FilterSpec(
                variant=spec.variant,
                memory_bits=spec.memory_bits,
                k=spec.k,
                word_bits=spec.word_bits,
                counter_bits=spec.counter_bits,
                capacity=(
                    max(1, spec.capacity // num_shards)
                    if spec.capacity is not None
                    else None
                ),
                n_max=spec.n_max,
                seed=seeds[i + 1],
                extra=dict(spec.extra),
            )
            self.shards.append(build_filter(shard_spec, encoder=self.encoder))
        self.name = f"{self.shards[0].name}x{num_shards}"
        # Fresh shards hold only zeros, as does a fresh arena.
        self._stack_shards(copy_state=False)

    # -- the stacked arena ------------------------------------------------
    def _stack_shards(self, *, copy_state: bool) -> None:
        """Re-bind every columnar MPCBF shard onto its arena row block.

        The arena is allocated only if the bank has none of the shards'
        geometry yet.  ``copy_state`` first moves the shards' current
        state into their blocks.
        """
        geometries = {_arena_geometry(shard) for shard in self.shards}
        if len(geometries) != 1 or None in geometries:
            self._stacked = None
            return
        first = self.shards[0]
        rows = first.num_words
        stacked = self._stacked
        if stacked is None or geometries != {self._geometry}:
            stacked = ColumnarHCBF(
                rows * self.num_shards, first.word_bits, first.first_level_bits
            )
        (self._geometry,) = geometries
        arrays = stacked.shareable_arrays()
        if copy_state:
            for i, shard in enumerate(self.shards):
                for field, arr in shard.columns.shareable_arrays().items():
                    arrays[field][i * rows : (i + 1) * rows] = arr
        self._stacked = stacked
        self._rows = rows
        self._family = first.family
        self._word_cols = first._word_cols
        self._seed_table = np.stack([shard.family.seed_row for shard in self.shards])
        self._bind(arrays)

    def _bind(self, arrays: dict[str, np.ndarray]) -> None:
        """Point the arena at ``arrays`` and each shard at its row block."""
        self._stacked.rebind(arrays)
        rows = self._rows
        for i, shard in enumerate(self.shards):
            shard.columns.rebind(
                {field: arr[i * rows : (i + 1) * rows] for field, arr in arrays.items()}
            )

    def _bind_private_copy(self) -> None:
        """Re-bind onto private copies of the arena (leaving shared memory)."""
        self._bind(
            {field: arr.copy() for field, arr in self._stacked.shareable_arrays().items()}
        )

    def set_shards(self, shards: Sequence[FilterBase]) -> None:
        """Replace the shards, e.g. with deserialised ones.

        Columnar MPCBF shards' state moves into the bank's arena and the
        shards re-bind onto their row blocks, so later shard-level and
        bank-level calls keep sharing one state.
        """
        if len(shards) != self.num_shards:
            raise ConfigurationError(
                f"expected {self.num_shards} shards, got {len(shards)}"
            )
        self.close()
        self.shards = list(shards)
        self._stack_shards(copy_state=True)

    # -- sizing ----------------------------------------------------------
    @property
    def total_bits(self) -> int:
        """Aggregate memory across shards."""
        return sum(shard.total_bits for shard in self.shards)

    @property
    def num_hashes(self) -> int:
        return self.shards[0].num_hashes

    @property
    def supports_deletion(self) -> bool:
        return isinstance(self.shards[0], CountingFilterBase)

    # -- routing ----------------------------------------------------------
    def shard_of(self, key: object) -> int:
        """Shard index a key routes to."""
        encoded = self.encoder.encode(key)
        return splitmix64(encoded ^ self._route_seed) % self.num_shards

    def _route_array(self, encoded: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            mixed = splitmix64_array(encoded ^ np.uint64(self._route_seed))
        return (mixed % np.uint64(self.num_shards)).astype(np.int64)

    def _encode_bulk(self, keys: object) -> np.ndarray:
        if isinstance(keys, np.ndarray) and keys.dtype == np.uint64:
            return keys
        return self.encoder.encode_many(keys)

    # -- scalar API ---------------------------------------------------------
    def insert(self, key: object) -> None:
        """Insert one key into its shard."""
        encoded = self.encoder.encode(key)
        shard = splitmix64(encoded ^ self._route_seed) % self.num_shards
        self.shards[shard].insert_encoded(encoded)

    def query(self, key: object) -> bool:
        """Query one key against its shard."""
        encoded = self.encoder.encode(key)
        shard = splitmix64(encoded ^ self._route_seed) % self.num_shards
        return self.shards[shard].query_encoded(encoded)

    def __contains__(self, key: object) -> bool:
        return self.query(key)

    def delete(self, key: object) -> None:
        """Delete one key from its shard (counting variants only)."""
        encoded = self.encoder.encode(key)
        shard = splitmix64(encoded ^ self._route_seed) % self.num_shards
        filt = self.shards[shard]
        if not isinstance(filt, CountingFilterBase):
            raise UnsupportedOperationError(f"{self.name} cannot delete")
        filt.delete_encoded(encoded)

    def count(self, key: object) -> int:
        """Multiplicity estimate from the owning shard."""
        encoded = self.encoder.encode(key)
        shard = splitmix64(encoded ^ self._route_seed) % self.num_shards
        filt = self.shards[shard]
        if not isinstance(filt, CountingFilterBase):
            raise UnsupportedOperationError(f"{self.name} cannot count")
        return filt.count_encoded(encoded)

    # -- process pool ------------------------------------------------------
    def _ensure_process_pool(self) -> None:
        if self._pool is not None:
            return
        if self._stacked is None:
            raise ConfigurationError(
                "executor='process' requires columnar-kernel MPCBF "
                "shards (their state shares as flat arrays; scalar "
                "HCBFWord objects cannot live in shared memory)"
            )
        self._arena = SharedArrayPack(self._stacked.shareable_arrays())
        # The parent's arena and shards rebind onto the same physical
        # memory, so inline calls and worker calls see one state.
        self._bind(self._arena.arrays())
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(self._arena.name, self._arena.meta, self.spec, self.num_shards),
        )

    def close(self) -> None:
        """Tear down the process pool and shared-memory arena (idempotent).

        The shards keep their state: before the segment unlinks, the
        arena and every shard rebind onto a private copy of the arena,
        so the bank stays fully usable (inline) after closing.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._arena is not None:
            self._bind_private_copy()
            self._arena.close()
            self._arena.unlink()
            self._arena = None

    def __enter__(self) -> "ShardedFilterBank":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- bulk API -------------------------------------------------------------
    def _dispatch(
        self, encoded: np.ndarray, opname: str
    ) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Group keys by shard, run the named bulk op per shard.

        Returns ``(positions, result)`` per shard, where ``positions``
        are the original indices of that shard's keys.
        """
        routes = self._route_array(encoded)
        order = np.argsort(routes, kind="stable")
        sorted_routes = routes[order]
        bounds = np.searchsorted(
            sorted_routes, np.arange(self.num_shards + 1)
        )
        jobs = []
        for shard_index in range(self.num_shards):
            lo, hi = bounds[shard_index], bounds[shard_index + 1]
            if lo == hi:
                continue
            positions = order[lo:hi]
            jobs.append((shard_index, positions, encoded[positions]))
        if (
            self.executor == "process"
            and len(encoded) >= PROCESS_MIN_BATCH
            and len(jobs) > 0
        ):
            return self._dispatch_process(jobs, opname)
        if self.max_workers > 1 and len(jobs) > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                futures = [
                    (positions, pool.submit(getattr(self.shards[i], opname), chunk))
                    for i, positions, chunk in jobs
                ]
                return [(pos, fut.result()) for pos, fut in futures]
        return [
            (positions, getattr(self.shards[i], opname)(chunk))
            for i, positions, chunk in jobs
        ]

    def _dispatch_process(self, jobs, opname: str):
        """Run shard chunks on the process pool over shared memory.

        Every shard's chunk runs to completion; if any failed, the
        error from the lowest shard index re-raises afterwards (each
        shard's own partial-application semantics are preserved — the
        modes only differ in whether *later shards'* chunks ran).
        """
        self._ensure_process_pool()
        futures = [
            (i, positions, self._pool.submit(_worker_apply, i, opname, chunk))
            for i, positions, chunk in jobs
        ]
        out = []
        first_error = None
        for i, positions, fut in futures:  # jobs are in shard-index order
            result, stats, d_overflow, d_skipped, error = fut.result()
            shard = self.shards[i]
            shard.stats.merge(stats)
            if hasattr(shard, "overflow_events"):
                shard.overflow_events += d_overflow
            if hasattr(shard, "skipped_deletes"):
                shard.skipped_deletes += d_skipped
            if error is not None and first_error is None:
                first_error = error
            out.append((positions, result))
        if first_error is not None:
            raise first_error
        return out

    def _inline_arena(self, n: int) -> bool:
        """Whether an ``n``-key bulk call runs as one arena kernel call."""
        return self._stacked is not None and not (
            self.executor == "process" and n >= PROCESS_MIN_BATCH
        )

    def _locate(self, encoded: np.ndarray):
        """Route, sort by shard and locate a batch in arena coordinates.

        Returns ``(order, routes, word_idx, offsets)``: the stable
        shard-sorting permutation, each sorted key's shard, and its
        arena word indices and in-word offsets.
        """
        routes = self._route_array(encoded)
        order = np.argsort(routes, kind="stable")
        routes = routes[order]
        word_idx, offsets = self._family.locate_array(
            encoded[order], self._seed_table[routes]
        )
        word_idx += (routes * self._rows)[:, None]
        return order, routes, word_idx, offsets

    def _record_updates(
        self, kind: OpKind, counts: np.ndarray, extra_bits: np.ndarray
    ) -> None:
        for shard, count, bits in zip(self.shards, counts.tolist(), extra_bits.tolist()):
            if count:
                shard.record_bulk_update(kind, count, bits)

    def _insert_arena(self, encoded: np.ndarray) -> None:
        _, routes, word_idx, offsets = self._locate(encoded)
        out = self._stacked.bulk_insert(
            word_idx,
            offsets,
            self._word_cols,
            self.shards[0].word_overflow,
            self._rows,
        )
        for shard, events in zip(self.shards, out.overflow_events.tolist()):
            shard.overflow_events += events
        # A failing key stops its own shard's chunk, which then records
        # no statistics (as MPCBF.insert_many), and every later one.
        done = self.num_shards if out.error is None else int(routes[out.applied_keys])
        counts = np.bincount(routes, minlength=self.num_shards)[:done]
        self._record_updates(OpKind.INSERT, counts, out.extra_bits)
        if out.error is not None:
            raise out.error

    def _delete_arena(self, encoded: np.ndarray) -> None:
        _, routes, word_idx, offsets = self._locate(encoded)
        out = self._stacked.bulk_delete(
            word_idx, offsets, self._word_cols, self._rows
        )
        for shard, skipped in zip(self.shards, out.skipped_deletes.tolist()):
            shard.skipped_deletes += skipped
        # Deletes record the applied prefix, the failing shard's too.
        counts = np.bincount(routes[: out.applied_keys], minlength=self.num_shards)
        self._record_updates(OpKind.DELETE, counts, out.extra_bits)
        if out.error is not None:
            raise out.error

    def _query_arena(self, encoded: np.ndarray) -> np.ndarray:
        order, routes, word_idx, offsets = self._locate(encoded)
        member, accesses = self._stacked.bulk_query(
            word_idx, offsets, self._word_cols
        )
        counts = np.bincount(routes, minlength=self.num_shards).tolist()
        reads = np.bincount(
            routes, weights=accesses, minlength=self.num_shards
        ).tolist()
        for shard, count, words in zip(self.shards, counts, reads):
            if count:
                shard.record_bulk_query(count, words)
        result = np.empty(len(encoded), dtype=bool)
        result[order] = member
        return result

    def _count_arena(self, encoded: np.ndarray) -> np.ndarray:
        order, _, word_idx, offsets = self._locate(encoded)
        result = np.empty(len(encoded), dtype=np.int64)
        result[order] = self._stacked.bulk_count(word_idx, offsets, self._word_cols)
        return result

    def insert_many(self, keys: object) -> None:
        """Bulk insert, routed by shard."""
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return
        if self._inline_arena(len(encoded)):
            self._insert_arena(encoded)
        else:
            self._dispatch(encoded, "insert_many")

    def delete_many(self, keys: object) -> None:
        """Bulk delete (counting variants only)."""
        if not self.supports_deletion:
            raise UnsupportedOperationError(f"{self.name} cannot delete")
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return
        if self._inline_arena(len(encoded)):
            self._delete_arena(encoded)
        else:
            self._dispatch(encoded, "delete_many")

    def query_many(self, keys: object) -> np.ndarray:
        """Bulk query; results in input order."""
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=bool)
        if self._inline_arena(len(encoded)):
            return self._query_arena(encoded)
        result = np.zeros(len(encoded), dtype=bool)
        for positions, answers in self._dispatch(encoded, "query_many"):
            result[positions] = answers
        return result

    def count_many(self, keys: object) -> np.ndarray:
        """Bulk multiplicity estimates (counting variants only)."""
        if not self.supports_deletion:
            raise UnsupportedOperationError(f"{self.name} cannot count")
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=np.int64)
        if self._inline_arena(len(encoded)):
            return self._count_arena(encoded)
        result = np.zeros(len(encoded), dtype=np.int64)
        for positions, answers in self._dispatch(encoded, "count_many"):
            result[positions] = answers
        return result

    # -- stats -----------------------------------------------------------------
    @property
    def stats(self) -> AccessStats:
        """Aggregated access statistics across shards."""
        combined = AccessStats()
        for shard in self.shards:
            combined.merge(shard.stats)
        return combined

    def reset_stats(self) -> None:
        for shard in self.shards:
            shard.reset_stats()

    def shard_loads(self, keys: Sequence) -> np.ndarray:
        """Histogram of how a key batch routes across shards."""
        encoded = self._encode_bulk(keys)
        return np.bincount(self._route_array(encoded), minlength=self.num_shards)

    def __repr__(self) -> str:
        return (
            f"<ShardedFilterBank {self.name} shards={self.num_shards} "
            f"bits={self.total_bits}>"
        )
