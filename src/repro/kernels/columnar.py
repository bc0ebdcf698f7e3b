"""Columnar HCBF state: every word's hierarchy as flat NumPy arrays.

The scalar :class:`~repro.filters.hcbf_word.HCBFWord` stores one word's
popcount hierarchy as arbitrary-precision Python ints — legible and
exact, but a batch update touches thousands of tiny objects.  This
module stores the *same information* columnarly across all ``l`` words:

* ``counts[w, pos]`` — the counter value at first-level position
  ``pos`` of word ``w``.  The unary hierarchy is uniquely determined by
  these counters: level ``j ≥ 1`` has one slot per position with
  ``count ≥ j`` (in ascending position order — popcount child indexing
  preserves position order level by level) and the slot's bit is set
  iff ``count ≥ j + 1``.  :meth:`word_level_state` /
  :func:`counts_from_levels` are the exact bijection, so ``counts`` is
  a word's whole serialised state (see :mod:`repro.serialize`).
* ``hist[w, j]`` — the size of level ``j`` (``#{pos: counts ≥ j}``),
  i.e. ``HCBFWord._sizes[j]``.  Traversal-bandwidth accounting only
  ever reads level sizes (``Σ log2 |v_j|``), so the paper's hash-bit
  numbers are computed from ``hist`` without materialising any bitmap.
* ``used[w]`` — hierarchy bits consumed (``Σ_pos counts``), checked
  against the ``w − b1`` budget exactly like ``HCBFWord.bits_free``.
* ``mirror``/``overlay``/``sat_mask`` — packed first-level limbs (the
  array bulk queries gather from), the membership-only overlay of
  saturated words, and which words are saturated.

Batch kernels (:meth:`bulk_insert`, :meth:`bulk_delete`,
:meth:`bulk_count`) sort the (word, position) pairs of a whole batch by
word with one stable ``argsort`` and then apply them in *rounds*: round
``r`` applies the ``r``-th pair of every word's group.  Within a round
each word appears at most once, so plain fancy indexing is safe, and
the number of rounds is bounded by the per-word hierarchy budget
(``w − b1``, e.g. ≤ 24 for the paper's w=64 geometry) because a word
cannot legally receive more pairs than it has budget for.  Overflow /
underflow triggers are detected *before* applying a segment (rank-
vs-budget comparisons on the sorted pairs), and the single triggering
key goes through the same per-key routine the filter's scalar API
uses (:meth:`ColumnarHCBF.insert_key`, :meth:`ColumnarHCBF.delete_key`),
so error identity, saturation order and partial-application semantics
match the scalar oracle (:mod:`repro.kernels.scalar`) bit for bit.
Tests drive both engines through randomized interleavings and assert
identical observable state.

Several filters can share one set of arrays as equal row blocks — a
sharded bank's arena, where shard ``i`` owns words ``[i·l, (i+1)·l)``.
The batch kernels then take ``block_words = l``, run every block's keys
in one call, and report costs per block (:class:`KernelOutcome`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import CounterUnderflowError, WordOverflowError

__all__ = ["KernelOutcome", "ColumnarHCBF"]

#: Array fields shared with worker processes (see repro.kernels.shmem).
SHARED_FIELDS = ("counts", "used", "hist", "mirror", "overlay", "sat_mask")

_U1 = np.uint64(1)


@dataclass
class KernelOutcome:
    """Result of one bulk kernel call.

    ``applied_keys`` counts keys whose mutations took effect (on error,
    the prefix before the failing key — matching the scalar partial-
    application semantics).  ``extra_bits`` is the summed hierarchy
    traversal bandwidth of the applied keys; ``error`` carries the
    exception for the first failing key instead of raising so the
    caller can record statistics with scalar-identical ordering first.

    The kernels address the words as equal row blocks (one block per
    filter that owns rows of the arrays; a plain MPCBF is one block), so
    ``extra_bits``, ``overflow_events`` and ``skipped_deletes`` hold one
    entry per block.
    """

    extra_bits: np.ndarray
    overflow_events: np.ndarray
    skipped_deletes: np.ndarray
    applied_keys: int = 0
    error: Exception | None = None
    #: Each applied key's traversal bits, from an engine that applies
    #: keys one at a time (the scalar oracle's deletes); ``None`` when
    #: only the per-block totals are known.
    key_extra_bits: list[float] | None = None

    @classmethod
    def empty(cls, blocks: int) -> "KernelOutcome":
        return cls(
            extra_bits=np.zeros(blocks, dtype=np.float64),
            overflow_events=np.zeros(blocks, dtype=np.int64),
            skipped_deletes=np.zeros(blocks, dtype=np.int64),
        )

    def update_records(self) -> list[tuple[int, float]]:
        """``(keys, traversal bits)`` to record, in order, for one block:
        per key when known, so statistics accumulate exactly as the same
        run of per-key updates would."""
        if self.key_extra_bits is not None:
            return [(1, bits) for bits in self.key_extra_bits]
        if not self.applied_keys:
            return []
        return [(self.applied_keys, float(self.extra_bits[0]))]


def _group_sorted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(uniques, group_starts, group_sizes)`` of a sorted, non-empty 1-D array."""
    n = len(values)
    edge = np.empty(n, dtype=bool)
    edge[0] = True
    np.not_equal(values[1:], values[:-1], out=edge[1:])
    starts = np.flatnonzero(edge)
    sizes = np.diff(np.append(starts, n))
    return values[starts], starts, sizes


def _block_sums(
    words: np.ndarray, block_words: int, blocks: int, weights=None
) -> np.ndarray:
    """Per-block totals of ``weights`` (or counts) over word indices."""
    if blocks == 1:
        return np.array([len(words) if weights is None else weights.sum()])
    return np.bincount(words // block_words, weights=weights, minlength=blocks)


def probe_mirror(
    mirror: np.ndarray,
    word_idx: np.ndarray,
    offsets: np.ndarray,
    word_cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk membership against packed first-level limbs.

    Returns ``(member, accesses)``: whether every probed bit is set, and
    the words each key reads before its first unset bit (a query stops
    at the first word that rules the key out).
    """
    words_per_offset = word_idx[:, word_cols]
    shift = (offsets & 63).astype(np.uint64)
    if mirror.shape[1] == 1:
        # b1 <= 64: the common case; one flat gather per offset.
        limbs = mirror[:, 0][words_per_offset]
    else:
        limbs = mirror[words_per_offset, (offsets >> 6)]
    tested = ((limbs >> shift) & _U1).astype(bool)
    member = tested.all(axis=1)
    first_fail = np.where(member, len(word_cols) - 1, np.argmin(tested, axis=1))
    return member, word_cols[first_fail] + 1


def key_groups(word_idx: np.ndarray, offsets: np.ndarray, word_cols: np.ndarray):
    """Yield each located key's ``(word, offsets)`` groups, as Python ints.

    The input of the engines' per-key routines, in hash-group order;
    ``word_cols`` maps each offset column to its word column.
    """
    bounds = np.searchsorted(word_cols, np.arange(word_idx.shape[1] + 1)).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    for words, offs in zip(word_idx.tolist(), offsets.tolist()):
        yield [(word, offs[lo:hi]) for word, (lo, hi) in zip(words, spans)]


def _int_to_bits(value: int, size: int) -> np.ndarray:
    """Little-endian bit unpack of a Python int into a bool array."""
    if size == 0:
        return np.zeros(0, dtype=bool)
    raw = value.to_bytes((size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:size].astype(bool)


def _bits_to_int(bits: np.ndarray) -> int:
    """Inverse of :func:`_int_to_bits`."""
    if len(bits) == 0:
        return 0
    packed = np.packbits(bits.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def counts_dtype(capacity: int) -> np.dtype:
    """Counter dtype for a ``w − b1`` hierarchy budget: u8 when it fits."""
    return np.dtype(np.uint8 if capacity <= 255 else np.int32)


def pack_first_level(counts: np.ndarray, limbs: int) -> np.ndarray:
    """``(rows, limbs)`` uint64 first-level bitmaps (bit set iff count > 0)."""
    packed = np.packbits(counts > 0, axis=1, bitorder="little")
    pad = limbs * 8 - packed.shape[1]
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def counts_from_levels(sizes: list, levels: list, first_level_bits: int) -> np.ndarray:
    """Decode an ``HCBFWord``'s ``(_sizes, _levels)`` into counter values.

    Level ``j``'s slots are the positions with ``count ≥ j`` in
    ascending position order, so walking the levels and filtering the
    surviving positions by each bitmap reconstructs every counter.
    """
    counts = np.zeros(first_level_bits, dtype=np.int64)
    current = np.flatnonzero(_int_to_bits(levels[0], sizes[0]))
    counts[current] = 1
    for j in range(1, len(levels)):
        bits = _int_to_bits(levels[j], sizes[j])
        current = current[bits[: len(current)]]
        if len(current) == 0:
            break
        counts[current] = j + 1
    return counts


class ColumnarHCBF:
    """All HCBF words of one MPCBF as flat arrays (see module docstring)."""

    def __init__(self, num_words: int, word_bits: int, first_level_bits: int) -> None:
        self.num_words = num_words
        self.word_bits = word_bits
        self.first_level_bits = first_level_bits
        #: Hierarchy bit budget per word, ``w − b1`` (= HCBFWord capacity).
        self.capacity = word_bits - first_level_bits
        self.limbs = -(-first_level_bits // 64)
        self.counts = np.zeros(
            (num_words, first_level_bits), dtype=counts_dtype(self.capacity)
        )
        self.used = np.zeros(num_words, dtype=np.int64)
        self.hist = np.zeros((num_words, self.capacity + 2), dtype=np.int32)
        self.mirror = np.zeros((num_words, self.limbs), dtype=np.uint64)
        self.overlay = np.zeros((num_words, self.limbs), dtype=np.uint64)
        self.sat_mask = np.zeros(num_words, dtype=bool)
        # log2 lookup over possible level sizes (≤ b1); log2(1) = 0 keeps
        # the table usable without the scalar path's `size > 1` branch.
        self._log2 = np.zeros(first_level_bits + 1, dtype=np.float64)
        self._log2[1:] = np.log2(np.arange(1, first_level_bits + 1, dtype=np.float64))

    # -- introspection ---------------------------------------------------
    @property
    def stored_hash_bits(self) -> int:
        """Total hierarchy bits in use (= Σ counts, = Σ HCBFWord usage)."""
        return int(self.used.sum())

    def saturated_dict(self) -> dict[int, int]:
        """``{word index: overlay bitmap}`` in ascending index order."""
        out: dict[int, int] = {}
        for w in np.flatnonzero(self.sat_mask).tolist():
            out[w] = self._overlay_int(w)
        return out

    def _overlay_int(self, word_index: int) -> int:
        value = 0
        for limb in range(self.limbs):
            value |= int(self.overlay[word_index, limb]) << (64 * limb)
        return value

    def set_saturated(self, mapping: dict[int, int]) -> None:
        """Replace the saturation state; overlay bits fold into the mirror."""
        self.sat_mask[:] = False
        self.overlay[:] = 0
        mask = (1 << 64) - 1
        for word_index, overlay in mapping.items():
            self.sat_mask[word_index] = True
            for limb in range(self.limbs):
                val = np.uint64((overlay >> (64 * limb)) & mask)
                self.overlay[word_index, limb] = val
                self.mirror[word_index, limb] |= val

    # -- scalar helpers (trigger keys, merges, conversions) --------------
    def _overlay_set(self, word_index: int, pos: int) -> None:
        bit = np.uint64(1 << (pos & 63))
        self.overlay[word_index, pos >> 6] |= bit
        self.mirror[word_index, pos >> 6] |= bit

    def _overlay_pairs(self, W: np.ndarray, P: np.ndarray) -> None:
        limb = P >> 6
        bit = _U1 << (P & 63).astype(np.uint64)
        np.bitwise_or.at(self.overlay, (W, limb), bit)
        np.bitwise_or.at(self.mirror, (W, limb), bit)

    def insert_one(self, word_index: int, pos: int) -> float:
        """Apply one hash insertion; returns its traversal bits.

        The caller must have verified budget (``used < capacity``) —
        mirrors ``HCBFWord.insert_bit`` after its overflow check.
        """
        c = int(self.counts[word_index, pos])
        bits = 0.0
        if c:
            hist = self.hist[word_index]
            for j in range(1, c + 1):
                size = int(hist[j])
                if size > 1:
                    bits += math.log2(size)
        self.counts[word_index, pos] = c + 1
        self.hist[word_index, c + 1] += 1
        self.used[word_index] += 1
        if c == 0:
            self.mirror[word_index, pos >> 6] |= np.uint64(1 << (pos & 63))
        return bits

    def delete_one(self, word_index: int, pos: int) -> float:
        """Apply one hash deletion; returns its traversal bits."""
        c = int(self.counts[word_index, pos])
        bits = 0.0
        if c > 1:
            hist = self.hist[word_index]
            for j in range(1, c):
                size = int(hist[j])
                if size > 1:
                    bits += math.log2(size)
        self.counts[word_index, pos] = c - 1
        self.hist[word_index, c] -= 1
        self.used[word_index] -= 1
        if c == 1:
            self.mirror[word_index, pos >> 6] &= ~np.uint64(1 << (pos & 63))
        return bits

    # -- per-key routines (the filter's scalar API, trigger replay) ------
    def insert_key(
        self, groups: list[tuple[int, list[int]]], policy: str
    ) -> tuple[int, float]:
        """Insert one key's ``(word, offsets)`` groups, two-phase.

        A dry-run demand check first, so a failed insert leaves every
        word untouched; raises :class:`WordOverflowError` under the
        ``raise`` policy with the word chosen by the first-touch demand
        order.  Returns ``(overflow_events, extra_bits)``.
        """
        demand: dict[int, int] = {}
        for word_index, offsets in groups:
            demand[word_index] = demand.get(word_index, 0) + len(offsets)
        for word_index, need in demand.items():
            if self.sat_mask[word_index]:
                continue
            if self.capacity - int(self.used[word_index]) < need:
                if policy == "raise":
                    raise WordOverflowError(word_index, self.capacity)
                self.sat_mask[word_index] = True
        events = 0
        extra = 0.0
        for word_index, offsets in groups:
            if self.sat_mask[word_index]:
                for pos in offsets:
                    self._overlay_set(word_index, pos)
                    events += 1
            else:
                for pos in offsets:
                    extra += self.insert_one(word_index, pos)
        return events, extra

    def _underflow(
        self, groups: list[tuple[int, list[int]]]
    ) -> CounterUnderflowError | None:
        """The error deleting one key's groups raises, if any.

        Demand aggregates across all groups (with ``g > 1`` two groups
        can land in one word); saturated words are skipped, not checked.
        """
        demand: dict[tuple[int, int], int] = {}
        for word_index, offsets in groups:
            if self.sat_mask[word_index]:
                continue
            for pos in offsets:
                demand[(word_index, pos)] = demand.get((word_index, pos), 0) + 1
        for (word_index, pos), need in demand.items():
            if int(self.counts[word_index, pos]) < need:
                return CounterUnderflowError(pos)
        return None

    def delete_key(self, groups: list[tuple[int, list[int]]]) -> tuple[int, float]:
        """Delete one key, validated first; ``(skipped_deletes, extra_bits)``."""
        error = self._underflow(groups)
        if error is not None:
            raise error
        skipped = 0
        extra = 0.0
        for word_index, offsets in groups:
            if self.sat_mask[word_index]:
                skipped += len(offsets)
                continue
            for pos in offsets:
                extra += self.delete_one(word_index, pos)
        return skipped, extra

    def query_key(self, groups: list[tuple[int, list[int]]]) -> tuple[bool, int]:
        """``(member, words read)``: stops at the first word ruling it out.

        The mirror holds exactly the first-level membership bits
        (saturation overlays folded in), so each probe is one limb read.
        """
        mirror = self.mirror
        accesses = 0
        for word_index, offsets in groups:
            accesses += 1
            row = mirror[word_index]
            if any(not (int(row[pos >> 6]) >> (pos & 63)) & 1 for pos in offsets):
                return False, accesses
        return True, accesses

    def count_key(self, groups: list[tuple[int, list[int]]]) -> int:
        """Multiplicity estimate: the minimum of the key's counters."""
        counts = self.counts
        overlay = self.overlay
        best = None
        for word_index, offsets in groups:
            for pos in offsets:
                value = int(counts[word_index, pos])
                if (
                    value == 0
                    and (int(overlay[word_index, pos >> 6]) >> (pos & 63)) & 1
                ):
                    value = 1  # overlay knows membership, not multiplicity
                best = value if best is None else min(best, value)
        return int(best or 0)

    # -- vectorised pair application -------------------------------------
    def _live_groups(self, W: np.ndarray, sat: np.ndarray):
        """Stably group the unsaturated pairs of flat pair words ``W`` by word.

        Returns ``None`` when no pair is live, else ``(live, order,
        uniq, starts, sizes)``: the flat indices of the live pairs
        (``None`` when all are), the stable sort of the live pairs'
        words, and that sort's groups.
        """
        live = np.flatnonzero(~sat) if sat.any() else None
        Wl = W if live is None else W[live]
        if len(Wl) == 0:
            return None
        order = np.argsort(Wl, kind="stable")
        return (live, order, *_group_sorted(Wl[order]))

    def _apply_pairs_insert(
        self,
        Ps: np.ndarray,
        uniq: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        block_words: int,
        blocks: int,
    ) -> np.ndarray:
        """Apply insert pairs, grouped by word, known to fit their budgets.

        ``Ps`` holds the positions in word-sorted (stable) order and
        ``uniq``/``starts``/``sizes`` are the word groups.  Rounds over
        the groups: pair ``r`` of every word applies together, so each
        word's pairs land in original order against exactly the
        hist/counts state the scalar path would have seen.  Returns the
        traversal bits per block.
        """
        log2tab = self._log2
        extra = np.zeros(blocks, dtype=np.float64)
        for r in range(int(sizes.max())):
            sel = sizes > r
            A = uniq[sel]
            p = Ps[starts[sel] + r]
            c = self.counts[A, p].astype(np.int64)
            cmax = int(c.max())
            if cmax > 0:
                # Traversal charges Σ_{j=1..c} log2(hist[j]) with the
                # pre-insert sizes; a cumsum over the hist slice gives
                # every pair its own prefix in one pass.
                clog = np.cumsum(log2tab[self.hist[A, 1 : cmax + 1]], axis=1)
                deep = np.flatnonzero(c > 0)
                extra += _block_sums(
                    A[deep], block_words, blocks, clog[deep, c[deep] - 1]
                )
            self.counts[A, p] = (c + 1).astype(self.counts.dtype)
            self.hist[A, c + 1] += 1
            fresh = c == 0
            if fresh.any():
                An = A[fresh]
                pn = p[fresh]
                self.mirror[An, pn >> 6] |= _U1 << (pn & 63).astype(np.uint64)
        self.used[uniq] += sizes
        return extra

    def _apply_pairs_delete(
        self, W: np.ndarray, P: np.ndarray, block_words: int, blocks: int
    ) -> np.ndarray:
        """Apply (word, pos) delete pairs known not to underflow."""
        order = np.argsort(W, kind="stable")
        Ps = P[order]
        uniq, starts, sizes = _group_sorted(W[order])
        log2tab = self._log2
        extra = np.zeros(blocks, dtype=np.float64)
        for r in range(int(sizes.max())):
            sel = sizes > r
            A = uniq[sel]
            p = Ps[starts[sel] + r]
            c = self.counts[A, p].astype(np.int64)
            cmax = int(c.max())
            if cmax > 1:
                # Deletes traverse to depth c−1: Σ_{j=1..c−1} log2(hist[j]).
                clog = np.cumsum(log2tab[self.hist[A, 1:cmax]], axis=1)
                deep = np.flatnonzero(c > 1)
                extra += _block_sums(
                    A[deep], block_words, blocks, clog[deep, c[deep] - 2]
                )
            self.hist[A, c] -= 1
            self.counts[A, p] = (c - 1).astype(self.counts.dtype)
            emptied = c == 1
            if emptied.any():
                An = A[emptied]
                pn = p[emptied]
                self.mirror[An, pn >> 6] &= ~(_U1 << (pn & 63).astype(np.uint64))
        self.used[uniq] -= sizes
        return extra

    # -- trigger detection ------------------------------------------------
    @staticmethod
    def _first_over(groups, have: np.ndarray, k: int) -> int | None:
        """First key with a pair ranked at or past its group's ``have``.

        ``groups`` is a :meth:`_live_groups`-style grouping of flat pair
        indices (``k`` pairs per key) and ``have`` the per-group limit.
        A pair's rank counts the earlier pairs of its group; a group
        no larger than its limit has no such pair, so the common case
        needs only the group sizes.
        """
        live, order, _, starts, sizes = groups
        if not (sizes > have).any():
            return None
        rank = np.arange(len(order), dtype=np.int64) - np.repeat(starts, sizes)
        hit = order[rank >= np.repeat(have, sizes)]
        flat = hit if live is None else live[hit]
        return int(flat.min()) // k

    def _first_insert_trigger(self, groups, k: int) -> int | None:
        """First key whose aggregate demand overflows some word, if any.

        A key fails exactly when one of its pairs has within-word rank
        ``≥`` the word's free budget (rank counts the segment's earlier
        pairs for that word): the rank inequality and the scalar
        ``bits_free < need`` check are equivalent, and the minimum over
        failing keys is the first scalar failure.
        """
        if groups is None:
            return None
        return self._first_over(groups, self.capacity - self.used[groups[2]], k)

    def _first_underflow_key(
        self, W: np.ndarray, P: np.ndarray, live: np.ndarray | None, k: int
    ) -> int | None:
        """First key deleting more from some counter than it holds."""
        cell = W * np.int64(self.first_level_bits) + P
        if live is not None:
            cell = cell[live]
        if len(cell) == 0:
            return None
        order = np.argsort(cell, kind="stable")
        uniq, starts, sizes = _group_sorted(cell[order])
        have = self.counts.reshape(-1)[uniq].astype(np.int64)
        return self._first_over((live, order, uniq, starts, sizes), have, k)

    # -- bulk kernels ------------------------------------------------------
    def _blocks(self, block_words: int | None) -> tuple[int, int]:
        """``(block_words, blocks)`` for a call's row-block layout."""
        if block_words is None:
            return self.num_words, 1
        return block_words, self.num_words // block_words

    def bulk_insert(
        self,
        word_idx: np.ndarray,
        offsets: np.ndarray,
        word_cols: np.ndarray,
        policy: str,
        block_words: int | None = None,
    ) -> KernelOutcome:
        """Batch insert of located keys (``(n, g)`` words, ``(n, k)`` offsets).

        Segments between overflow triggers apply wholesale through
        :meth:`_apply_pairs_insert`; each triggering key replays through
        :meth:`insert_key` so saturation/raise semantics match the
        per-key path (including partial application under ``raise``).

        ``block_words`` splits the words into row blocks of that many
        words (one per filter sharing these arrays): the outcome then
        counts per block, and a :class:`WordOverflowError` names the
        word by its index within its block.
        """
        n, k = offsets.shape
        block_words, blocks = self._blocks(block_words)
        W = np.ascontiguousarray(word_idx[:, word_cols])
        out = KernelOutcome.empty(blocks)
        start = 0
        while start < n:
            Wf = W[start:].ravel()
            sat = self.sat_mask[Wf]
            groups = self._live_groups(Wf, sat)
            trigger = self._first_insert_trigger(groups, k)
            stop = n if trigger is None else start + trigger
            if stop > start:
                Pf = offsets[start:stop].ravel()
                if trigger is not None:
                    # Regroup just the segment before the trigger key.
                    Wf = Wf[: len(Pf)]
                    sat = sat[: len(Pf)]
                    groups = self._live_groups(Wf, sat)
                if sat.any():
                    self._overlay_pairs(Wf[sat], Pf[sat])
                    out.overflow_events += _block_sums(
                        Wf[sat], block_words, blocks
                    )
                if groups is not None:
                    live, order, uniq, starts, sizes = groups
                    Pl = Pf if live is None else Pf[live]
                    out.extra_bits += self._apply_pairs_insert(
                        Pl[order], uniq, starts, sizes, block_words, blocks
                    )
                out.applied_keys = stop
            if trigger is None:
                out.applied_keys = n
                return out
            (groups,) = key_groups(
                word_idx[stop : stop + 1], offsets[stop : stop + 1], word_cols
            )
            try:
                events, extra = self.insert_key(groups, policy)
            except WordOverflowError as exc:
                out.error = WordOverflowError(
                    exc.word_index % block_words, exc.capacity
                )
                return out
            block = int(word_idx[stop, 0]) // block_words
            out.overflow_events[block] += events
            out.extra_bits[block] += extra
            out.applied_keys = stop + 1
            start = stop + 1
        return out

    def bulk_delete(
        self,
        word_idx: np.ndarray,
        offsets: np.ndarray,
        word_cols: np.ndarray,
        block_words: int | None = None,
    ) -> KernelOutcome:
        """Batch delete; validates all keys up-front like the scalar path.

        Pairs touching saturated words are skipped (counted in
        ``skipped_deletes``) and excluded from underflow validation,
        exactly as :meth:`delete_key` does per key.
        ``block_words`` is as for :meth:`bulk_insert`.
        """
        n, k = offsets.shape
        block_words, blocks = self._blocks(block_words)
        W = np.ascontiguousarray(word_idx[:, word_cols]).ravel()
        P = offsets.ravel()
        sat = self.sat_mask[W]
        any_sat = bool(sat.any())
        live = np.flatnonzero(~sat) if any_sat else None
        fail = self._first_underflow_key(W, P, live, k)
        stop = n if fail is None else fail
        out = KernelOutcome.empty(blocks)
        if stop > 0:
            cut = stop * k
            Wm, Pm = W[:cut], P[:cut]
            if any_sat:
                sat_cut = sat[:cut]
                out.skipped_deletes = _block_sums(Wm[sat_cut], block_words, blocks)
                Wm, Pm = Wm[~sat_cut], Pm[~sat_cut]
            if len(Wm):
                out.extra_bits = self._apply_pairs_delete(
                    Wm, Pm, block_words, blocks
                )
            out.applied_keys = stop
        if fail is not None:
            (groups,) = key_groups(
                word_idx[fail : fail + 1], offsets[fail : fail + 1], word_cols
            )
            out.error = self._underflow(groups)
            if out.error is None:
                raise AssertionError("bulk_delete flagged a key delete_key accepts")
        return out

    def bulk_query(
        self,
        word_idx: np.ndarray,
        offsets: np.ndarray,
        word_cols: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised membership: ``(member, word accesses)`` per key."""
        return probe_mirror(self.mirror, word_idx, offsets, word_cols)

    def bulk_count(
        self,
        word_idx: np.ndarray,
        offsets: np.ndarray,
        word_cols: np.ndarray,
    ) -> np.ndarray:
        """Vectorised multiplicity estimates (min over hashed counters)."""
        W = word_idx[:, word_cols]
        values = self.counts[W, offsets].astype(np.int64)
        shift = (offsets & 63).astype(np.uint64)
        member = (self.overlay[W, offsets >> 6] >> shift) & _U1
        # Overlay bits witness membership, not multiplicity: count ≥ 1.
        values = np.where((values == 0) & (member == _U1), 1, values)
        return values.min(axis=1)

    def merge(self, other, policy: str) -> KernelOutcome:
        """Add another same-geometry engine's counters into this one.

        Words whose incoming load fits the free budget merge with one
        array add plus a hist/mirror rebuild; saturated or overflowing
        words replay unit by unit in the scalar engine's order, so
        overlay contents, ``overflow_events`` and the raise point stay
        identical.  An overflow under ``raise`` stops the merge and is
        returned as the outcome's ``error``.
        """
        out = KernelOutcome.empty(1)
        other_counts = other.counts_matrix().astype(np.int64)
        other_saturated = dict(other.saturated_dict())
        incoming = other_counts.sum(axis=1)
        has_load = incoming > 0
        trouble = has_load & ((incoming > self.capacity - self.used) | self.sat_mask)
        limit = self.num_words
        overflowing = trouble & ~self.sat_mask
        if policy == "raise" and overflowing.any():
            # Scalar order: words merge by ascending index; the first
            # over-budget unsaturated word raises, leaving later words
            # untouched.
            limit = int(np.flatnonzero(overflowing).min())
        indices = np.arange(self.num_words)
        easy = np.flatnonzero(has_load & ~trouble & (indices < limit))
        if len(easy):
            self.counts[easy] += other_counts[easy].astype(self.counts.dtype)
            self.used[easy] += incoming[easy]
            self.rebuild_hist_rows(easy)
            self.rebuild_mirror_rows(easy)
        # Under ``raise`` every trouble word below ``limit`` is saturated,
        # so only the limit word itself can reach the raise.
        for w in np.flatnonzero(trouble & (indices <= limit)).tolist():
            row = other_counts[w]
            for pos in np.flatnonzero(row).tolist():
                for _ in range(int(row[pos])):
                    if self.sat_mask[w]:
                        self._overlay_set(w, pos)
                        out.overflow_events += 1
                    elif self.used[w] >= self.capacity:
                        if policy == "raise":
                            out.error = WordOverflowError(w, self.capacity)
                            return out
                        self.sat_mask[w] = True
                        self._overlay_set(w, pos)
                        out.overflow_events += 1
                    else:
                        self.insert_one(w, pos)
        for index, overlay in other_saturated.items():
            self.sat_mask[index] = True
            for pos in range(self.first_level_bits):
                if (overlay >> pos) & 1:
                    self._overlay_set(index, pos)
                    out.overflow_events += 1
        return out

    # -- conversions -------------------------------------------------------
    @property
    def words(self) -> "WordsView":
        """Lazy read-only :class:`HCBFWord` snapshots, one per word."""
        return WordsView(self)

    def counts_matrix(self) -> np.ndarray:
        """Every word's counter values, ``(l, b1)`` (the live array)."""
        return self.counts

    def load_counts(self, counts: np.ndarray, saturated: dict[int, int]) -> None:
        """Replace the state with a counts matrix and the ``{word index:
        overlay}`` map of saturated words."""
        self.counts[...] = counts
        self.set_saturated(saturated)
        self.rebuild_derived()

    def word_level_state(self, word_index: int) -> tuple[list[int], list[int]]:
        """One word's canonical ``(sizes, level bitmaps)``.

        Byte-compatible with ``HCBFWord``'s internal representation:
        identical ``_sizes`` and ``_levels`` for the same counters, so
        serialisation round-trips across kernels bit for bit.
        """
        counts = self.counts[word_index].astype(np.int64)
        maxc = int(counts.max(initial=0))
        sizes = [self.first_level_bits]
        levels = [_bits_to_int(counts >= 1)]
        for j in range(1, maxc + 1):
            members = counts[counts >= j]
            sizes.append(int(members.size))
            levels.append(_bits_to_int(members >= j + 1))
        return sizes, levels

    def set_word_level_state(
        self, word_index: int, sizes: list, levels: list
    ) -> None:
        """Load one word from scalar-format level state.

        Only ``counts`` is written; call :meth:`rebuild_derived` once
        after loading every word.
        """
        counts = counts_from_levels(sizes, levels, self.first_level_bits)
        self.counts[word_index] = counts.astype(self.counts.dtype)

    def word_at(self, index: int):
        """Materialise a scalar :class:`HCBFWord` snapshot of one word."""
        from repro.filters.hcbf_word import HCBFWord

        word = HCBFWord(self.word_bits, self.first_level_bits, index=index)
        sizes, levels = self.word_level_state(index)
        word._sizes = sizes
        word._levels = levels
        return word

    def rebuild_derived(self) -> None:
        """Recompute ``used``/``hist``/``mirror`` from ``counts``."""
        self.used[:] = self.counts.sum(axis=1, dtype=np.int64)
        self.hist[:] = 0
        for j in range(1, int(self.counts.max(initial=0)) + 1):
            self.hist[:, j] = (self.counts >= j).sum(axis=1)
        self.rebuild_mirror_rows(None)

    def rebuild_hist_rows(self, rows: np.ndarray) -> None:
        """Recompute ``hist`` for a subset of words (wholesale merges)."""
        counts = self.counts[rows].astype(np.int64)
        fresh = np.zeros((len(rows), self.hist.shape[1]), dtype=self.hist.dtype)
        for j in range(1, int(counts.max(initial=0)) + 1):
            fresh[:, j] = (counts >= j).sum(axis=1)
        self.hist[rows] = fresh

    def rebuild_mirror_rows(self, rows: np.ndarray | None) -> None:
        """Repack first-level limbs (``counts > 0`` | overlay) for ``rows``."""
        index = slice(None) if rows is None else rows
        self.mirror[index] = (
            pack_first_level(self.counts[index], self.limbs) | self.overlay[index]
        )

    # -- process sharing ---------------------------------------------------
    def shareable_arrays(self) -> dict[str, np.ndarray]:
        """The state arrays a process pool must share, by field name."""
        return {name: getattr(self, name) for name in SHARED_FIELDS}

    def rebind(self, arrays: dict[str, np.ndarray]) -> None:
        """Point the state at externally provided arrays (shared memory)."""
        for name in SHARED_FIELDS:
            setattr(self, name, arrays[name])

    # -- validation --------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert columnar self-consistency (tests and debugging)."""
        counts = self.counts.astype(np.int64)
        assert (counts >= 0).all(), "negative counter"
        assert (self.used == counts.sum(axis=1)).all(), "used desync"
        assert (self.used <= self.capacity).all(), "budget exceeded"
        maxc = int(counts.max(initial=0))
        for j in range(1, maxc + 1):
            expect = (counts >= j).sum(axis=1)
            assert (self.hist[:, j] == expect).all(), f"hist desync at level {j}"
        assert (self.hist[:, 0] == 0).all()
        assert (self.hist[:, maxc + 1 :] == 0).all(), "stale hist tail"
        if not self.sat_mask.all():
            assert not self.overlay[~self.sat_mask].any(), (
                "overlay bits on unsaturated word"
            )
        expect_mirror = pack_first_level(counts, self.limbs) | self.overlay
        assert (self.mirror == expect_mirror).all(), "mirror desync"


class WordsView(Sequence):
    """Lazy read-only sequence of scalar word snapshots.

    ``view[i]`` materialises only word ``i``, so idioms like
    ``filt.words[i].level_sizes()`` inside a loop over all words stay
    O(word) per access instead of rebuilding the whole filter's word
    list each time.  Snapshots are fresh objects — mutating one does
    not write back to the columnar state.
    """

    def __init__(self, columns: ColumnarHCBF) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return self._columns.num_words

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                self._columns.word_at(i)
                for i in range(*index.indices(self._columns.num_words))
            ]
        if index < 0:
            index += self._columns.num_words
        if not 0 <= index < self._columns.num_words:
            raise IndexError(index)
        return self._columns.word_at(index)
