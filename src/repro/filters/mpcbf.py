"""MPCBF — Multiple-Partitioned Counting Bloom Filter (§III.B–C).

The paper's contribution.  The membership counter vector is an array of
``l`` improved :class:`~repro.filters.hcbf_word.HCBFWord` words; a key
hashes to ``g`` words (one memory access each) and to ``k`` first-level
bit offsets split across them.  Queries read only the words' first
levels; updates traverse each word's popcount hierarchy.

Sizing: given the expected number of stored elements, ``n_max`` (the
per-word element bound) defaults to the paper's Poisson-inverse
heuristic (Eq. 11) and the first level is maximised to
``b1 = w − ⌈k/g⌉·n_max`` (§III.B.3).  A word that receives more than
``n_max`` elements raises :class:`repro.errors.WordOverflowError`; the
probability of that event is bounded by Eq. 6 / Eq. 10 and validated in
the test suite.

Two state backends share one observable behaviour:

* ``kernel="columnar"`` (default) keeps every word's hierarchy in the
  flat arrays of :class:`~repro.kernels.columnar.ColumnarHCBF`, so
  ``insert_many``/``delete_many``/``count_many`` run as batch NumPy
  kernels (sort by word, apply in rounds) and scalar calls delegate to
  one-key batches.
* ``kernel="scalar"`` keeps a list of :class:`HCBFWord` objects — the
  legible reference implementation and the equivalence oracle for the
  differential suite in ``tests/kernels/``.

Bulk queries run fully vectorised against a packed ``uint64`` mirror of
all first-level vectors, which both backends keep in sync (only
first-level flips matter; hierarchy churn never moves level-1 bits).
``to_scalar()``/``from_scalar()`` convert between backends exactly;
serialisation produces identical bytes either way.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, WordOverflowError
from repro.filters.base import CountingFilterBase
from repro.filters.hcbf_word import HCBFWord, improved_first_level_size
from repro.hashing.bit_budget import HashBitBudget
from repro.hashing.encoders import KeyEncoder
from repro.hashing.families import PartitionedHashFamily
from repro.kernels.columnar import (
    ColumnarHCBF,
    WordsView,
    counts_dtype,
    counts_from_levels,
    probe_mirror,
)
from repro.memmodel.accounting import OpKind

__all__ = ["MPCBF"]


class MPCBF(CountingFilterBase):
    """MPCBF-g counting filter.

    Parameters
    ----------
    num_words:
        Number of HCBF words ``l``; total memory is ``l·w`` bits.
    word_bits:
        Word width ``w`` (64 for the paper's main experiments).
    k:
        Total number of first-level hash functions.
    g:
        Memory accesses per operation (words per key).
    capacity:
        Expected number of stored elements ``n``; used by the ``n_max``
        heuristic.  Required unless ``n_max`` is given explicitly.
    n_max:
        Per-word element bound; overrides the heuristic when given.
    word_overflow:
        ``"raise"`` (default) surfaces
        :class:`~repro.errors.WordOverflowError` when a word's hierarchy
        fills up.  ``"saturate"`` freezes the overflowing word's
        hierarchy and keeps a membership-only overlay for it instead:
        queries stay false-negative-free, deletes touching the word
        become recorded no-ops (``skipped_deletes``), and every
        saturated insertion bumps ``overflow_events``.  The Eq. 11
        heuristic keeps the *expected* number of overflowing words
        around one in ``l``, so saturation is rare but not impossible
        on long experiment grids.
    kernel:
        ``"columnar"`` (default) runs bulk updates through the NumPy
        batch kernels; ``"scalar"`` keeps per-word ``HCBFWord`` objects
        (the reference path).  Both are observably equivalent.
    """

    def __init__(
        self,
        num_words: int,
        word_bits: int,
        k: int,
        *,
        g: int = 1,
        capacity: int | None = None,
        n_max: int | None = None,
        first_level_bits: int | None = None,
        seed: int = 0,
        word_overflow: str = "raise",
        kernel: str = "columnar",
        encoder: KeyEncoder | None = None,
    ) -> None:
        super().__init__(encoder=encoder)
        if num_words < 1:
            raise ConfigurationError(f"num_words must be >= 1, got {num_words}")
        if first_level_bits is not None:
            # Basic HCBF (§III.B.1): a caller-fixed b1 instead of the
            # improved maximised layout; n_max follows from the
            # leftover hierarchy budget.
            if not 1 <= first_level_bits < word_bits:
                raise ConfigurationError(
                    f"first_level_bits must be in [1, {word_bits}), "
                    f"got {first_level_bits}"
                )
            n_max = (word_bits - first_level_bits) // max(1, -(-k // g))
            if n_max < 1:
                raise ConfigurationError(
                    f"first_level_bits={first_level_bits} leaves no "
                    f"hierarchy budget for even one element"
                )
        elif n_max is None:
            if capacity is None:
                raise ConfigurationError(
                    "provide either capacity (for the Eq. 11 heuristic) or n_max"
                )
            # Local import: analysis depends on filters' sizing helpers.
            from repro.analysis.heuristics import n_max_heuristic

            n_max = n_max_heuristic(capacity, num_words, g=g)
        if n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
        self.name = f"MPCBF-{g}"
        self.num_words = num_words
        self.word_bits = word_bits
        self.k = k
        self.g = g
        self.n_max = n_max
        self.capacity = capacity
        self.hashes_per_word = -(-k // g)  # ceil(k/g), the paper's ⌈k/g⌉
        if first_level_bits is not None:
            self.first_level_bits = first_level_bits
        else:
            self.first_level_bits = improved_first_level_size(
                word_bits, self.hashes_per_word, n_max
            )
        if k > self.first_level_bits:
            raise ConfigurationError(
                f"k={k} exceeds first-level size b1={self.first_level_bits}"
            )
        self.family = PartitionedHashFamily(
            num_words, self.first_level_bits, k, g=g, seed=seed
        )
        if kernel not in ("columnar", "scalar"):
            raise ConfigurationError(
                f"kernel must be 'columnar' or 'scalar', got {kernel!r}"
            )
        self.kernel = kernel
        self._limbs = -(-self.first_level_bits // 64)
        self._word_cols = self.family.offset_word_columns()
        if kernel == "columnar":
            #: Columnar state engine (None on the scalar backend).
            self.columns: ColumnarHCBF | None = ColumnarHCBF(
                num_words, word_bits, self.first_level_bits
            )
            self._words_list: list[HCBFWord] | None = None
            self._mirror_arr: np.ndarray | None = None
            self._saturated_map: dict[int, int] | None = None
        else:
            self.columns = None
            self._words_list = [
                HCBFWord(word_bits, self.first_level_bits, index=i)
                for i in range(num_words)
            ]
            self._mirror_arr = np.zeros((num_words, self._limbs), dtype=np.uint64)
            self._saturated_map = {}
        self._budget_query = HashBitBudget.partitioned(
            num_words, self.first_level_bits, k, g
        )
        if word_overflow not in ("raise", "saturate"):
            raise ConfigurationError(
                f"word_overflow must be 'raise' or 'saturate', got {word_overflow!r}"
            )
        self.word_overflow = word_overflow
        #: Hash insertions absorbed by saturated words.
        self.overflow_events = 0
        #: Deletes skipped because they touched a saturated word.
        self.skipped_deletes = 0

    @property
    def total_bits(self) -> int:
        return self.num_words * self.word_bits

    @property
    def num_hashes(self) -> int:
        return self.k

    @property
    def words(self) -> Sequence[HCBFWord]:
        """Scalar word objects.

        On the scalar backend this is the live list; on the columnar
        backend it is a lazy sequence view that materialises a fresh
        read-only snapshot per indexed word (mutating one does not
        write back — use the filter API).
        """
        if self.columns is not None:
            return WordsView(self.columns)
        return self._words_list

    @property
    def _mirror(self) -> np.ndarray:
        """Packed first-level limbs, ``(l, limbs)`` uint64 (live array)."""
        if self.columns is not None:
            return self.columns.mirror
        return self._mirror_arr

    @property
    def _saturated(self) -> dict[int, int]:
        """Membership-only overlays for saturated words (index → bitmap).

        Live (mutable) dict on the scalar backend; a fresh snapshot
        derived from the saturation arrays on the columnar backend.
        """
        if self.columns is not None:
            return self.columns.saturated_dict()
        return self._saturated_map

    @property
    def stored_hash_bits(self) -> int:
        """Total hierarchy bits in use across all words."""
        if self.columns is not None:
            return self.columns.stored_hash_bits
        return sum(word.hierarchy_bits_used for word in self._words_list)

    def _mirror_set(self, word_index: int, bit: int) -> None:
        self._mirror[word_index, bit >> 6] |= np.uint64(1 << (bit & 63))

    def _mirror_clear(self, word_index: int, bit: int) -> None:
        self._mirror[word_index, bit >> 6] &= np.uint64(
            ~(1 << (bit & 63)) & 0xFFFFFFFFFFFFFFFF
        )

    def _saturate_word(self, word_index: int) -> None:
        """Freeze a word's hierarchy; further inserts go to the overlay."""
        self._saturated_map.setdefault(word_index, 0)

    def _overlay_insert(self, word_index: int, offsets: list[int]) -> None:
        overlay = self._saturated_map[word_index]
        for pos in offsets:
            overlay |= 1 << pos
            self._mirror_set(word_index, pos)
            self.overflow_events += 1
        self._saturated_map[word_index] = overlay

    # -- scalar ---------------------------------------------------------
    def _columnar_apply_insert(self, word_indices, groups) -> float:
        """Single-key insert against the columnar arrays.

        Line-for-line mirror of the object-backed ``_apply_insert`` —
        same dry-run demand check, same saturation/overlay behaviour,
        same ``math.log2`` traversal-bit accounting — but ~10× cheaper
        than routing a one-key batch through the bulk kernel (argsort,
        round scheduling, outcome folding all cost more than the key).
        """
        cols = self.columns
        demand: dict[int, int] = {}
        for word_index, offsets in zip(word_indices, groups):
            demand[word_index] = demand.get(word_index, 0) + len(offsets)
        for word_index, need in demand.items():
            if cols.sat_mask[word_index]:
                continue
            if cols.capacity - int(cols.used[word_index]) < need:
                if self.word_overflow == "raise":
                    raise WordOverflowError(word_index, cols.capacity)
                cols.sat_mask[word_index] = True
        extra_bits = 0.0
        for word_index, offsets in zip(word_indices, groups):
            if cols.sat_mask[word_index]:
                for pos in offsets:
                    cols._overlay_set(word_index, pos)
                    self.overflow_events += 1
            else:
                for pos in offsets:
                    extra_bits += cols.insert_one(word_index, pos)
        return extra_bits

    def insert_encoded(self, encoded_key: int) -> None:
        # Two-phase inside _apply_insert: dry-run capacity check first,
        # so a failed insert leaves every word untouched.
        word_indices = self.family.word_indices(encoded_key)
        groups = self.family.grouped_offsets(encoded_key)
        if self.columns is not None:
            extra_bits = self._columnar_apply_insert(word_indices, groups)
        else:
            extra_bits = self._apply_insert(word_indices, groups)
        self.stats.record(
            OpKind.INSERT,
            word_accesses=float(self.g),
            hash_bits=self._budget_query.total_bits + extra_bits,
            hash_calls=self._budget_query.hash_calls,
        )

    def _columnar_delete_encoded(
        self, word_indices, groups
    ) -> None:
        """Single-key delete against the columnar arrays (see insert)."""
        cols = self.columns
        demand: dict[tuple[int, int], int] = {}
        for word_index, offsets in zip(word_indices, groups):
            if cols.sat_mask[word_index]:
                continue
            for pos in offsets:
                demand[(word_index, pos)] = demand.get((word_index, pos), 0) + 1
        for (word_index, pos), need in demand.items():
            if int(cols.counts[word_index, pos]) < need:
                from repro.errors import CounterUnderflowError

                raise CounterUnderflowError(pos)
        extra_bits = 0.0
        for word_index, offsets in zip(word_indices, groups):
            if cols.sat_mask[word_index]:
                self.skipped_deletes += len(offsets)
                continue
            for pos in offsets:
                extra_bits += cols.delete_one(word_index, pos)
        self.stats.record(
            OpKind.DELETE,
            word_accesses=float(self.g),
            hash_bits=self._budget_query.total_bits + extra_bits,
            hash_calls=self._budget_query.hash_calls,
        )

    def delete_encoded(self, encoded_key: int) -> None:
        word_indices = self.family.word_indices(encoded_key)
        groups = self.family.grouped_offsets(encoded_key)
        if self.columns is not None:
            self._columnar_delete_encoded(word_indices, groups)
            return
        # Validate all counters first so a bad delete leaves no trace.
        # Demand aggregates across *all* groups: with g > 1 the word
        # hashes can collide, landing two groups' offsets in one word.
        demand: dict[tuple[int, int], int] = {}
        for word_index, offsets in zip(word_indices, groups):
            if word_index in self._saturated_map:
                continue
            for pos in offsets:
                demand[(word_index, pos)] = demand.get((word_index, pos), 0) + 1
        for (word_index, pos), need in demand.items():
            if self._words_list[word_index].count(pos) < need:
                from repro.errors import CounterUnderflowError

                raise CounterUnderflowError(pos)
        extra_bits = 0.0
        for word_index, offsets in zip(word_indices, groups):
            if word_index in self._saturated_map:
                # A frozen word cannot safely decrement: skip, keep the
                # bits set (no false negatives), and record the skip.
                self.skipped_deletes += len(offsets)
                continue
            word = self._words_list[word_index]
            for pos in offsets:
                remaining, bits = word.delete_bit(pos)
                extra_bits += bits
                if remaining == 0:
                    self._mirror_clear(word_index, pos)
        self.stats.record(
            OpKind.DELETE,
            word_accesses=float(self.g),
            hash_bits=self._budget_query.total_bits + extra_bits,
            hash_calls=self._budget_query.hash_calls,
        )

    def query_encoded(self, encoded_key: int) -> bool:
        word_indices = self.family.word_indices(encoded_key)
        groups = self.family.grouped_offsets(encoded_key)
        accesses = 0
        result = True
        if self.columns is not None:
            # The packed mirror holds exactly the first-level membership
            # bits (saturation overlays already folded in), so one limb
            # read per probe replaces the word-object walk.
            mirror = self.columns.mirror
            for word_index, offsets in zip(word_indices, groups):
                accesses += 1
                row = mirror[word_index]
                if any(
                    not (int(row[pos >> 6]) >> (pos & 63)) & 1
                    for pos in offsets
                ):
                    result = False
                    break
        else:
            for word_index, offsets in zip(word_indices, groups):
                accesses += 1
                word = self._words_list[word_index]
                overlay = self._saturated_map.get(word_index, 0)
                if any(
                    not (word.query_bit(pos) or (overlay >> pos) & 1)
                    for pos in offsets
                ):
                    result = False
                    break
        self.stats.record(
            OpKind.QUERY,
            word_accesses=float(accesses),
            hash_bits=self._budget_query.total_bits / self.g * accesses,
            hash_calls=self._budget_query.hash_calls,
        )
        return result

    def count_encoded(self, encoded_key: int) -> int:
        word_indices = self.family.word_indices(encoded_key)
        groups = self.family.grouped_offsets(encoded_key)
        best = None
        if self.columns is not None:
            counts = self.columns.counts
            overlay_arr = self.columns.overlay
            for word_index, offsets in zip(word_indices, groups):
                for pos in offsets:
                    value = int(counts[word_index, pos])
                    if (
                        value == 0
                        and (int(overlay_arr[word_index, pos >> 6]) >> (pos & 63)) & 1
                    ):
                        value = 1  # overlay knows membership, not multiplicity
                    best = value if best is None else min(best, value)
            return int(best or 0)
        for word_index, offsets in zip(word_indices, groups):
            word = self._words_list[word_index]
            overlay = self._saturated_map.get(word_index, 0)
            for pos in offsets:
                value = word.count(pos)
                if value == 0 and (overlay >> pos) & 1:
                    value = 1  # overlay knows membership, not multiplicity
                best = value if best is None else min(best, value)
        return int(best or 0)

    # -- bulk -----------------------------------------------------------
    def _grouped_rows(self, encoded: np.ndarray):
        """One vectorised hash pass for a whole batch of updates.

        Yields ``(word_indices_row, grouped_offsets_row)`` per key —
        the hierarchy mutations stay scalar (they are inherently
        sequential per word), but the k+g−1 mixes per key run in NumPy,
        which dominates the pure-Python cost at batch sizes ≥ ~1000.
        ``tolist()`` converts each matrix to Python ints in one C pass;
        per-element ``int()`` casts used to dominate the batch cost
        before any hierarchy work happened.
        """
        word_idx, offsets = self.family.locate_array(encoded)
        k_per_word = self.family.k_per_word
        word_rows = word_idx.tolist()
        offset_rows = offsets.tolist()
        for row in range(len(encoded)):
            flat = offset_rows[row]
            groups = []
            start = 0
            for count in k_per_word:
                groups.append(flat[start : start + count])
                start += count
            yield word_rows[row], groups

    def _apply_insert(self, word_indices, groups) -> float:
        """Scalar insert body shared by insert_encoded and insert_many."""
        extra_bits = 0.0
        demand: dict[int, int] = {}
        for word_index, offsets in zip(word_indices, groups):
            demand[word_index] = demand.get(word_index, 0) + len(offsets)
        for word_index, need in demand.items():
            if word_index in self._saturated_map:
                continue
            if self._words_list[word_index].bits_free < need:
                if self.word_overflow == "raise":
                    raise WordOverflowError(
                        word_index,
                        self._words_list[word_index].hierarchy_capacity_bits,
                    )
                self._saturate_word(word_index)
        for word_index, offsets in zip(word_indices, groups):
            if word_index in self._saturated_map:
                self._overlay_insert(word_index, offsets)
                continue
            word = self._words_list[word_index]
            for pos in offsets:
                depth, bits = word.insert_bit(pos)
                extra_bits += bits
                if depth == 1:
                    self._mirror_set(word_index, pos)
        return extra_bits

    def record_bulk_update(self, kind: OpKind, count: int, extra_bits: float) -> None:
        """Record ``count`` applied bulk inserts or deletes.

        ``extra_bits`` is their summed hierarchy traversal bandwidth.
        Shared with :class:`~repro.parallel.ShardedFilterBank`, which
        runs the kernel for all of its shards at once and hands each
        shard its own share.
        """
        self.stats.record(
            kind,
            count=count,
            word_accesses=float(self.g * count),
            hash_bits=self._budget_query.total_bits * count + extra_bits,
            hash_calls=self._budget_query.hash_calls * count,
        )

    def record_bulk_query(self, count: int, word_accesses: float) -> None:
        """Record ``count`` bulk queries that read ``word_accesses`` words."""
        self.stats.record(
            OpKind.QUERY,
            count=count,
            word_accesses=word_accesses,
            hash_bits=self._budget_query.total_bits / self.g * word_accesses,
            hash_calls=self._budget_query.hash_calls * count,
        )

    def insert_many(self, keys: object) -> None:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return
        if self.columns is not None:
            word_idx, offsets = self.family.locate_array(encoded)
            outcome = self.columns.bulk_insert(
                word_idx, offsets, self._word_cols, self.word_overflow
            )
            self.overflow_events += int(outcome.overflow_events[0])
            if outcome.error is not None:
                # Scalar insert_many raises mid-batch before recording
                # any statistics; earlier keys stay applied.
                raise outcome.error
            self.record_bulk_update(
                OpKind.INSERT, len(encoded), float(outcome.extra_bits[0])
            )
            return
        total_extra = 0.0
        for word_indices, groups in self._grouped_rows(encoded):
            total_extra += self._apply_insert(word_indices, groups)
        self.record_bulk_update(OpKind.INSERT, len(encoded), total_extra)

    def delete_many(self, keys: object) -> None:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return
        if self.columns is None:
            for key in encoded:
                self.delete_encoded(int(key))
            return
        word_idx, offsets = self.family.locate_array(encoded)
        outcome = self.columns.bulk_delete(word_idx, offsets, self._word_cols)
        self.skipped_deletes += int(outcome.skipped_deletes[0])
        if outcome.applied_keys:
            # The scalar path records per successfully deleted key, so
            # the prefix before a failing key is still accounted.
            self.record_bulk_update(
                OpKind.DELETE, outcome.applied_keys, float(outcome.extra_bits[0])
            )
        if outcome.error is not None:
            raise outcome.error

    def query_many(self, keys: object) -> np.ndarray:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=bool)
        word_idx, offsets = self.family.locate_array(encoded)
        member, accesses = probe_mirror(
            self._mirror, word_idx, offsets, self._word_cols
        )
        self.record_bulk_query(len(encoded), float(accesses.sum()))
        return member

    def count_many(self, keys: object) -> np.ndarray:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=np.int64)
        if self.columns is None:
            return super().count_many(encoded)
        word_idx, offsets = self.family.locate_array(encoded)
        return self.columns.bulk_count(word_idx, offsets, self._word_cols)

    def merge(self, other: "MPCBF") -> None:
        """Add another MPCBF's counters into this one (multiset union).

        Requires identical geometry and seed.  Per word, every
        first-level counter of ``other`` is re-inserted into this
        filter's hierarchy ``count`` times; saturated words of either
        side merge into this side's membership overlay.  Overflow
        follows this filter's ``word_overflow`` policy.
        """
        if (
            not isinstance(other, MPCBF)
            or other.num_words != self.num_words
            or other.word_bits != self.word_bits
            or other.k != self.k
            or other.g != self.g
            or other.first_level_bits != self.first_level_bits
            or other.family.seed != self.family.seed
        ):
            raise ConfigurationError(
                "merge requires an identically configured MPCBF"
            )
        if self.columns is not None:
            self._merge_columnar(other)
            return
        for index, word in enumerate(other.words):
            mine = self._words_list[index]
            for pos in range(self.first_level_bits):
                count = word.count(pos)
                for _ in range(count):
                    if index in self._saturated_map:
                        self._overlay_insert(index, [pos])
                        continue
                    if mine.bits_free < 1:
                        if self.word_overflow == "raise":
                            raise WordOverflowError(
                                index, mine.hierarchy_capacity_bits
                            )
                        self._saturate_word(index)
                        self._overlay_insert(index, [pos])
                        continue
                    depth, _ = mine.insert_bit(pos)
                    if depth == 1:
                        self._mirror_set(index, pos)
        # Membership-only overlays of the other side fold into ours.
        for index, overlay in other._saturated.items():
            self._saturate_word(index)
            positions = [
                pos
                for pos in range(self.first_level_bits)
                if (overlay >> pos) & 1
            ]
            if positions:
                self._overlay_insert(index, positions)

    def _merge_columnar(self, other: "MPCBF") -> None:
        """Columnar merge: wholesale adds where safe, scalar replay where not.

        Words whose incoming load fits the free budget merge with one
        array add plus a hist/mirror rebuild; saturated or overflowing
        words replay unit-by-unit in the exact scalar order so overlay
        contents, ``overflow_events`` and raise points stay identical.
        """
        col = self.columns
        other_counts = other.counts_matrix().astype(np.int64)
        other_saturated = dict(other._saturated)
        incoming = other_counts.sum(axis=1)
        has_load = incoming > 0
        trouble = has_load & ((incoming > col.capacity - col.used) | col.sat_mask)
        limit = self.num_words
        overflowing = trouble & ~col.sat_mask
        if self.word_overflow == "raise" and overflowing.any():
            # Scalar order: words merge by ascending index; the first
            # over-budget unsaturated word raises, leaving later words
            # untouched.
            limit = int(np.flatnonzero(overflowing).min())
        indices = np.arange(self.num_words)
        easy = np.flatnonzero(has_load & ~trouble & (indices < limit))
        if len(easy):
            col.counts[easy] += other_counts[easy].astype(col.counts.dtype)
            col.used[easy] += incoming[easy]
            col.rebuild_hist_rows(easy)
            col.rebuild_mirror_rows(easy)
        for w in np.flatnonzero(trouble & (indices < limit)).tolist():
            row = other_counts[w]
            for pos in np.flatnonzero(row).tolist():
                for _ in range(int(row[pos])):
                    if col.sat_mask[w]:
                        col._overlay_set(w, pos)
                        self.overflow_events += 1
                    elif col.used[w] >= col.capacity:
                        col.sat_mask[w] = True
                        col._overlay_set(w, pos)
                        self.overflow_events += 1
                    else:
                        col.insert_one(w, pos)
        if limit < self.num_words:
            w = limit
            row = other_counts[w]
            for pos in np.flatnonzero(row).tolist():
                for _ in range(int(row[pos])):
                    if col.used[w] >= col.capacity:
                        raise WordOverflowError(w, col.capacity)
                    col.insert_one(w, pos)
            raise AssertionError("merge trigger word did not overflow")
        for index, overlay in other_saturated.items():
            col.sat_mask[index] = True
            for pos in range(self.first_level_bits):
                if (overlay >> pos) & 1:
                    col._overlay_set(index, pos)
                    self.overflow_events += 1

    # -- kernel conversion ------------------------------------------------
    def counts_matrix(self) -> np.ndarray:
        """Every word's counter values, ``(l, b1)``: the whole hierarchy.

        With the saturated words' overlays this is the filter's complete
        state (see :mod:`repro.kernels.columnar`), in one dtype for both
        kernels.  The columnar kernel returns its live array.
        """
        if self.columns is not None:
            return self.columns.counts
        return np.array(
            [
                counts_from_levels(w._sizes, w._levels, self.first_level_bits)
                for w in self._words_list
            ],
            dtype=counts_dtype(self.word_bits - self.first_level_bits),
        ).reshape(self.num_words, self.first_level_bits)

    def load_counts(self, counts: np.ndarray, saturated: dict[int, int]) -> None:
        """Replace the state with a :meth:`counts_matrix` and the
        ``{word index: overlay}`` map of saturated words."""
        cols = self.columns
        if cols is None:
            cols = ColumnarHCBF(self.num_words, self.word_bits, self.first_level_bits)
        cols.counts[...] = counts
        cols.set_saturated(saturated)
        cols.rebuild_derived()
        if self.columns is None:
            for i, word in enumerate(self._words_list):
                word._sizes, word._levels = cols.word_level_state(i)
            self._saturated_map = dict(saturated)
            self._mirror_arr[...] = cols.mirror

    def with_kernel(self, kernel: str) -> "MPCBF":
        """Deep copy of this filter on the requested kernel backend."""
        clone = MPCBF(
            self.num_words,
            self.word_bits,
            self.k,
            g=self.g,
            first_level_bits=self.first_level_bits,
            seed=self.family.seed,
            word_overflow=self.word_overflow,
            kernel=kernel,
            encoder=self.encoder,
        )
        clone.capacity = self.capacity
        clone.load_counts(self.counts_matrix(), self._saturated)
        clone.overflow_events = self.overflow_events
        clone.skipped_deletes = self.skipped_deletes
        clone.stats.merge(self.stats)
        return clone

    def to_scalar(self) -> "MPCBF":
        """Scalar-kernel deep copy (the oracle form; same serialised bytes)."""
        return self.with_kernel("scalar")

    @classmethod
    def from_scalar(cls, filt: "MPCBF") -> "MPCBF":
        """Columnar-kernel deep copy of (typically) a scalar filter."""
        return filt.with_kernel("columnar")

    # -- validation -------------------------------------------------------
    def check_invariants(self) -> None:
        """Check every word's invariants plus mirror consistency."""
        if self.columns is not None:
            self.columns.check_invariants()
            return
        for i, word in enumerate(self._words_list):
            word.check_invariants()
            value = word.first_level_value() | self._saturated_map.get(i, 0)
            for limb in range(self._limbs):
                expect = (value >> (64 * limb)) & 0xFFFFFFFFFFFFFFFF
                assert int(self._mirror[i, limb]) == expect, (
                    f"mirror desync at word {i} limb {limb}"
                )
