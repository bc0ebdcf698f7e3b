"""Scalar HCBF state: every word as an :class:`HCBFWord` object.

The paper's layout kept literally (an MPCBF is an array of improved
HCBF words, §III.B–C): the legible reference and the oracle the
differential suites hold :mod:`repro.kernels.columnar` to.
:class:`ScalarHCBF` has the :class:`~repro.kernels.columnar.ColumnarHCBF`
methods that :class:`~repro.filters.mpcbf.MPCBF` calls; its batches
apply keys one at a time.  A packed ``uint64`` mirror of the first
levels is kept in sync, so bulk queries run vectorised here too.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CounterUnderflowError, WordOverflowError
from repro.kernels.columnar import (
    ColumnarHCBF,
    KernelOutcome,
    counts_dtype,
    counts_from_levels,
    key_groups,
    probe_mirror,
)

__all__ = ["ScalarHCBF"]


class ScalarHCBF:
    """All HCBF words of one MPCBF as word objects (see module docstring)."""

    def __init__(self, num_words: int, word_bits: int, first_level_bits: int) -> None:
        # Local import: repro.filters imports this module through MPCBF.
        from repro.filters.hcbf_word import HCBFWord

        self.num_words = num_words
        self.word_bits = word_bits
        self.first_level_bits = first_level_bits
        self.limbs = -(-first_level_bits // 64)
        #: The live word objects.
        self.words = [
            HCBFWord(word_bits, first_level_bits, index=i) for i in range(num_words)
        ]
        #: Packed first-level limbs, ``(l, limbs)`` uint64.
        self.mirror = np.zeros((num_words, self.limbs), dtype=np.uint64)
        #: Membership-only overlays of saturated words (index → bitmap).
        self.saturated: dict[int, int] = {}

    @property
    def stored_hash_bits(self) -> int:
        """Total hierarchy bits in use across all words."""
        return sum(word.hierarchy_bits_used for word in self.words)

    def saturated_dict(self) -> dict[int, int]:
        """The live ``{word index: overlay bitmap}`` map."""
        return self.saturated

    def _mirror_set(self, word_index: int, bit: int) -> None:
        self.mirror[word_index, bit >> 6] |= np.uint64(1 << (bit & 63))

    def _mirror_clear(self, word_index: int, bit: int) -> None:
        self.mirror[word_index, bit >> 6] &= np.uint64(
            ~(1 << (bit & 63)) & 0xFFFFFFFFFFFFFFFF
        )

    def _overlay_insert(self, word_index: int, offsets: list[int]) -> int:
        """Set a saturated word's overlay bits; returns the events."""
        overlay = self.saturated[word_index]
        for pos in offsets:
            overlay |= 1 << pos
            self._mirror_set(word_index, pos)
        self.saturated[word_index] = overlay
        return len(offsets)

    # -- per-key routines -------------------------------------------------
    def insert_key(self, groups: list, policy: str) -> tuple[int, float]:
        """Insert one key, two-phase; ``(overflow_events, extra_bits)``.

        The dry-run capacity check comes first, so a failed insert
        leaves every word untouched.
        """
        demand: dict[int, int] = {}
        for word_index, offsets in groups:
            demand[word_index] = demand.get(word_index, 0) + len(offsets)
        for word_index, need in demand.items():
            if word_index in self.saturated:
                continue
            if self.words[word_index].bits_free < need:
                if policy == "raise":
                    raise WordOverflowError(
                        word_index,
                        self.words[word_index].hierarchy_capacity_bits,
                    )
                # Freeze the hierarchy; further inserts go to the overlay.
                self.saturated.setdefault(word_index, 0)
        events = 0
        extra_bits = 0.0
        for word_index, offsets in groups:
            if word_index in self.saturated:
                events += self._overlay_insert(word_index, offsets)
                continue
            word = self.words[word_index]
            for pos in offsets:
                depth, bits = word.insert_bit(pos)
                extra_bits += bits
                if depth == 1:
                    self._mirror_set(word_index, pos)
        return events, extra_bits

    def delete_key(self, groups: list) -> tuple[int, float]:
        """Delete one key, validated first; ``(skipped_deletes, extra_bits)``."""
        # Validate all counters first so a bad delete leaves no trace.
        # Demand aggregates across *all* groups: with g > 1 the word
        # hashes can collide, landing two groups' offsets in one word.
        demand: dict[tuple[int, int], int] = {}
        for word_index, offsets in groups:
            if word_index in self.saturated:
                continue
            for pos in offsets:
                demand[(word_index, pos)] = demand.get((word_index, pos), 0) + 1
        for (word_index, pos), need in demand.items():
            if self.words[word_index].count(pos) < need:
                raise CounterUnderflowError(pos)
        skipped = 0
        extra_bits = 0.0
        for word_index, offsets in groups:
            if word_index in self.saturated:
                # A frozen word cannot safely decrement: skip, keep the
                # bits set (no false negatives), and record the skip.
                skipped += len(offsets)
                continue
            word = self.words[word_index]
            for pos in offsets:
                remaining, bits = word.delete_bit(pos)
                extra_bits += bits
                if remaining == 0:
                    self._mirror_clear(word_index, pos)
        return skipped, extra_bits

    def query_key(self, groups: list) -> tuple[bool, int]:
        """``(member, words read)``: stops at the first word ruling it out."""
        accesses = 0
        for word_index, offsets in groups:
            accesses += 1
            word = self.words[word_index]
            overlay = self.saturated.get(word_index, 0)
            if any(
                not (word.query_bit(pos) or (overlay >> pos) & 1) for pos in offsets
            ):
                return False, accesses
        return True, accesses

    def count_key(self, groups: list) -> int:
        """Multiplicity estimate: the minimum of the key's counters."""
        best = None
        for word_index, offsets in groups:
            word = self.words[word_index]
            overlay = self.saturated.get(word_index, 0)
            for pos in offsets:
                value = word.count(pos)
                if value == 0 and (overlay >> pos) & 1:
                    value = 1  # overlay knows membership, not multiplicity
                best = value if best is None else min(best, value)
        return int(best or 0)

    # -- batches: one key at a time ---------------------------------------
    def bulk_insert(self, word_idx, offsets, word_cols, policy: str) -> KernelOutcome:
        """Insert located keys in order, stopping at the first overflow."""
        out = KernelOutcome.empty(1)
        extra_bits = 0.0
        for groups in key_groups(word_idx, offsets, word_cols):
            try:
                events, bits = self.insert_key(groups, policy)
            except WordOverflowError as exc:
                out.error = exc
                break
            out.overflow_events += events
            extra_bits += bits
            out.applied_keys += 1
        out.extra_bits[0] = extra_bits
        return out

    def bulk_delete(self, word_idx, offsets, word_cols) -> KernelOutcome:
        """Delete located keys in order, stopping at the first underflow."""
        out = KernelOutcome.empty(1)
        out.key_extra_bits = []
        for groups in key_groups(word_idx, offsets, word_cols):
            try:
                skipped, bits = self.delete_key(groups)
            except CounterUnderflowError as exc:
                out.error = exc
                break
            out.skipped_deletes += skipped
            out.key_extra_bits.append(bits)
            out.applied_keys += 1
        return out

    def bulk_query(self, word_idx, offsets, word_cols) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised membership: ``(member, word accesses)`` per key."""
        return probe_mirror(self.mirror, word_idx, offsets, word_cols)

    def bulk_count(self, word_idx, offsets, word_cols) -> np.ndarray:
        """Per-key multiplicity estimates as an int64 array."""
        counts = map(self.count_key, key_groups(word_idx, offsets, word_cols))
        return np.fromiter(counts, dtype=np.int64, count=len(word_idx))

    def merge(self, other, policy: str) -> KernelOutcome:
        """Add another same-geometry engine's counters into this one.

        Per word, every first-level counter of ``other`` is re-inserted
        into this word's hierarchy ``count`` times; saturated words of
        either side merge into this side's membership overlay.  An
        overflow under ``raise`` stops the merge and is returned as the
        outcome's ``error``.
        """
        out = KernelOutcome.empty(1)
        for index, word in enumerate(other.words):
            mine = self.words[index]
            for pos in range(self.first_level_bits):
                for _ in range(word.count(pos)):
                    if index in self.saturated:
                        out.overflow_events += self._overlay_insert(index, [pos])
                        continue
                    if mine.bits_free < 1:
                        if policy == "raise":
                            out.error = WordOverflowError(
                                index, mine.hierarchy_capacity_bits
                            )
                            return out
                        self.saturated.setdefault(index, 0)
                        out.overflow_events += self._overlay_insert(index, [pos])
                        continue
                    depth, _ = mine.insert_bit(pos)
                    if depth == 1:
                        self._mirror_set(index, pos)
        # Membership-only overlays of the other side fold into ours.
        for index, overlay in other.saturated_dict().items():
            self.saturated.setdefault(index, 0)
            positions = [
                pos for pos in range(self.first_level_bits) if (overlay >> pos) & 1
            ]
            if positions:
                out.overflow_events += self._overlay_insert(index, positions)
        return out

    # -- conversions ------------------------------------------------------
    def counts_matrix(self) -> np.ndarray:
        """Every word's counter values, ``(l, b1)``, in the columnar dtype."""
        return np.array(
            [
                counts_from_levels(w._sizes, w._levels, self.first_level_bits)
                for w in self.words
            ],
            dtype=counts_dtype(self.word_bits - self.first_level_bits),
        ).reshape(self.num_words, self.first_level_bits)

    def load_counts(self, counts: np.ndarray, saturated: dict[int, int]) -> None:
        """Replace the state with a counts matrix and the ``{word index:
        overlay}`` map of saturated words."""
        cols = ColumnarHCBF(self.num_words, self.word_bits, self.first_level_bits)
        cols.load_counts(counts, saturated)
        for i, word in enumerate(self.words):
            word._sizes, word._levels = cols.word_level_state(i)
        self.saturated = dict(saturated)
        self.mirror[...] = cols.mirror

    # -- validation -------------------------------------------------------
    def check_invariants(self) -> None:
        """Check every word's invariants plus mirror consistency."""
        for i, word in enumerate(self.words):
            word.check_invariants()
            value = word.first_level_value() | self.saturated.get(i, 0)
            for limb in range(self.limbs):
                expect = (value >> (64 * limb)) & 0xFFFFFFFFFFFFFFFF
                assert int(self.mirror[i, limb]) == expect, (
                    f"mirror desync at word {i} limb {limb}"
                )
