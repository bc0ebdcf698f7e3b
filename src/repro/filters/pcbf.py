"""Partitioned CBF, PCBF-1 / PCBF-g (§III.A of the paper).

The naive one-memory-access CBF: the counter vector is split into ``l``
words of ``w`` bits (``w/c`` counters of ``c`` bits each); a key hashes
to ``g`` words and to ``k`` counters split over them.  Query and update
cost ``g`` word accesses, but the false positive rate is *worse* than
the standard CBF (Fig. 2) because each element's counters are confined
to a short range — the motivation for MPCBF's hierarchical layout.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    ConfigurationError,
    CounterOverflowError,
    CounterUnderflowError,
)
from repro.filters.base import CountingFilterBase, OverflowPolicy
from repro.hashing.bit_budget import HashBitBudget
from repro.hashing.encoders import KeyEncoder
from repro.hashing.families import PartitionedHashFamily
from repro.memmodel.accounting import OpKind

__all__ = ["PartitionedCBF"]


class PartitionedCBF(CountingFilterBase):
    """PCBF-g over ``num_words`` words of ``word_bits`` bits.

    Parameters
    ----------
    num_words:
        Number of words ``l``.
    word_bits:
        Word width ``w``; must be divisible by ``counter_bits``.
    k:
        Total number of counter-selecting hash functions.
    g:
        Number of words per key (1 for PCBF-1).
    counter_bits:
        Counter width ``c`` (default 4).
    """

    def __init__(
        self,
        num_words: int,
        word_bits: int,
        k: int,
        *,
        g: int = 1,
        counter_bits: int = 4,
        seed: int = 0,
        overflow: OverflowPolicy | str = OverflowPolicy.RAISE,
        encoder: KeyEncoder | None = None,
    ) -> None:
        super().__init__(encoder=encoder)
        if word_bits % counter_bits != 0:
            raise ConfigurationError(
                f"word_bits={word_bits} not divisible by "
                f"counter_bits={counter_bits}"
            )
        self.name = f"PCBF-{g}"
        self.num_words = num_words
        self.word_bits = word_bits
        self.k = k
        self.g = g
        self.counter_bits = counter_bits
        self.counter_limit = (1 << counter_bits) - 1
        self.counters_per_word = word_bits // counter_bits
        if self.counters_per_word < 1:
            raise ConfigurationError("word too small for a single counter")
        self.overflow = OverflowPolicy(overflow)
        self.family = PartitionedHashFamily(
            num_words, self.counters_per_word, k, g=g, seed=seed
        )
        self._counters = np.zeros(
            num_words * self.counters_per_word, dtype=np.int32
        )
        self._budget = HashBitBudget.partitioned(
            num_words, self.counters_per_word, k, g
        )
        self.saturation_events = 0

    @property
    def total_bits(self) -> int:
        return self.num_words * self.word_bits

    @property
    def num_hashes(self) -> int:
        return self.k

    @property
    def counters(self) -> np.ndarray:
        """Read-only ``(l, w/c)`` counter matrix view."""
        view = self._counters.reshape(self.num_words, self.counters_per_word)
        view = view.view()
        view.flags.writeable = False
        return view

    def _flat_indices(self, encoded_key: int) -> list[int]:
        groups = self.family.groups(encoded_key)
        flat: list[int] = []
        for word_index, offsets in groups:
            base = word_index * self.counters_per_word
            flat.extend(base + off for off in offsets)
        return flat

    # -- scalar ---------------------------------------------------------
    def insert_encoded(self, encoded_key: int) -> None:
        for idx in self._flat_indices(encoded_key):
            if self._counters[idx] >= self.counter_limit:
                if self.overflow is OverflowPolicy.RAISE:
                    raise CounterOverflowError(idx, self.counter_limit)
                self.saturation_events += 1
            else:
                self._counters[idx] += 1
        self.stats.record(
            OpKind.INSERT,
            word_accesses=float(self.g),
            hash_bits=self._budget.total_bits,
            hash_calls=self._budget.hash_calls,
        )

    def delete_encoded(self, encoded_key: int) -> None:
        flat = self._flat_indices(encoded_key)
        for idx in flat:
            if self._counters[idx] == 0:
                raise CounterUnderflowError(idx)
        for idx in flat:
            self._counters[idx] -= 1
        self.stats.record(
            OpKind.DELETE,
            word_accesses=float(self.g),
            hash_bits=self._budget.total_bits,
            hash_calls=self._budget.hash_calls,
        )

    def query_encoded(self, encoded_key: int) -> bool:
        groups = self.family.groups(encoded_key)
        accesses = 0
        result = True
        for word_index, offsets in groups:
            accesses += 1
            base = word_index * self.counters_per_word
            if any(self._counters[base + off] == 0 for off in offsets):
                result = False
                break
        self.stats.record(
            OpKind.QUERY,
            word_accesses=float(accesses),
            hash_bits=self._budget.total_bits / self.g * accesses,
            hash_calls=self._budget.hash_calls,
        )
        return result

    def count_encoded(self, encoded_key: int) -> int:
        flat = self._flat_indices(encoded_key)
        return int(min(self._counters[idx] for idx in flat))

    # -- bulk -----------------------------------------------------------
    def _flat_indices_array(self, encoded: np.ndarray) -> np.ndarray:
        word_idx, offsets = self.family.locate_array(encoded)
        word_cols = self.family.offset_word_columns()
        words_per_offset = word_idx[:, word_cols]
        return words_per_offset * self.counters_per_word + offsets

    def insert_many(self, keys: object) -> None:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return
        flat = self._flat_indices_array(encoded).reshape(-1)
        np.add.at(self._counters, flat, 1)
        exceeded = self._counters > self.counter_limit
        if exceeded.any():
            if self.overflow is OverflowPolicy.RAISE:
                idx = int(np.argmax(exceeded))
                np.subtract.at(self._counters, flat, 1)
                raise CounterOverflowError(idx, self.counter_limit)
            self.saturation_events += int(
                (self._counters[exceeded] - self.counter_limit).sum()
            )
            np.minimum(self._counters, self.counter_limit, out=self._counters)
        self.stats.record(
            OpKind.INSERT,
            count=len(encoded),
            word_accesses=float(self.g * len(encoded)),
            hash_bits=self._budget.total_bits * len(encoded),
            hash_calls=self._budget.hash_calls * len(encoded),
        )

    def delete_many(self, keys: object) -> None:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return
        flat = self._flat_indices_array(encoded).reshape(-1)
        np.subtract.at(self._counters, flat, 1)
        if (self._counters < 0).any():
            idx = int(np.argmax(self._counters < 0))
            np.add.at(self._counters, flat, 1)
            raise CounterUnderflowError(idx)
        self.stats.record(
            OpKind.DELETE,
            count=len(encoded),
            word_accesses=float(self.g * len(encoded)),
            hash_bits=self._budget.total_bits * len(encoded),
            hash_calls=self._budget.hash_calls * len(encoded),
        )

    def query_many(self, keys: object) -> np.ndarray:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=bool)
        flat = self._flat_indices_array(encoded)
        positive = self._counters[flat] > 0
        member = positive.all(axis=1)
        word_cols = self.family.offset_word_columns()
        first_fail = np.where(member, self.k - 1, np.argmin(positive, axis=1))
        accesses = word_cols[first_fail] + 1
        total_accesses = float(accesses.sum())
        self.stats.record(
            OpKind.QUERY,
            count=len(encoded),
            word_accesses=total_accesses,
            hash_bits=self._budget.total_bits / self.g * total_accesses,
            hash_calls=self._budget.hash_calls * len(encoded),
        )
        return member
