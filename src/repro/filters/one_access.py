"""One-memory-access Bloom filter, BF-1 / BF-g (Qiao et al. [11]).

The bit vector is partitioned into ``l`` machine words of ``w`` bits.
A query hashes the key to ``g`` words (one word for BF-1) and to ``k``
bit offsets split over those words, so the whole membership check costs
``g`` word fetches instead of ``k``.  The penalty is a higher false
positive rate — the drawback MPCBF repairs with the HCBF hierarchy.

This implementation keeps the authoritative bits in a
:class:`repro.memmodel.WordMemory` (so scalar operations' access counts
are *observed*) and mirrors them into a packed ``uint64`` NumPy array
for the vectorised bulk query path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.filters.base import FilterBase
from repro.hashing.bit_budget import HashBitBudget
from repro.hashing.encoders import KeyEncoder
from repro.hashing.families import PartitionedHashFamily
from repro.memmodel.accounting import OpKind
from repro.memmodel.memory import WordMemory

__all__ = ["OneAccessBloomFilter"]


class OneAccessBloomFilter(FilterBase):
    """BF-g: partitioned Bloom filter with ``g`` word accesses per op.

    Parameters
    ----------
    num_words:
        Number of ``word_bits``-wide words (``l``).
    word_bits:
        Word width ``w``; must be a multiple of 64 so the bulk mirror
        packs cleanly.
    k:
        Total number of bit-setting hash functions.
    g:
        Number of words each key touches (1 for BF-1).
    """

    def __init__(
        self,
        num_words: int,
        word_bits: int,
        k: int,
        *,
        g: int = 1,
        seed: int = 0,
        encoder: KeyEncoder | None = None,
    ) -> None:
        super().__init__(encoder=encoder)
        if word_bits % 64 != 0:
            raise ConfigurationError(
                f"word_bits must be a multiple of 64, got {word_bits}"
            )
        self.name = f"BF-{g}"
        self.num_words = num_words
        self.word_bits = word_bits
        self.k = k
        self.g = g
        self.family = PartitionedHashFamily(
            num_words, word_bits, k, g=g, seed=seed
        )
        self.memory = WordMemory(num_words, word_bits)
        self._limbs = word_bits // 64
        self._mirror = np.zeros((num_words, self._limbs), dtype=np.uint64)
        self._budget = HashBitBudget.partitioned(num_words, word_bits, k, g)

    @property
    def total_bits(self) -> int:
        return self.num_words * self.word_bits

    @property
    def num_hashes(self) -> int:
        return self.k

    def _mirror_set(self, word_index: int, bit: int) -> None:
        self._mirror[word_index, bit >> 6] |= np.uint64(1 << (bit & 63))

    # -- scalar ---------------------------------------------------------
    def insert_encoded(self, encoded_key: int) -> None:
        groups = self.family.groups(encoded_key)
        for word_index, offsets in groups:
            value = self.memory.read(word_index)
            for bit in offsets:
                value |= 1 << bit
                self._mirror_set(word_index, bit)
            self.memory.write(word_index, value)
        self.stats.record(
            OpKind.INSERT,
            word_accesses=float(len(groups)),
            hash_bits=self._budget.total_bits,
            hash_calls=self._budget.hash_calls,
        )

    def query_encoded(self, encoded_key: int) -> bool:
        groups = self.family.groups(encoded_key)
        accesses = 0
        result = True
        for word_index, offsets in groups:
            accesses += 1
            value = self.memory.read(word_index)
            if any(not (value >> bit) & 1 for bit in offsets):
                result = False
                break
        self.stats.record(
            OpKind.QUERY,
            word_accesses=float(accesses),
            hash_bits=self._budget.word_select_bits / self.g * accesses
            + self._budget.offset_bits / self.g * accesses,
            hash_calls=self._budget.hash_calls,
        )
        return result

    # -- bulk -----------------------------------------------------------
    def insert_many(self, keys: object) -> None:
        encoded = self._encode_bulk(keys)
        for key in encoded:
            self.insert_encoded(int(key))

    def query_many(self, keys: object) -> np.ndarray:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=bool)
        word_idx, offsets = self.family.locate_array(encoded)
        word_cols = self.family.offset_word_columns()
        words_per_offset = word_idx[:, word_cols]
        shift = (offsets & 63).astype(np.uint64)
        if self._limbs == 1:
            limbs = self._mirror[words_per_offset, 0]
        else:
            limbs = self._mirror[words_per_offset, (offsets >> 6)]
        tested = ((limbs >> shift) & np.uint64(1)).astype(bool)
        member = tested.all(axis=1)
        # Words are probed in order; a query stops at the word containing
        # the first failed bit test.
        first_fail = np.where(member, self.k - 1, np.argmin(tested, axis=1))
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
