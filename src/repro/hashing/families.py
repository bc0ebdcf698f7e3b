"""Hash families: one encoded key → filter indices.

:class:`HashFamily` produces ``k`` indices in a flat range — the layout
used by the standard Bloom filter and CBF.  :class:`PartitionedHashFamily`
produces ``g`` word indices plus ``k`` in-word offsets split across the
words — the layout shared by BF-g, PCBF-g, and MPCBF-g (§III of the
paper).  Both provide a scalar path (reference, used per-operation) and
a vectorised bulk path over ``uint64`` key arrays (the hot loop).

Independent hash functions are synthesised by XOR-ing the encoded key
with per-function SplitMix64-derived seeds and re-mixing, so one encoded
key yields any number of effectively independent 64-bit hashes.  The
family can alternatively run in Kirsch–Mitzenmacher double-hashing mode
(two base hashes, linear combination), which the paper's related work
[22] shows preserves the false positive rate.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.mixers import (
    derive_seeds,
    murmur_fmix64,
    murmur_fmix64_array,
    splitmix64,
    splitmix64_array,
)

__all__ = ["split_k_over_g", "HashFamily", "PartitionedHashFamily"]

HashMode = Literal["independent", "double"]


def split_k_over_g(k: int, g: int) -> tuple[int, ...]:
    """Split ``k`` hash functions over ``g`` words, front-loaded.

    The paper allocates ``ceil(k/g)`` hashes per word and "might assign
    less value to the last word": e.g. k=3, g=2 → (2, 1).

    >>> split_k_over_g(3, 2)
    (2, 1)
    >>> split_k_over_g(5, 3)
    (2, 2, 1)
    """
    if k < 1 or g < 1:
        raise ConfigurationError(f"k and g must be >= 1, got k={k}, g={g}")
    if g > k:
        raise ConfigurationError(f"g={g} words but only k={k} hash functions")
    base = -(-k // g)  # ceil(k / g)
    counts = []
    remaining = k
    for i in range(g):
        take = min(base, remaining - (g - i - 1) * 1)
        take = max(take, 1)
        counts.append(take)
        remaining -= take
    if remaining != 0:
        # Distribute any leftover (only possible when ceil rounding
        # under-allocated due to the min-1 guard); add to earliest words.
        for i in range(g):
            if remaining == 0:
                break
            counts[i] += 1
            remaining -= 1
    return tuple(counts)


class HashFamily:
    """``k`` hash functions mapping encoded keys into ``[0, size)``.

    Parameters
    ----------
    size:
        Size of the index range (``m`` counters or bits).
    k:
        Number of hash functions.
    seed:
        Master seed; all per-function seeds derive from it.
    mode:
        ``"independent"`` (default) synthesises ``k`` independent
        mixes; ``"double"`` uses Kirsch–Mitzenmacher double hashing
        with two base hashes.
    """

    def __init__(
        self,
        size: int,
        k: int,
        *,
        seed: int = 0,
        mode: HashMode = "independent",
    ) -> None:
        if size < 1:
            raise ConfigurationError(f"size must be >= 1, got {size}")
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if mode not in ("independent", "double"):
            raise ConfigurationError(f"unknown hash mode: {mode!r}")
        self.size = size
        self.k = k
        self.seed = seed
        self.mode = mode
        self._seeds = derive_seeds(seed, k)
        self._seeds_np = np.array(self._seeds, dtype=np.uint64)

    def __repr__(self) -> str:
        return (
            f"HashFamily(size={self.size}, k={self.k}, seed={self.seed}, "
            f"mode={self.mode!r})"
        )

    def indices(self, encoded_key: int) -> list[int]:
        """Return the ``k`` indices for one encoded key (scalar path)."""
        if self.mode == "double":
            h1 = splitmix64(encoded_key ^ self._seeds[0])
            h2 = murmur_fmix64(encoded_key ^ self._seeds[-1]) | 1
            return [((h1 + i * h2) % (1 << 64)) % self.size for i in range(self.k)]
        return [
            splitmix64(encoded_key ^ s) % self.size for s in self._seeds
        ]

    def indices_array(self, encoded_keys: np.ndarray) -> np.ndarray:
        """Return an ``(n, k)`` index matrix for a bulk key array."""
        keys = np.asarray(encoded_keys, dtype=np.uint64)
        if self.mode == "double":
            with np.errstate(over="ignore"):
                h1 = splitmix64_array(keys ^ self._seeds_np[0])
                h2 = murmur_fmix64_array(keys ^ self._seeds_np[-1]) | np.uint64(1)
                steps = np.arange(self.k, dtype=np.uint64)
                combined = h1[:, None] + steps[None, :] * h2[:, None]
            return (combined % np.uint64(self.size)).astype(np.int64)
        with np.errstate(over="ignore"):
            mixed = splitmix64_array(keys[:, None] ^ self._seeds_np[None, :])
        return (mixed % np.uint64(self.size)).astype(np.int64)


class PartitionedHashFamily:
    """Word-select plus in-word offset hashing for partitioned filters.

    Produces, for each key, ``g`` distinct-seeded word indices in
    ``[0, num_words)`` and ``k`` offsets in ``[0, offset_range)`` that
    are split over the ``g`` words according to
    :func:`split_k_over_g` (columns ``0..k0`` of the offset matrix
    belong to word 0, and so on — the split is static, mirroring the
    paper's allocation).

    Note the ``g`` selected words are *independent* hashes and may
    collide (two hash groups landing in the same word); the paper's
    analysis makes the same assumption.

    The first word index shares a hash computation with the first
    offset: one 64-bit mix supplies the offset from its value modulo
    the offset range and the word index from its upper bits.  This is
    what makes the total hash-computation count ``k + g − 1`` — the
    paper's explanation of why CBF, PCBF-1 and MPCBF-1 all perform
    three hash calculations at ``k = 3`` (§IV.B, Fig. 8 discussion).
    """

    def __init__(
        self,
        num_words: int,
        offset_range: int,
        k: int,
        *,
        g: int = 1,
        seed: int = 0,
    ) -> None:
        if num_words < 1:
            raise ConfigurationError(f"num_words must be >= 1, got {num_words}")
        if offset_range < 1:
            raise ConfigurationError(
                f"offset_range must be >= 1, got {offset_range}"
            )
        self.num_words = num_words
        self.offset_range = offset_range
        self.k = k
        self.g = g
        self.seed = seed
        self.k_per_word = split_k_over_g(k, g)
        # Words 1..g-1 get their own seeds; word 0 reuses the first
        # offset hash's upper bits (see class docstring).
        all_seeds = derive_seeds(seed, g - 1 + k)
        self._word_seeds = all_seeds[: g - 1]
        self._offset_seeds = all_seeds[g - 1 :]
        #: Every per-function seed as one ``uint64`` row (word seeds
        #: first), the row format :meth:`locate_array` takes per key.
        self.seed_row = np.array(all_seeds, dtype=np.uint64)

    def __repr__(self) -> str:
        return (
            f"PartitionedHashFamily(num_words={self.num_words}, "
            f"offset_range={self.offset_range}, k={self.k}, g={self.g}, "
            f"seed={self.seed})"
        )

    def word_indices(self, encoded_key: int) -> list[int]:
        """Return the ``g`` word indices for one key."""
        first_mix = splitmix64(encoded_key ^ self._offset_seeds[0])
        words = [(first_mix >> 32) % self.num_words]
        words.extend(
            splitmix64(encoded_key ^ s) % self.num_words
            for s in self._word_seeds
        )
        return words

    def offsets(self, encoded_key: int) -> list[int]:
        """Return the flat ``k`` in-word offsets for one key."""
        return [
            splitmix64(encoded_key ^ s) % self.offset_range
            for s in self._offset_seeds
        ]

    def grouped_offsets(self, encoded_key: int) -> list[list[int]]:
        """Return offsets grouped per word: ``g`` lists summing to k."""
        flat = self.offsets(encoded_key)
        groups: list[list[int]] = []
        start = 0
        for count in self.k_per_word:
            groups.append(flat[start : start + count])
            start += count
        return groups

    def locate_array(
        self, encoded_keys: np.ndarray, seed_rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bulk word indices and offsets with the shared first hash.

        Returns ``(word_idx, offsets)`` of shapes ``(n, g)`` and
        ``(n, k)`` computed with exactly ``k + g − 1`` mixes per key —
        the hot path every partitioned filter's bulk operations use.

        ``seed_rows`` (``(n, g − 1 + k)``, each row some family's
        :attr:`seed_row`) hashes every key with its own row's seeds
        instead of this family's: one call then locates keys for several
        same-geometry filters, as a sharded bank does for its shards.
        """
        keys = np.asarray(encoded_keys, dtype=np.uint64)
        seeds = self.seed_row[None, :] if seed_rows is None else seed_rows
        split = self.g - 1
        # One mix pass covers every function; the word seeds come first.
        with np.errstate(over="ignore"):
            mixed = splitmix64_array(keys[:, None] ^ seeds)
        # Moduli are below 2**63, so the uint64 results view as int64.
        offsets = (mixed[:, split:] % np.uint64(self.offset_range)).view(np.int64)
        words = np.empty((len(keys), self.g), dtype=np.uint64)
        np.right_shift(mixed[:, split], np.uint64(32), out=words[:, 0])
        words[:, 1:] = mixed[:, :split]
        word_idx = (words % np.uint64(self.num_words)).view(np.int64)
        return word_idx, offsets

    def word_indices_array(self, encoded_keys: np.ndarray) -> np.ndarray:
        """Return an ``(n, g)`` word-index matrix for a bulk key array."""
        return self.locate_array(encoded_keys)[0]

    def offsets_array(self, encoded_keys: np.ndarray) -> np.ndarray:
        """Return an ``(n, k)`` offset matrix for a bulk key array."""
        return self.locate_array(encoded_keys)[1]

    def offset_word_columns(self) -> np.ndarray:
        """Map each offset column to its word column (length ``k``).

        ``offset_word_columns()[j]`` is the column of the word-index
        matrix that offset column ``j`` belongs to; used by bulk filter
        paths to expand offsets to absolute positions without a Python
        loop.
        """
        cols = np.empty(self.k, dtype=np.int64)
        start = 0
        for word_col, count in enumerate(self.k_per_word):
            cols[start : start + count] = word_col
            start += count
        return cols
