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

The filter owns the geometry, the hash family, the overflow policy and
the statistics; the words live in one state engine, chosen once by the
constructor's ``kernel`` and driven through one interface (one call
per operation):

* ``kernel="columnar"`` (default) —
  :class:`~repro.kernels.columnar.ColumnarHCBF`, every word's hierarchy
  as flat NumPy arrays.  ``insert_many``/``delete_many``/``count_many``
  run as batch kernels (sort by word, apply in rounds); per-key calls
  run the engine's per-key routines, the same ones the batch kernels
  replay a triggering key through.
* ``kernel="scalar"`` — :class:`~repro.kernels.scalar.ScalarHCBF`, a
  list of :class:`HCBFWord` objects: the legible reference and the
  equivalence oracle for the differential suites in ``tests/kernels/``.

Bulk queries on either engine run vectorised against a packed
``uint64`` mirror of all first-level vectors.  ``to_scalar()``/
``from_scalar()`` convert between engines exactly; serialisation
produces identical bytes either way.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.filters.base import CountingFilterBase
from repro.filters.hcbf_word import HCBFWord, improved_first_level_size
from repro.hashing.bit_budget import HashBitBudget
from repro.hashing.encoders import KeyEncoder
from repro.hashing.families import PartitionedHashFamily
from repro.kernels.columnar import ColumnarHCBF
from repro.kernels.scalar import ScalarHCBF
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
        The state engine: ``"columnar"`` (default,
        :class:`~repro.kernels.columnar.ColumnarHCBF`) or ``"scalar"``
        (:class:`~repro.kernels.scalar.ScalarHCBF`, per-word
        ``HCBFWord`` objects).  Both are observably equivalent.
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
        engines = {"columnar": ColumnarHCBF, "scalar": ScalarHCBF}
        if kernel not in engines:
            raise ConfigurationError(
                f"kernel must be 'columnar' or 'scalar', got {kernel!r}"
            )
        self.kernel = kernel
        self._word_cols = self.family.offset_word_columns()
        #: The state engine holding every word.
        self.state: ColumnarHCBF | ScalarHCBF = engines[kernel](
            num_words, word_bits, self.first_level_bits
        )
        #: The columnar engine, which a sharded bank stacks into its
        #: arena; None on the scalar kernel.
        self.columns: ColumnarHCBF | None = (
            self.state if kernel == "columnar" else None
        )
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

        On the scalar kernel this is the live list; on the columnar
        kernel it is a lazy sequence view that materialises a fresh
        read-only snapshot per indexed word (mutating one does not
        write back — use the filter API).
        """
        return self.state.words

    @property
    def _mirror(self) -> np.ndarray:
        """Packed first-level limbs, ``(l, limbs)`` uint64 (live array)."""
        return self.state.mirror

    @property
    def _saturated(self) -> dict[int, int]:
        """Membership-only overlays for saturated words (index → bitmap).

        Live (mutable) dict on the scalar kernel; a fresh snapshot
        derived from the saturation arrays on the columnar kernel.
        """
        return self.state.saturated_dict()

    @property
    def stored_hash_bits(self) -> int:
        """Total hierarchy bits in use across all words."""
        return self.state.stored_hash_bits

    # -- scalar ---------------------------------------------------------
    def _groups(self, encoded_key: int) -> list[tuple[int, list[int]]]:
        """One key's ``(word, offsets)`` groups, the per-key engine input."""
        family = self.family
        return list(
            zip(family.word_indices(encoded_key), family.grouped_offsets(encoded_key))
        )

    def insert_encoded(self, encoded_key: int) -> None:
        events, extra_bits = self.state.insert_key(
            self._groups(encoded_key), self.word_overflow
        )
        self.overflow_events += events
        self.record_bulk_update(OpKind.INSERT, 1, extra_bits)

    def delete_encoded(self, encoded_key: int) -> None:
        skipped, extra_bits = self.state.delete_key(self._groups(encoded_key))
        self.skipped_deletes += skipped
        self.record_bulk_update(OpKind.DELETE, 1, extra_bits)

    def query_encoded(self, encoded_key: int) -> bool:
        result, accesses = self.state.query_key(self._groups(encoded_key))
        self.record_bulk_query(1, float(accesses))
        return result

    def count_encoded(self, encoded_key: int) -> int:
        return self.state.count_key(self._groups(encoded_key))

    # -- bulk -----------------------------------------------------------
    def record_bulk_update(self, kind: OpKind, count: int, extra_bits: float) -> None:
        """Record ``count`` applied inserts or deletes (1 for a per-key call).

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
        """Record ``count`` queries that read ``word_accesses`` words."""
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
        word_idx, offsets = self.family.locate_array(encoded)
        outcome = self.state.bulk_insert(
            word_idx, offsets, self._word_cols, self.word_overflow
        )
        self.overflow_events += int(outcome.overflow_events[0])
        if outcome.error is not None:
            # A failing key stops the batch before any statistics are
            # recorded; earlier keys stay applied.
            raise outcome.error
        for count, extra_bits in outcome.update_records():
            self.record_bulk_update(OpKind.INSERT, count, extra_bits)

    def delete_many(self, keys: object) -> None:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return
        word_idx, offsets = self.family.locate_array(encoded)
        outcome = self.state.bulk_delete(word_idx, offsets, self._word_cols)
        self.skipped_deletes += int(outcome.skipped_deletes[0])
        # Deletes before a failing key are still accounted.
        for count, extra_bits in outcome.update_records():
            self.record_bulk_update(OpKind.DELETE, count, extra_bits)
        if outcome.error is not None:
            raise outcome.error

    def query_many(self, keys: object) -> np.ndarray:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=bool)
        word_idx, offsets = self.family.locate_array(encoded)
        member, accesses = self.state.bulk_query(word_idx, offsets, self._word_cols)
        self.record_bulk_query(len(encoded), float(accesses.sum()))
        return member

    def count_many(self, keys: object) -> np.ndarray:
        encoded = self._encode_bulk(keys)
        if len(encoded) == 0:
            return np.zeros(0, dtype=np.int64)
        word_idx, offsets = self.family.locate_array(encoded)
        return self.state.bulk_count(word_idx, offsets, self._word_cols)

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
        outcome = self.state.merge(other.state, self.word_overflow)
        self.overflow_events += int(outcome.overflow_events[0])
        if outcome.error is not None:
            raise outcome.error

    # -- kernel conversion ------------------------------------------------
    def counts_matrix(self) -> np.ndarray:
        """Every word's counter values, ``(l, b1)``: the whole hierarchy.

        With the saturated words' overlays this is the filter's complete
        state (see :mod:`repro.kernels.columnar`), in one dtype for both
        kernels.  The columnar kernel returns its live array.
        """
        return self.state.counts_matrix()

    def load_counts(self, counts: np.ndarray, saturated: dict[int, int]) -> None:
        """Replace the state with a :meth:`counts_matrix` and the
        ``{word index: overlay}`` map of saturated words."""
        self.state.load_counts(counts, saturated)

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
        self.state.check_invariants()
