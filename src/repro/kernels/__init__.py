"""MPCBF state engines and the columnar NumPy update kernels.

An MPCBF keeps its words in one of two engines with the same methods:

* :mod:`repro.kernels.columnar` — all HCBF words' hierarchies as flat
  ``counts``/``hist``/``used`` columns plus the packed first-level
  mirror, with batch kernels ``bulk_insert``/``bulk_delete``/
  ``bulk_query``/``bulk_count`` that are observably equivalent to the
  scalar oracle (membership, counters, saturation, ``AccessStats``;
  verified by the Hypothesis differential suite in ``tests/kernels/``).
  The kernels can treat the words as equal row blocks, one per filter,
  which is how a sharded bank runs all of its shards in one call.
* :mod:`repro.kernels.scalar` — :class:`~repro.filters.hcbf_word.HCBFWord`
  objects, the paper-faithful oracle the columnar kernels are held to.
* :mod:`repro.kernels.grouped` — bincount-grouped counter updates for
  the flat CBF.
* :mod:`repro.kernels.shmem` — shared-memory packing of the columnar
  arrays so :class:`~repro.parallel.sharded.ShardedFilterBank` can run
  shards on a process pool.

See ``docs/performance.md`` for the layout and equivalence argument.
"""

from repro.kernels.columnar import ColumnarHCBF, KernelOutcome
from repro.kernels.grouped import grouped_decrements, grouped_increments
from repro.kernels.scalar import ScalarHCBF
from repro.kernels.shmem import SharedArrayPack

__all__ = [
    "ColumnarHCBF",
    "KernelOutcome",
    "ScalarHCBF",
    "SharedArrayPack",
    "grouped_decrements",
    "grouped_increments",
]
