"""64-bit avalanche mixers, scalar and NumPy-vectorised.

Two classic finalisers are provided:

* ``splitmix64`` — the output function of the SplitMix64 generator
  (Steele, Lea & Flood 2014).  Cheap, excellent avalanche behaviour,
  and trivially seedable by adding a per-hash-function constant before
  mixing, which is how :class:`repro.hashing.families.HashFamily`
  derives independent hash functions from one encoded key.
* ``murmur_fmix64`` — the MurmurHash3 64-bit finaliser (Appleby 2011),
  used as an independent second mixer for double hashing.

The scalar versions operate on Python ints masked to 64 bits and are
used by the per-operation (non-bulk) filter paths and by tests as the
reference implementation.  The ``*_array`` versions operate elementwise
on ``uint64`` arrays; NumPy wraps arithmetic modulo 2**64 natively, so
they are exact counterparts (property-tested in
``tests/hashing/test_mixers.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "MASK64",
    "splitmix64",
    "splitmix64_array",
    "murmur_fmix64",
    "murmur_fmix64_array",
    "derive_seeds",
]

MASK64 = (1 << 64) - 1

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB

_MM_MUL1 = 0xFF51AFD7ED558CCD
_MM_MUL2 = 0xC4CEB9FE1A85EC53


def splitmix64(x: int) -> int:
    """Mix a 64-bit integer with the SplitMix64 finaliser.

    Parameters
    ----------
    x:
        Any Python int; only its low 64 bits participate.

    Returns
    -------
    int
        A well-mixed value in ``[0, 2**64)``.
    """
    x = (x + _SM_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & MASK64
    return x ^ (x >> 31)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over a ``uint64`` array.

    NumPy integer arithmetic wraps modulo 2**64 for ``uint64``, so the
    sequence of operations matches the scalar version bit-for-bit.
    Overflow warnings are intentional behaviour and suppressed locally.
    """
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # The first step copies; the rest update that copy in place.
        x = x + np.uint64(_SM_GAMMA)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_SM_MUL1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_SM_MUL2)
        x ^= x >> np.uint64(31)
        return x


def murmur_fmix64(x: int) -> int:
    """Mix a 64-bit integer with the MurmurHash3 ``fmix64`` finaliser."""
    x &= MASK64
    x = ((x ^ (x >> 33)) * _MM_MUL1) & MASK64
    x = ((x ^ (x >> 33)) * _MM_MUL2) & MASK64
    return x ^ (x >> 33)


def murmur_fmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`murmur_fmix64` over a ``uint64`` array."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(33))) * np.uint64(_MM_MUL1)
        x = (x ^ (x >> np.uint64(33))) * np.uint64(_MM_MUL2)
        return x ^ (x >> np.uint64(33))


def derive_seeds(master_seed: int, count: int) -> tuple[int, ...]:
    """Derive ``count`` independent 64-bit seeds from ``master_seed``.

    Seeds are produced by iterating SplitMix64, the construction its
    authors recommend for seeding families of generators.  Used by
    :class:`~repro.hashing.families.HashFamily` so an entire filter is
    reproducible from a single integer.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = []
    state = master_seed & MASK64
    for _ in range(count):
        state = (state + _SM_GAMMA) & MASK64
        seeds.append(splitmix64(state))
    return tuple(seeds)
