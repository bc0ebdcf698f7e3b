"""Filter serialisation: stable byte encodings for every variant.

The §V pipeline ships a filter to every map node through
DistributedCache — which in real Hadoop means *bytes on the wire*.
This module provides versioned, self-describing encodings for all
filter variants so the broadcast cost is the real payload size and a
filter can round-trip across processes (or into files) without pickle.

Format: an 8-byte magic+version header, a JSON config block (length
prefixed) describing the variant and its geometry, then the raw state
arrays.  Integers are little-endian; NumPy arrays are dumped with an
explicit dtype/shape in the config so the reader never guesses.

Only filter *state* is serialised — hash seeds travel in the config, so
the reconstructed filter answers queries identically (tested
byte-for-byte in ``tests/test_serialize.py``).

An MPCBF's payload is its counter matrix (``l × b1``, u8 when
``w − b1 ≤ 255``, else int32), which determines every word's popcount
hierarchy, plus the saturated words' overlays in the config.  Both
kernels write the same matrix; load is one ``frombuffer`` and a rebuild
of the derived arrays.
"""

from __future__ import annotations

import io
import json
import struct

import numpy as np

from repro.errors import ConfigurationError
from repro.filters.base import FilterBase
from repro.filters.bloom import BloomFilter
from repro.filters.cbf import CountingBloomFilter
from repro.filters.dlcbf import DLeftCBF
from repro.filters.mpcbf import MPCBF
from repro.filters.one_access import OneAccessBloomFilter
from repro.filters.pcbf import PartitionedCBF
from repro.filters.spectral import SpectralBloomFilter
from repro.filters.vicbf import VariableIncrementCBF

__all__ = [
    "dump_filter",
    "load_filter",
    "dump_bank",
    "load_bank",
    "serialized_size",
]

_MAGIC = b"MPCB"
_BANK_MAGIC = b"MPBK"
_VERSION = 2


def _write_array(buf: io.BytesIO, arr: np.ndarray) -> dict:
    """Append an array's raw bytes; return its descriptor."""
    data = np.ascontiguousarray(arr)
    raw = data.tobytes()
    offset = buf.tell()
    buf.write(raw)
    return {
        "dtype": str(data.dtype),
        "shape": list(data.shape),
        "offset": offset,
        "nbytes": len(raw),
    }


def _read_array(payload: bytes, desc: dict) -> np.ndarray:
    end = desc["offset"] + desc["nbytes"]
    if end > len(payload):
        raise ConfigurationError(
            f"serialised payload too short: an array ends at byte {end}, "
            f"the payload holds {len(payload)}"
        )
    try:
        arr = np.frombuffer(payload[desc["offset"] : end], dtype=desc["dtype"])
        return arr.reshape(desc["shape"]).copy()
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed array descriptor {desc}") from exc


def dump_filter(filt: FilterBase) -> bytes:
    """Serialise a filter to bytes.

    Supported: BloomFilter, OneAccessBloomFilter (BF-g),
    CountingBloomFilter, PartitionedCBF, VariableIncrementCBF, MPCBF,
    DLeftCBF, SpectralBloomFilter — every variant the factory builds,
    so the serving daemon can snapshot whatever it hosts.
    """
    state = io.BytesIO()
    family = getattr(filt, "family", None)
    config: dict = {"seed": getattr(filt, "seed", getattr(family, "seed", 0))}

    if isinstance(filt, BloomFilter):
        config.update(
            variant="BF", num_bits=filt.num_bits, k=filt.k,
            bits=_write_array(state, filt._bits),
        )
    elif isinstance(filt, VariableIncrementCBF):
        config.update(
            variant="VI-CBF",
            num_counters=filt.num_counters,
            k=filt.k,
            L=filt.L,
            counter_bits=filt.counter_bits,
            counters=_write_array(state, filt._counters),
        )
    elif isinstance(filt, PartitionedCBF):
        config.update(
            variant="PCBF",
            num_words=filt.num_words,
            word_bits=filt.word_bits,
            k=filt.k,
            g=filt.g,
            counter_bits=filt.counter_bits,
            overflow=filt.overflow.value,
            counters=_write_array(state, filt._counters),
        )
    elif isinstance(filt, CountingBloomFilter):
        # `.counters` unpacks both storage backends identically.
        config.update(
            variant="CBF",
            num_counters=filt.num_counters,
            k=filt.k,
            counter_bits=filt.counter_bits,
            overflow=filt.overflow.value,
            storage=filt.storage,
            counters=_write_array(state, np.asarray(filt.counters)),
        )
    elif isinstance(filt, OneAccessBloomFilter):
        config.update(
            variant="BF-g",
            num_words=filt.num_words,
            word_bits=filt.word_bits,
            k=filt.k,
            g=filt.g,
            mirror=_write_array(state, filt._mirror),
        )
    elif isinstance(filt, DLeftCBF):
        config.update(
            variant="dlCBF",
            num_buckets=filt.num_buckets,
            d=filt.d,
            cells_per_bucket=filt.cells_per_bucket,
            fingerprint_bits=filt.fingerprint_bits,
            counter_bits=filt.counter_bits,
            fingerprints=_write_array(state, filt._fingerprints),
            counters=_write_array(state, filt._counters),
        )
    elif isinstance(filt, SpectralBloomFilter):
        config.update(
            variant="SBF",
            num_counters=filt.num_counters,
            k=filt.k,
            counter_bits=filt.counter_bits,
            recurring_minimum=filt.recurring_minimum,
            counters=_write_array(state, filt._counters),
        )
        if filt.recurring_minimum:
            config["secondary"] = _write_array(state, filt._secondary)
    elif isinstance(filt, MPCBF):
        config.update(
            variant="MPCBF",
            num_words=filt.num_words,
            word_bits=filt.word_bits,
            k=filt.k,
            g=filt.g,
            n_max=filt.n_max,
            first_level_bits=filt.first_level_bits,
            word_overflow=filt.word_overflow,
            # counts_matrix() has one dtype for both kernels and
            # saturated is sorted, so columnar and scalar backends
            # holding the same contents serialise to identical bytes
            # (the kernel choice itself is a runtime concern and is
            # deliberately omitted).
            saturated={
                str(i): hex(v) for i, v in sorted(filt._saturated.items())
            },
            counts=_write_array(state, filt.counts_matrix()),
        )
    else:
        raise ConfigurationError(
            f"cannot serialise filter type {type(filt).__name__}"
        )

    config_bytes = json.dumps(config).encode("utf-8")
    out = io.BytesIO()
    out.write(_MAGIC)
    out.write(struct.pack("<I", _VERSION))
    out.write(struct.pack("<I", len(config_bytes)))
    out.write(config_bytes)
    out.write(state.getvalue())
    return out.getvalue()


def load_filter(data: bytes) -> FilterBase:
    """Reconstruct a filter serialised by :func:`dump_filter`."""
    if data[:4] != _MAGIC:
        raise ConfigurationError("not a serialised repro filter (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != _VERSION:
        raise ConfigurationError(f"unsupported filter format version {version}")
    (config_len,) = struct.unpack_from("<I", data, 8)
    config = json.loads(data[12 : 12 + config_len].decode("utf-8"))
    payload = data[12 + config_len :]
    seed = config["seed"]
    variant = config["variant"]

    if variant == "BF":
        filt = BloomFilter(config["num_bits"], config["k"], seed=seed)
        filt._bits = _read_array(payload, config["bits"]).astype(bool)
        return filt
    if variant == "VI-CBF":
        filt = VariableIncrementCBF(
            config["num_counters"],
            config["k"],
            L=config["L"],
            counter_bits=config["counter_bits"],
            seed=seed,
        )
        filt._counters = _read_array(payload, config["counters"])
        return filt
    if variant == "PCBF":
        filt = PartitionedCBF(
            config["num_words"],
            config["word_bits"],
            config["k"],
            g=config["g"],
            counter_bits=config["counter_bits"],
            overflow=config["overflow"],
            seed=seed,
        )
        filt._counters = _read_array(payload, config["counters"])
        return filt
    if variant == "CBF":
        filt = CountingBloomFilter(
            config["num_counters"],
            config["k"],
            counter_bits=config["counter_bits"],
            overflow=config["overflow"],
            storage=config.get("storage", "fast"),
            seed=seed,
        )
        values = _read_array(payload, config["counters"])
        if filt._packed is not None:
            filt._packed.load_array(values)
        else:
            filt._counters = values.astype(np.int32)
        return filt
    if variant == "BF-g":
        filt = OneAccessBloomFilter(
            config["num_words"],
            config["word_bits"],
            config["k"],
            g=config["g"],
            seed=seed,
        )
        mirror = _read_array(payload, config["mirror"]).astype(np.uint64)
        filt._mirror[...] = mirror
        # The WordMemory is authoritative for scalar paths; rebuild each
        # word's Python int from its mirror limbs.
        for word_index in range(filt.num_words):
            value = 0
            for limb in range(mirror.shape[1]):
                value |= int(mirror[word_index, limb]) << (64 * limb)
            filt.memory.poke(word_index, value)
        return filt
    if variant == "dlCBF":
        filt = DLeftCBF(
            config["num_buckets"],
            d=config["d"],
            cells_per_bucket=config["cells_per_bucket"],
            fingerprint_bits=config["fingerprint_bits"],
            counter_bits=config["counter_bits"],
            seed=seed,
        )
        filt._fingerprints = _read_array(payload, config["fingerprints"])
        filt._counters = _read_array(payload, config["counters"])
        return filt
    if variant == "SBF":
        filt = SpectralBloomFilter(
            config["num_counters"],
            config["k"],
            counter_bits=config["counter_bits"],
            recurring_minimum=config["recurring_minimum"],
            seed=seed,
        )
        filt._counters = _read_array(payload, config["counters"])
        if config["recurring_minimum"]:
            filt._secondary = _read_array(payload, config["secondary"])
        return filt
    if variant == "MPCBF":
        # Reconstruct from b1: exact for both the improved layout
        # (b1 = w − ⌈k/g⌉·n_max, so n_max round-trips) and the basic
        # fixed-b1 layout.
        filt = MPCBF(
            config["num_words"],
            config["word_bits"],
            config["k"],
            g=config["g"],
            first_level_bits=config["first_level_bits"],
            word_overflow=config["word_overflow"],
            seed=seed,
        )
        if filt.n_max != config["n_max"]:
            raise ConfigurationError(
                "geometry mismatch reconstructing MPCBF "
                f"(n_max {filt.n_max} != {config['n_max']})"
            )
        counts = _read_array(payload, config["counts"])
        if counts.shape != (filt.num_words, filt.first_level_bits):
            raise ConfigurationError(
                f"geometry mismatch reconstructing MPCBF (counts shape "
                f"{counts.shape} != {(filt.num_words, filt.first_level_bits)})"
            )
        filt.load_counts(
            counts,
            {int(i): int(v, 16) for i, v in config["saturated"].items()},
        )
        return filt
    raise ConfigurationError(f"unknown serialised variant {variant!r}")


def dump_bank(bank) -> bytes:
    """Serialise a :class:`~repro.parallel.ShardedFilterBank`.

    The bank header records the per-shard :class:`FilterSpec` (so the
    routing seed and shard seeds re-derive deterministically) followed
    by each shard's :func:`dump_filter` blob.
    """
    spec = bank.spec
    shard_blobs = [dump_filter(shard) for shard in bank.shards]
    offsets = []
    pos = 0
    for blob in shard_blobs:
        offsets.append({"offset": pos, "nbytes": len(blob)})
        pos += len(blob)
    config = {
        "num_shards": bank.num_shards,
        "max_workers": bank.max_workers,
        "executor": getattr(bank, "executor", "thread"),
        "spec": {
            "variant": spec.variant,
            "memory_bits": spec.memory_bits,
            "k": spec.k,
            "word_bits": spec.word_bits,
            "counter_bits": spec.counter_bits,
            "capacity": spec.capacity,
            "n_max": spec.n_max,
            "seed": spec.seed,
            "extra": dict(spec.extra),
        },
        "shards": offsets,
    }
    config_bytes = json.dumps(config).encode("utf-8")
    out = io.BytesIO()
    out.write(_BANK_MAGIC)
    out.write(struct.pack("<I", _VERSION))
    out.write(struct.pack("<I", len(config_bytes)))
    out.write(config_bytes)
    for blob in shard_blobs:
        out.write(blob)
    return out.getvalue()


def load_bank(data: bytes):
    """Reconstruct a bank serialised by :func:`dump_bank`."""
    from repro.filters.factory import FilterSpec
    from repro.parallel.sharded import ShardedFilterBank

    if data[:4] != _BANK_MAGIC:
        raise ConfigurationError("not a serialised filter bank (bad magic)")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != _VERSION:
        raise ConfigurationError(f"unsupported bank format version {version}")
    (config_len,) = struct.unpack_from("<I", data, 8)
    config = json.loads(data[12 : 12 + config_len].decode("utf-8"))
    payload = data[12 + config_len :]
    spec_cfg = config["spec"]
    spec = FilterSpec(
        variant=spec_cfg["variant"],
        memory_bits=spec_cfg["memory_bits"],
        k=spec_cfg["k"],
        word_bits=spec_cfg["word_bits"],
        counter_bits=spec_cfg["counter_bits"],
        capacity=spec_cfg["capacity"],
        n_max=spec_cfg["n_max"],
        seed=spec_cfg["seed"],
        extra=dict(spec_cfg["extra"]),
    )
    bank = ShardedFilterBank(
        spec,
        config["num_shards"],
        max_workers=config["max_workers"],
        executor=config.get("executor", "thread"),
    )
    bank.set_shards(
        [
            load_filter(payload[d["offset"] : d["offset"] + d["nbytes"]])
            for d in config["shards"]
        ]
    )
    return bank


def serialized_size(filt: FilterBase) -> int:
    """Byte size of the filter's serialised form (broadcast payload)."""
    return len(dump_filter(filt))
