"""Tests for filter serialisation round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.filters import (
    BloomFilter,
    CountingBloomFilter,
    DLeftCBF,
    MPCBF,
    OneAccessBloomFilter,
    PartitionedCBF,
    SpectralBloomFilter,
    VariableIncrementCBF,
)
from repro.serialize import (
    dump_bank,
    dump_filter,
    load_bank,
    load_filter,
    serialized_size,
)


def _fill(filt, n=300):
    keys = [f"ser-{i}" for i in range(n)]
    filt.insert_many(keys)
    return keys


def _assert_equivalent(original, restored, keys):
    probes = [f"probe-{i}" for i in range(2000)]
    np.testing.assert_array_equal(
        original.query_many(keys), restored.query_many(keys)
    )
    np.testing.assert_array_equal(
        original.query_many(probes), restored.query_many(probes)
    )


class TestRoundTrips:
    def test_bloom(self):
        bf = BloomFilter(4096, 3, seed=7)
        keys = _fill(bf)
        restored = load_filter(dump_filter(bf))
        _assert_equivalent(bf, restored, keys)

    def test_cbf(self):
        cbf = CountingBloomFilter(4096, 3, seed=7)
        keys = _fill(cbf)
        restored = load_filter(dump_filter(cbf))
        _assert_equivalent(cbf, restored, keys)
        # Counting state survives too.
        assert restored.count(keys[0]) == cbf.count(keys[0])
        restored.delete(keys[0])
        assert not restored.query(keys[0])

    def test_pcbf(self):
        pcbf = PartitionedCBF(128, 64, 3, g=2, seed=7)
        keys = _fill(pcbf)
        restored = load_filter(dump_filter(pcbf))
        _assert_equivalent(pcbf, restored, keys)
        np.testing.assert_array_equal(restored.counters, pcbf.counters)

    def test_vicbf(self):
        vi = VariableIncrementCBF(4096, 3, seed=7)
        keys = _fill(vi)
        restored = load_filter(dump_filter(vi))
        _assert_equivalent(vi, restored, keys)

    def test_mpcbf(self):
        mp = MPCBF(256, 64, 3, capacity=300, seed=7)
        keys = _fill(mp)
        restored = load_filter(dump_filter(mp))
        _assert_equivalent(mp, restored, keys)
        restored.check_invariants()
        # Hierarchy state survives: deletions still work.
        restored.delete(keys[0])
        assert not restored.query(keys[0])

    def test_mpcbf_with_saturated_words(self):
        mp = MPCBF(1, 64, 3, n_max=2, word_overflow="saturate", seed=1)
        keys = [f"s{i}" for i in range(8)]
        for key in keys:
            mp.insert(key)
        assert mp.overflow_events > 0
        restored = load_filter(dump_filter(mp))
        restored.check_invariants()
        assert all(restored.query(k) for k in keys)

    def test_byte_identical_reserialisation(self):
        cbf = CountingBloomFilter(1024, 3, seed=2)
        _fill(cbf, 50)
        blob = dump_filter(cbf)
        assert dump_filter(load_filter(blob)) == blob

    def test_one_access_bf(self):
        bf1 = OneAccessBloomFilter(256, 64, 3, g=1, seed=7)
        keys = _fill(bf1)
        restored = load_filter(dump_filter(bf1))
        _assert_equivalent(bf1, restored, keys)
        # Scalar path (WordMemory) and bulk path (mirror) both restored.
        assert all(restored.query(k) for k in keys[:20])

    def test_one_access_bf_g_multiword(self):
        bfg = OneAccessBloomFilter(64, 128, 6, g=3, seed=9)
        keys = _fill(bfg)
        restored = load_filter(dump_filter(bfg))
        _assert_equivalent(bfg, restored, keys)
        assert dump_filter(restored) == dump_filter(bfg)

    def test_dlcbf(self):
        dl = DLeftCBF(256, seed=4)
        keys = _fill(dl)
        restored = load_filter(dump_filter(dl))
        _assert_equivalent(dl, restored, keys)
        assert restored.count(keys[0]) == dl.count(keys[0])
        restored.delete(keys[0])
        assert not restored.query(keys[0])

    def test_spectral(self):
        sbf = SpectralBloomFilter(4096, 3, seed=6)
        keys = _fill(sbf)
        sbf.insert(keys[0])  # multiplicity 2 exercises the RM estimator
        restored = load_filter(dump_filter(sbf))
        _assert_equivalent(sbf, restored, keys)
        assert restored.count(keys[0]) == sbf.count(keys[0])

    def test_spectral_without_recurring_minimum(self):
        sbf = SpectralBloomFilter(2048, 3, seed=6, recurring_minimum=False)
        keys = _fill(sbf, 100)
        restored = load_filter(dump_filter(sbf))
        _assert_equivalent(sbf, restored, keys)
        assert not restored.recurring_minimum


class TestFormat:
    def test_magic_check(self):
        with pytest.raises(ConfigurationError):
            load_filter(b"NOPE" + b"\x00" * 32)

    def test_version_check(self):
        blob = bytearray(dump_filter(BloomFilter(64, 2)))
        blob[4] = 99
        with pytest.raises(ConfigurationError):
            load_filter(bytes(blob))

    def test_unsupported_type(self):
        from repro.filters.base import FilterBase

        with pytest.raises(ConfigurationError):
            dump_filter(FilterBase())

    def test_serialized_size_tracks_state(self):
        small = BloomFilter(512, 3)
        large = BloomFilter(1 << 16, 3)
        assert serialized_size(large) > serialized_size(small)

    def test_empty_filter_round_trip(self):
        mp = MPCBF(32, 64, 3, n_max=5, seed=0)
        restored = load_filter(dump_filter(mp))
        assert not restored.query("anything")
        restored.check_invariants()


class TestSerializationProperties:
    """Hypothesis: round-trips preserve observable state under random ops."""

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 30)),
            max_size=60,
        ),
        st.sampled_from(["CBF", "PCBF", "MPCBF", "VI-CBF"]),
    )
    def test_round_trip_after_random_ops(self, ops, variant):
        from collections import Counter

        if variant == "CBF":
            filt = CountingBloomFilter(2048, 3, seed=1)
        elif variant == "PCBF":
            filt = PartitionedCBF(64, 64, 3, seed=1)
        elif variant == "VI-CBF":
            filt = VariableIncrementCBF(2048, 3, seed=1)
        else:
            filt = MPCBF(32, 256, 3, n_max=60, seed=1)
        live: Counter = Counter()
        for op, key in ops:
            name = f"k{key}"
            if op == "delete":
                if live[name] == 0:
                    continue
                filt.delete(name)
                live[name] -= 1
            elif live[name] < 4:
                filt.insert(name)
                live[name] += 1
        restored = load_filter(dump_filter(filt))
        probes = [f"k{i}" for i in range(40)] + [f"p{i}" for i in range(40)]
        np.testing.assert_array_equal(
            filt.query_many(probes), restored.query_many(probes)
        )
        for name, count in live.items():
            if count:
                assert restored.count(name) >= count


class TestBankRoundTrips:
    def _bank(self, variant="MPCBF-1", num_shards=4):
        from repro.filters.factory import FilterSpec
        from repro.parallel.sharded import ShardedFilterBank

        spec = FilterSpec(
            variant=variant,
            memory_bits=32 * 8192,
            k=3,
            capacity=2000,
            seed=13,
            extra=(
                {"word_overflow": "saturate"}
                if variant.startswith("MPCBF")
                else {}
            ),
        )
        return ShardedFilterBank(spec, num_shards)

    @pytest.mark.parametrize("variant", ["MPCBF-1", "CBF", "BF"])
    def test_bank_round_trip(self, variant):
        bank = self._bank(variant)
        keys = _fill(bank)
        restored = load_bank(dump_bank(bank))
        assert restored.num_shards == bank.num_shards
        assert restored.name == bank.name
        _assert_equivalent(bank, restored, keys)
        # Routing survives: per-shard loads match exactly.
        np.testing.assert_array_equal(
            restored.shard_loads(keys), bank.shard_loads(keys)
        )

    def test_bank_deletion_after_restore(self):
        bank = self._bank("CBF")
        keys = _fill(bank)
        restored = load_bank(dump_bank(bank))
        restored.delete(keys[0])
        assert not restored.query(keys[0])

    def test_bank_byte_identical_reserialisation(self):
        bank = self._bank()
        _fill(bank, 100)
        blob = dump_bank(bank)
        assert dump_bank(load_bank(blob)) == blob

    def test_bank_bad_magic(self):
        with pytest.raises(ConfigurationError):
            load_bank(b"NOPE" + b"\x00" * 16)

    def test_filter_and_bank_magics_are_disjoint(self):
        bank = self._bank()
        with pytest.raises(ConfigurationError):
            load_filter(dump_bank(bank))
        with pytest.raises(ConfigurationError):
            load_bank(dump_filter(bank.shards[0]))


class TestStorageLayoutRoundTrips:
    def test_packed_cbf_round_trip(self):
        packed = CountingBloomFilter(2048, 3, seed=1, storage="packed")
        for key in ("a", "a", "b"):
            packed.insert(key)
        restored = load_filter(dump_filter(packed))
        assert restored.storage == "packed"
        assert restored.count("a") == 2
        restored.delete("b")
        assert not restored.query("b")

    def test_fast_and_packed_serialise_equivalent_state(self, small_keys):
        fast = CountingBloomFilter(2048, 3, seed=1)
        packed = CountingBloomFilter(2048, 3, seed=1, storage="packed")
        fast.insert_many(small_keys)
        packed.insert_many(small_keys)
        a = load_filter(dump_filter(fast))
        b = load_filter(dump_filter(packed))
        np.testing.assert_array_equal(a.counters, b.counters)

    def test_basic_layout_mpcbf_round_trip(self):
        basic = MPCBF(64, 64, 3, first_level_bits=32, seed=2)
        basic.insert("x")
        restored = load_filter(dump_filter(basic))
        assert restored.first_level_bits == 32
        assert restored.query("x")
        restored.delete("x")
        assert not restored.query("x")
        restored.check_invariants()


class TestMpcbfPayload:
    """The MPCBF payload is the counter matrix: exact, kernel-neutral."""

    from hypothesis import given, settings, strategies as st

    # (num_words, word_bits, k, g, first_level_bits): tiny words, words
    # that overflow into saturation, and a budget w − b1 > 255 that
    # needs int32 counters.
    GEOMETRIES = [
        (1, 64, 3, 1, 40),
        (4, 64, 4, 2, 48),
        (8, 32, 2, 1, 24),
        (3, 320, 3, 1, 16),
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(GEOMETRIES),
        st.sampled_from(["columnar", "scalar"]),
        st.integers(0, 3),
        st.lists(
            st.tuples(st.booleans(), st.lists(st.integers(0, 60), max_size=20)),
            max_size=12,
        ),
    )
    def test_round_trip_is_byte_exact_across_kernels(
        self, geometry, kernel, seed, ops
    ):
        from repro.errors import ReproError

        num_words, word_bits, k, g, b1 = geometry
        filt = MPCBF(
            num_words, word_bits, k, g=g, first_level_bits=b1, seed=seed,
            word_overflow="saturate", kernel=kernel,
        )
        for insert, ids in ops:
            keys = [f"p{i}" for i in ids]
            try:
                (filt.insert_many if insert else filt.delete_many)(keys)
            except ReproError:
                pass  # underflowing deletes: the prefix stays applied
        blob = dump_filter(filt)
        restored = load_filter(blob)
        assert dump_filter(restored) == blob
        restored.check_invariants()
        np.testing.assert_array_equal(restored._mirror, filt._mirror)
        assert restored._saturated == filt._saturated
        other = "scalar" if kernel == "columnar" else "columnar"
        twin = restored.with_kernel(other)
        twin.check_invariants()
        assert dump_filter(twin) == blob
        probes = [f"p{i}" for i in range(80)]
        np.testing.assert_array_equal(
            twin.count_many(probes), filt.count_many(probes)
        )

    @pytest.mark.parametrize(
        "word_bits, b1, dtype", [(64, 40, "uint8"), (320, 16, "int32")]
    )
    def test_payload_is_the_counter_matrix(self, word_bits, b1, dtype):
        import json
        import struct

        filt = MPCBF(
            16, word_bits, 3, first_level_bits=b1, seed=4,
            word_overflow="saturate",
        )
        filt.insert_many([f"s{i}" for i in range(2000)])
        assert filt._saturated  # the overlay rides in the config
        blob = dump_filter(filt)
        assert blob[:4] == b"MPCB"
        assert struct.unpack_from("<I", blob, 4) == (2,)
        (config_len,) = struct.unpack_from("<I", blob, 8)
        config = json.loads(blob[12 : 12 + config_len])
        payload = blob[12 + config_len :]
        # No per-word JSON and no derived arrays: l × b1 counters only.
        assert "words" not in config and "mirror" not in config
        assert config["counts"] == {
            "dtype": dtype,
            "shape": [16, b1],
            "offset": 0,
            "nbytes": 16 * b1 * np.dtype(dtype).itemsize,
        }
        assert payload == filt.counts_matrix().tobytes()
        assert config["saturated"] == {
            str(i): hex(v) for i, v in sorted(filt._saturated.items())
        }

    #: sha256 of ``dump_filter`` after :meth:`_golden_script`, per
    #: overflow policy: the committed on-disk bytes of an MPCBF snapshot.
    GOLDEN_SHA256 = {
        "saturate": "f42cc47944fb7e877277fa0ac4d45853002d5a66d863fbcab94e77a9f6b93ea1",
        "raise": "6aae78d3a729a426956051fffd7554e0c4d1ae9783f114e48f09a2ad5e6ec1a3",
    }

    @staticmethod
    def _golden_script(kernel: str, policy: str):
        """Fixed per-key and bulk updates that fill words to overflow."""
        from repro.errors import ReproError

        filt = MPCBF(
            16, 64, 3, g=2, n_max=4, seed=7, word_overflow=policy, kernel=kernel
        )
        errors = []
        steps = [
            lambda: [filt.insert(f"g{i}") for i in range(12)],
            lambda: filt.insert_many([f"g{i}" for i in range(8, 40)]),
            lambda: filt.delete_many([f"g{i}" for i in range(0, 6)] + ["absent"]),
            lambda: [filt.delete(f"g{i}") for i in (9, 10, 41)],
            lambda: filt.insert_many([f"h{i}" for i in range(30)]),
        ]
        for step in steps:
            try:
                step()
            except ReproError as exc:
                errors.append(type(exc).__name__)
        return filt, errors

    @pytest.mark.parametrize("kernel", ["columnar", "scalar"])
    @pytest.mark.parametrize("policy", ["saturate", "raise"])
    def test_golden_snapshot_bytes(self, kernel, policy):
        import hashlib

        filt, errors = self._golden_script(kernel, policy)
        if policy == "saturate":
            assert filt._saturated
        else:
            assert "WordOverflowError" in errors
        digest = hashlib.sha256(dump_filter(filt)).hexdigest()
        assert digest == self.GOLDEN_SHA256[policy]

    def test_version_one_blob_is_rejected(self):
        blob = bytearray(dump_filter(MPCBF(8, 64, 3, n_max=5)))
        blob[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(ConfigurationError, match="version 1"):
            load_filter(bytes(blob))

    def test_short_payload_raises_configuration_error(self):
        blob = dump_filter(MPCBF(8, 64, 3, n_max=5))
        for cut in (1, 7, 100):
            with pytest.raises(ConfigurationError, match="too short"):
                load_filter(blob[:-cut])
