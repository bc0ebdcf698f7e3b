"""Tests for the sharded filter bank."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, UnsupportedOperationError
from repro.filters.factory import FilterSpec
from repro.parallel import ShardedFilterBank


def make_bank(variant="MPCBF-1", shards=4, workers=1, **kw) -> ShardedFilterBank:
    spec = FilterSpec(
        variant=variant,
        memory_bits=kw.pop("memory_bits", 1 << 17),
        k=3,
        capacity=kw.pop("capacity", 4000),
        seed=kw.pop("seed", 1),
        extra=kw.pop("extra", {"word_overflow": "saturate"})
        if variant.startswith("MPCBF")
        else {},
    )
    return ShardedFilterBank(spec, shards, max_workers=workers)


class TestShardedBasics:
    def test_insert_query_delete(self):
        bank = make_bank()
        bank.insert("alpha")
        assert "alpha" in bank
        assert bank.count("alpha") == 1
        bank.delete("alpha")
        assert "alpha" not in bank

    def test_name_and_bits(self):
        bank = make_bank(shards=3)
        assert bank.name == "MPCBF-1x3"
        assert bank.total_bits == 3 * bank.shards[0].total_bits

    def test_bulk_no_false_negatives(self, small_keys):
        bank = make_bank()
        bank.insert_many(small_keys)
        assert bank.query_many(small_keys).all()

    def test_bulk_delete(self, small_keys):
        bank = make_bank()
        bank.insert_many(small_keys)
        bank.delete_many(small_keys)
        assert not bank.query_many(small_keys).any()

    def test_scalar_bulk_agreement(self, small_keys, negative_keys):
        bank = make_bank()
        bank.insert_many(small_keys)
        bulk = bank.query_many(negative_keys[:500])
        # The fixture keys are pre-encoded uint64, so compare against
        # the encoded scalar route (bank.query would re-encode the int).
        scalar = np.array(
            [
                bank.shards[
                    int(bank._route_array(np.array([k], dtype=np.uint64))[0])
                ].query_encoded(int(k))
                for k in negative_keys[:500]
            ]
        )
        np.testing.assert_array_equal(bulk, scalar)

    def test_results_in_input_order(self, small_keys):
        bank = make_bank()
        bank.insert_many(small_keys[:100])
        mixed = list(small_keys[:50]) + [f"absent-{i}" for i in range(50)]
        result = bank.query_many(mixed)
        assert result[:50].all()
        assert not result[50:].any()

    def test_empty_bulk(self):
        bank = make_bank()
        bank.insert_many(np.zeros(0, dtype=np.uint64))
        assert bank.query_many(np.zeros(0, dtype=np.uint64)).shape == (0,)


class TestRouting:
    def test_routing_deterministic(self, small_keys):
        a, b = make_bank(seed=5), make_bank(seed=5)
        for key in small_keys[:20]:
            assert a.shard_of(key) == b.shard_of(key)

    def test_each_key_lives_in_exactly_one_shard(self, small_keys):
        bank = make_bank()
        bank.insert_many(small_keys)
        for key in small_keys[:30]:
            owner = bank.shard_of(key)
            encoded = bank.encoder.encode(key)
            hits = [
                i
                for i, shard in enumerate(bank.shards)
                if shard.query_encoded(encoded)
            ]
            assert owner in hits  # owner always has it; others only by FP

    def test_balanced_loads(self):
        bank = make_bank(shards=8)
        keys = np.arange(40_000, dtype=np.uint64)
        loads = bank.shard_loads(keys)
        assert loads.sum() == 40_000
        assert loads.min() > 0.8 * loads.mean()

    def test_distinct_shard_seeds(self):
        bank = make_bank(shards=4)
        seeds = {shard.family.seed for shard in bank.shards}
        assert len(seeds) == 4


class TestThreadedExecution:
    def test_threaded_matches_sequential(self, small_keys, negative_keys):
        seq = make_bank(workers=1, seed=9)
        par = make_bank(workers=4, seed=9)
        seq.insert_many(small_keys)
        par.insert_many(small_keys)
        np.testing.assert_array_equal(
            seq.query_many(negative_keys), par.query_many(negative_keys)
        )
        np.testing.assert_array_equal(
            seq.query_many(small_keys), par.query_many(small_keys)
        )

    @pytest.mark.parametrize(
        "variant, extra",
        [("CBF", {}), ("MPCBF-1", {"word_overflow": "saturate", "kernel": "scalar"})],
    )
    def test_thread_pool_for_shards_outside_the_arena(
        self, variant, extra, small_keys, negative_keys
    ):
        # Columnar MPCBF banks run one arena kernel call; these shard
        # types keep per-shard dispatch, on the pool when workers > 1.
        seq = make_bank(variant, workers=1, seed=9, extra=extra)
        par = make_bank(variant, workers=4, seed=9, extra=extra)
        assert par._stacked is None
        seq.insert_many(small_keys)
        par.insert_many(small_keys)
        for keys in (small_keys, negative_keys):
            np.testing.assert_array_equal(seq.query_many(keys), par.query_many(keys))
            np.testing.assert_array_equal(seq.count_many(keys), par.count_many(keys))

    def test_threaded_delete(self, small_keys):
        bank = make_bank(workers=4)
        bank.insert_many(small_keys)
        bank.delete_many(small_keys)
        assert not bank.query_many(small_keys).any()


class TestStatsAndErrors:
    def test_aggregated_stats(self, small_keys):
        bank = make_bank()
        bank.insert_many(small_keys)
        bank.query_many(small_keys)
        assert bank.stats.insert.operations == len(small_keys)
        assert bank.stats.query.operations == len(small_keys)
        assert bank.stats.query.mean_accesses == pytest.approx(1.0)
        bank.reset_stats()
        assert bank.stats.query.operations == 0

    def test_plain_bloom_cannot_delete(self):
        bank = make_bank(variant="BF", extra={})
        bank.insert("x")
        with pytest.raises(UnsupportedOperationError):
            bank.delete("x")
        with pytest.raises(UnsupportedOperationError):
            bank.delete_many(["x"])
        with pytest.raises(UnsupportedOperationError):
            bank.count("x")

    def test_invalid_construction(self):
        spec = FilterSpec(variant="CBF", memory_bits=1 << 12, k=3)
        with pytest.raises(ConfigurationError):
            ShardedFilterBank(spec, 0)
        with pytest.raises(ConfigurationError):
            ShardedFilterBank(spec, 2, max_workers=0)

    def test_cbf_bank_counts(self):
        bank = make_bank(variant="CBF", extra={})
        for _ in range(3):
            bank.insert("dup")
        assert bank.count("dup") == 3
