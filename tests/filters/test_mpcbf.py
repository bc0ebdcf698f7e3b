"""Tests for MPCBF — the paper's contribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    CounterUnderflowError,
    WordOverflowError,
)
from repro.filters.mpcbf import MPCBF


def make(g=1, num_words=512, k=3, capacity=1000, seed=1, **kw) -> MPCBF:
    return MPCBF(num_words, 64, k, g=g, capacity=capacity, seed=seed, **kw)


class TestMPCBFBasics:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_cycle(self, g, small_keys):
        f = make(g=g)
        f.insert_many(small_keys)
        assert f.query_many(small_keys).all()
        f.delete_many(small_keys)
        assert not f.query_many(small_keys).any()
        f.check_invariants()

    def test_name(self):
        assert make(g=2).name == "MPCBF-2"

    def test_sizing_from_capacity(self):
        f = make(num_words=512, capacity=1000)
        # n/l ≈ 2 → heuristic n_max small, b1 large.
        assert f.first_level_bits == 64 - f.hashes_per_word * f.n_max
        assert f.first_level_bits >= f.k

    def test_explicit_n_max(self):
        f = MPCBF(64, 64, 3, n_max=5)
        assert f.n_max == 5
        assert f.first_level_bits == 64 - 15

    def test_needs_capacity_or_n_max(self):
        with pytest.raises(ConfigurationError):
            MPCBF(64, 64, 3)

    def test_count_multiplicity(self):
        f = make()
        for _ in range(4):
            f.insert("dup")
        assert f.count("dup") == 4
        f.delete("dup")
        assert f.count("dup") == 3

    def test_g2_splits_hashes(self):
        f = make(g=2, k=3)
        assert f.family.k_per_word == (2, 1)
        assert f.hashes_per_word == 2

    def test_mirror_consistency_through_churn(self, small_keys, rng):
        f = make()
        f.insert_many(small_keys)
        f.check_invariants()
        f.delete_many(small_keys[:100])
        f.check_invariants()
        f.insert_many([f"new-{i}" for i in range(100)])
        f.check_invariants()

    def test_stored_hash_bits(self, small_keys):
        f = make(k=3)
        f.insert_many(small_keys)
        assert f.stored_hash_bits == 3 * len(small_keys)

    def test_wide_first_level(self):
        # word_bits > 64 exercises the multi-limb mirror path.
        f = MPCBF(64, 128, 3, n_max=12)
        assert f.first_level_bits == 128 - 36
        keys = [f"wide-{i}" for i in range(100)]
        f.insert_many(keys)
        assert f.query_many(keys).all()
        f.check_invariants()


class TestMPCBFBulkScalarAgreement:
    @pytest.mark.parametrize("g", [1, 2])
    def test_query(self, g, small_keys, negative_keys):
        f = make(g=g, seed=4)
        f.insert_many(small_keys)
        bulk = f.query_many(negative_keys[:500])
        scalar = np.array([f.query_encoded(int(k)) for k in negative_keys[:500]])
        np.testing.assert_array_equal(bulk, scalar)

    def test_member_queries_agree(self, small_keys):
        f = make(seed=4)
        f.insert_many(small_keys)
        bulk = f.query_many(small_keys)
        scalar = np.array(
            [f.query_encoded(int(k)) for k in f.encoder.encode_many(small_keys)]
        )
        np.testing.assert_array_equal(bulk, scalar)


class TestMPCBFOverflow:
    def test_raise_policy(self):
        # One word, tiny budget: n_max=2 → 6 hierarchy bits at k=3.
        f = MPCBF(1, 64, 3, n_max=2, word_overflow="raise")
        f.insert("a")
        f.insert("b")
        with pytest.raises(WordOverflowError):
            f.insert("c")
        # Failed insert left the filter consistent.
        f.check_invariants()
        assert f.query("a") and f.query("b")

    def test_saturate_policy_keeps_membership(self):
        f = MPCBF(1, 64, 3, n_max=2, word_overflow="saturate")
        keys = [f"s{i}" for i in range(10)]
        for key in keys:
            f.insert(key)
        assert f.overflow_events > 0
        assert all(f.query(k) for k in keys)
        f.check_invariants()

    def test_saturate_policy_skips_deletes(self):
        f = MPCBF(1, 64, 3, n_max=2, word_overflow="saturate")
        for i in range(5):
            f.insert(f"s{i}")
        f.delete("s0")  # word saturated: delete is a recorded no-op
        assert f.skipped_deletes == 3
        assert f.query("s0")  # bits remain set — no false negatives ever

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            MPCBF(1, 64, 3, n_max=2, word_overflow="explode")

    def test_heuristic_avoids_overflow_in_practice(self):
        # The Eq. 11 setting: inserting `capacity` elements should not
        # overflow (this seed/config combination is verified stable).
        f = make(num_words=2048, capacity=4000, word_overflow="raise")
        f.insert_many([f"k{i}" for i in range(4000)])
        f.check_invariants()


class TestMPCBFDeletion:
    def test_delete_absent_raises_and_preserves_state(self, small_keys):
        f = make()
        f.insert_many(small_keys)
        with pytest.raises(CounterUnderflowError):
            f.delete("ghost-key-xyz")
        f.check_invariants()
        assert f.query_many(small_keys).all()

    def test_colliding_keys_survive_deletion(self):
        # Force collisions with a tiny word count.
        f = MPCBF(4, 64, 3, n_max=15, seed=3)
        keys = [f"c{i}" for i in range(15)]
        for key in keys:
            f.insert(key)
        f.delete(keys[0])
        for key in keys[1:]:
            assert f.query(key), f"{key} lost after deleting {keys[0]}"
        f.check_invariants()

    def test_duplicate_key_delete_validates_multiplicity(self):
        f = make()
        f.insert("dup")
        f.insert("dup")
        f.delete("dup")
        f.delete("dup")
        with pytest.raises(CounterUnderflowError):
            f.delete("dup")


class TestMPCBFStats:
    def test_one_access_per_query(self, small_keys):
        f = make(g=1)
        f.insert_many(small_keys)
        f.reset_stats()
        f.query_many(small_keys)
        assert f.stats.query.mean_accesses == pytest.approx(1.0)

    def test_g2_accesses_between_1_and_2(self, small_keys, negative_keys):
        f = make(g=2, num_words=4096, capacity=200)
        f.insert_many(small_keys)
        f.reset_stats()
        f.query_many(negative_keys)
        acc = f.stats.query.mean_accesses
        assert 1.0 <= acc < 1.5  # negatives mostly fail in word 1

    def test_update_bandwidth_exceeds_query_bandwidth(self, small_keys):
        f = make()
        f.insert_many(small_keys)
        f.reset_stats()
        f.query_many(small_keys)
        # Updates traverse the hierarchy; queries read only level 1.
        assert f.stats.insert.mean_bits == 0  # reset cleared them
        f2 = make()
        f2.insert_many(small_keys)
        q_bits_budget = f2._budget_query.total_bits
        assert f2.stats.insert.mean_bits >= q_bits_budget

    def test_fpr_better_than_cbf_at_same_memory(self, rng):
        # The paper's headline: ~an order of magnitude lower FPR.
        from repro.filters.cbf import CountingBloomFilter

        n, memory = 4000, 1 << 19
        members = rng.integers(1, 2**62, size=n).astype(np.uint64)
        negatives = (
            rng.integers(1, 2**62, size=200_000).astype(np.uint64)
            | np.uint64(1 << 63)
        )
        mp = MPCBF(memory // 64, 64, 3, capacity=n, seed=2)
        cbf = CountingBloomFilter(memory // 4, 3, seed=2)
        mp.insert_many(members)
        cbf.insert_many(members)
        fpr_mp = mp.query_many(negatives).mean()
        fpr_cbf = cbf.query_many(negatives).mean()
        assert fpr_mp < fpr_cbf


class TestMPCBFHashCalls:
    @pytest.mark.parametrize("g,k", [(1, 3), (2, 3), (3, 5)])
    def test_one_mix_pass_per_key(self, g, k, monkeypatch):
        from repro.hashing import families

        f = make(g=g, k=k)
        calls = []
        real = families.splitmix64

        def counting(value):
            calls.append(value)
            return real(value)

        monkeypatch.setattr(families, "splitmix64", counting)
        f.insert_encoded(12345)
        assert len(calls) == k + g - 1
        assert len(calls) == f.stats.insert.hash_calls


class TestMPCBFWordCollision:
    def test_delete_validation_when_g_words_collide(self):
        """With g=2 both word hashes can land in one word; deleting a
        key present once must either succeed fully or fail cleanly —
        never apply half its decrements (regression test for the
        cross-group demand aggregation)."""
        # Single word forces the collision deterministically.
        f = MPCBF(1, 256, 4, g=2, n_max=30, seed=1)
        f.insert("victim")
        f.delete("victim")           # clean full-cycle delete
        assert not f.query("victim")
        f.check_invariants()
        # Deleting again must fail atomically with no partial damage.
        f.insert("other")
        before = [f.words[0].count(p) for p in range(f.first_level_bits)]
        with pytest.raises(CounterUnderflowError):
            f.delete("victim")
        after = [f.words[0].count(p) for p in range(f.first_level_bits)]
        assert before == after
        f.check_invariants()
