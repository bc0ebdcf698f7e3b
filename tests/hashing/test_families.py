"""Tests for hash families: ranges, determinism, scalar/bulk agreement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hashing.families import (
    HashFamily,
    PartitionedHashFamily,
    split_k_over_g,
)


class TestSplitKOverG:
    @pytest.mark.parametrize(
        "k,g,expected",
        [
            (3, 1, (3,)),
            (3, 2, (2, 1)),
            (4, 2, (2, 2)),
            (5, 2, (3, 2)),
            (5, 3, (2, 2, 1)),
            (7, 3, (3, 3, 1)),
            (1, 1, (1,)),
        ],
    )
    def test_paper_allocations(self, k, g, expected):
        assert split_k_over_g(k, g) == expected

    @given(st.integers(1, 16), st.integers(1, 16))
    def test_sums_to_k_and_every_word_nonempty(self, k, g):
        if g > k:
            with pytest.raises(ConfigurationError):
                split_k_over_g(k, g)
            return
        counts = split_k_over_g(k, g)
        assert sum(counts) == k
        assert len(counts) == g
        assert all(c >= 1 for c in counts)
        # Front-loaded: non-increasing.
        assert all(counts[i] >= counts[i + 1] for i in range(g - 1))

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            split_k_over_g(0, 1)


class TestHashFamily:
    def test_indices_in_range(self):
        fam = HashFamily(97, 5, seed=3)
        for key in range(100):
            idx = fam.indices(key)
            assert len(idx) == 5
            assert all(0 <= i < 97 for i in idx)

    def test_deterministic_per_seed(self):
        a = HashFamily(1000, 3, seed=1)
        b = HashFamily(1000, 3, seed=1)
        c = HashFamily(1000, 3, seed=2)
        assert a.indices(42) == b.indices(42)
        assert a.indices(42) != c.indices(42)

    def test_bulk_matches_scalar(self):
        fam = HashFamily(12345, 4, seed=9)
        keys = np.arange(500, dtype=np.uint64) * np.uint64(0x9E3779B9)
        matrix = fam.indices_array(keys)
        assert matrix.shape == (500, 4)
        for i in (0, 100, 499):
            assert list(matrix[i]) == fam.indices(int(keys[i]))

    def test_double_hashing_bulk_matches_scalar(self):
        fam = HashFamily(12345, 6, seed=9, mode="double")
        keys = np.arange(200, dtype=np.uint64) + np.uint64(17)
        matrix = fam.indices_array(keys)
        for i in (0, 99, 199):
            assert list(matrix[i]) == fam.indices(int(keys[i]))

    def test_double_hashing_uniformity(self):
        fam = HashFamily(64, 4, seed=0, mode="double")
        keys = np.arange(20_000, dtype=np.uint64)
        counts = np.bincount(
            fam.indices_array(keys).reshape(-1), minlength=64
        )
        assert counts.min() > 0.8 * counts.mean()

    def test_uniformity(self):
        fam = HashFamily(50, 3, seed=0)
        keys = np.arange(30_000, dtype=np.uint64)
        counts = np.bincount(fam.indices_array(keys).reshape(-1), minlength=50)
        # Each bucket expects 1800; allow generous slack.
        assert counts.min() > 1500
        assert counts.max() < 2100

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            HashFamily(0, 3)
        with pytest.raises(ConfigurationError):
            HashFamily(10, 0)
        with pytest.raises(ConfigurationError):
            HashFamily(10, 2, mode="nope")


class TestPartitionedHashFamily:
    def _family(self, **kw) -> PartitionedHashFamily:
        defaults = dict(num_words=256, offset_range=40, k=3, g=1, seed=5)
        defaults.update(kw)
        return PartitionedHashFamily(**defaults)

    def test_ranges(self):
        fam = self._family(g=2, k=5)
        for key in range(200):
            words = fam.word_indices(key)
            offs = fam.offsets(key)
            assert len(words) == 2 and len(offs) == 5
            assert all(0 <= w < 256 for w in words)
            assert all(0 <= o < 40 for o in offs)

    def test_grouped_offsets_partition(self):
        fam = self._family(g=2, k=5)
        groups = fam.groups(77)
        assert [word for word, _ in groups] == fam.word_indices(77)
        assert [o for _, grp in groups for o in grp] == fam.offsets(77)
        assert [len(grp) for _, grp in groups] == list(fam.k_per_word)

    def test_bulk_matches_scalar(self):
        fam = self._family(g=3, k=7, num_words=1024, offset_range=53)
        keys = (np.arange(300, dtype=np.uint64) + 1) * np.uint64(2654435761)
        word_idx, offsets = fam.locate_array(keys)
        assert word_idx.shape == (300, 3)
        assert offsets.shape == (300, 7)
        for i in (0, 150, 299):
            assert list(word_idx[i]) == fam.word_indices(int(keys[i]))
            assert list(offsets[i]) == fam.offsets(int(keys[i]))

    def test_word_and_offset_array_views(self):
        fam = self._family(g=2, k=4)
        keys = np.arange(50, dtype=np.uint64)
        np.testing.assert_array_equal(
            fam.word_indices_array(keys), fam.locate_array(keys)[0]
        )
        np.testing.assert_array_equal(
            fam.offsets_array(keys), fam.locate_array(keys)[1]
        )

    def test_offset_word_columns(self):
        fam = self._family(g=2, k=5)  # split (3, 2)
        cols = fam.offset_word_columns()
        assert list(cols) == [0, 0, 0, 1, 1]

    def test_word_uniformity(self):
        fam = self._family(num_words=64)
        keys = np.arange(30_000, dtype=np.uint64)
        counts = np.bincount(
            fam.word_indices_array(keys).reshape(-1), minlength=64
        )
        assert counts.min() > 0.8 * counts.mean()

    def test_first_word_independent_of_offset_value(self):
        # Word 0 shares a mix with offset 0 but must remain uniform and
        # weakly correlated: over many keys, every (offset0, word0 mod 8)
        # cell is populated.
        fam = self._family(num_words=8, offset_range=8)
        keys = np.arange(50_000, dtype=np.uint64)
        word_idx, offsets = fam.locate_array(keys)
        joint = np.zeros((8, 8), dtype=int)
        np.add.at(joint, (offsets[:, 0], word_idx[:, 0]), 1)
        assert joint.min() > 0.5 * joint.mean()

    @settings(max_examples=50)
    @given(st.integers(0, 2**64 - 1))
    def test_scalar_bulk_agreement_property(self, key):
        fam = self._family(g=2, k=4)
        word_idx, offsets = fam.locate_array(np.array([key], dtype=np.uint64))
        assert list(word_idx[0]) == fam.word_indices(key)
        assert list(offsets[0]) == fam.offsets(key)

    def test_bad_config(self):
        with pytest.raises(ConfigurationError):
            PartitionedHashFamily(0, 10, 3)
        with pytest.raises(ConfigurationError):
            PartitionedHashFamily(10, 0, 3)
        with pytest.raises(ConfigurationError):
            PartitionedHashFamily(10, 10, 2, g=3)
