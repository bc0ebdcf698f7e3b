"""Placement rule tests: one vectorised rule, and its per-key twins.

Every surface places a key by :func:`ring_positions` (SplitMix64 of the
wire key XOR ``RING_SEED``) and a ``searchsorted`` over the ring's vnode
points.  These properties pin the column forms — ``HashRing.partition``,
``KeyRangeSet.select`` and ``RebalanceState.gate`` — to the per-key
forms ``hash_key``, ``owner_at`` and ``contains``, including keys whose
position lands exactly on a vnode point or range boundary and keys in
the wrap arc past the last point, where ``side="right"`` must behave as
``bisect_right``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.cluster.router import (
    RING_SEED,
    HashRing,
    NodeAddress,
    ShardGroup,
    hash_key,
    ring_positions,
)
from repro.errors import MovedError, WrongEpochError
from repro.filters.factory import FilterSpec, build_filter
from repro.hashing.mixers import MASK64, _SM_GAMMA, _SM_MUL1, _SM_MUL2
from repro.rebalance.epochs import KeyRange, KeyRangeSet, RingEpoch
from repro.rebalance.migrator import RebalanceState, _OutgoingSession
from repro.service.protocol import Opcode

u64 = st.integers(min_value=0, max_value=MASK64)


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def key_at(position: int) -> int:
    """The wire key whose ring position is exactly ``position``
    (SplitMix64 is a bijection, so this inverts it)."""
    x = _unxorshift(position, 31)
    x = (x * pow(_SM_MUL2, -1, 2**64)) & MASK64
    x = _unxorshift(x, 27)
    x = (x * pow(_SM_MUL1, -1, 2**64)) & MASK64
    x = _unxorshift(x, 30)
    return ((x - _SM_GAMMA) & MASK64) ^ RING_SEED


def make_epoch(n_groups: int, vnodes: int, version: int = 1) -> RingEpoch:
    groups = tuple(
        ShardGroup(f"g{i}", NodeAddress("127.0.0.1", 7800 + i))
        for i in range(n_groups)
    )
    return RingEpoch(version=version, vnodes=vnodes, groups=groups)


def edge_keys(ring: HashRing) -> list[int]:
    """Keys on every vnode point, one either side of it, and at the
    ring's two ends (the wrap arc)."""
    positions = {0, MASK64}
    for point in ring.points():
        positions.update({point, (point - 1) & MASK64, (point + 1) & MASK64})
    return [key_at(position) for position in sorted(positions)]


rings = st.builds(
    lambda n, vnodes: make_epoch(n, vnodes),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=16),
)


class TestPositions:
    @given(keys=st.lists(u64, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_column_rule_equals_hash_key_bit_for_bit(self, keys):
        column = np.array(keys, dtype=np.uint64)
        assert ring_positions(column).tolist() == [hash_key(k) for k in keys]

    @given(position=u64)
    def test_key_at_inverts_the_rule(self, position):
        assert hash_key(key_at(position)) == position

    def test_the_seed_is_not_a_filter_seed(self):
        # A filter's seeds come from derive_seeds(seed, ...); the ring
        # must not share one, or a group's keys would follow that
        # filter's hash.
        for seed in range(64):
            filt = build_filter(
                FilterSpec(
                    variant="MPCBF-2",
                    memory_bits=64 * 64,
                    k=4,
                    capacity=100,
                    seed=seed,
                )
            )
            assert RING_SEED not in filt.family.seed_row.tolist()


class TestAgreement:
    @given(epoch=rings, keys=st.lists(u64, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_partition_agrees_with_owner_at(self, epoch, keys):
        ring = epoch.ring()
        column = np.array(keys + edge_keys(ring), dtype=np.uint64)
        parts = ring.partition(column)
        owner = {}
        for name, where in parts.items():
            for index in where.tolist():
                owner[index] = name
        assert sorted(owner) == list(range(len(column)))
        for index, key in enumerate(column.tolist()):
            assert owner[index] == ring.owner_at(hash_key(key))
            assert ring.lookup(key).name == owner[index]

    @given(
        epoch=rings,
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
        keys=st.lists(u64, max_size=32),
    )
    @settings(max_examples=60, deadline=None)
    def test_select_agrees_with_contains(self, epoch, picks, keys):
        points = epoch.ring().points()
        # Arcs between vnode points, wrapping ones included.
        ranges = KeyRangeSet(
            KeyRange(
                start=points[p % len(points)],
                end=points[(p * 7 + 3) % len(points)],
            )
            for p in picks
        )
        column = np.array(keys + edge_keys(epoch.ring()), dtype=np.uint64)
        expected = [k for k in column.tolist() if ranges.contains(hash_key(k))]
        assert ranges.select(column).tolist() == expected

    @given(epoch=rings, keys=st.lists(u64, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_gate_agrees_with_owner_at_and_contains(self, epoch, keys):
        ring = epoch.ring()
        group = ring.names[0]
        state = RebalanceState(None, group=group)
        state.epoch = epoch
        owned = [k for k in edge_keys(ring) if ring.lookup(k).name == group]
        points = ring.points()
        fenced = KeyRangeSet([KeyRange(points[0], points[len(points) // 2])])
        state._outgoing["p"] = _OutgoingSession(
            plan="p", ranges=fenced, fenced=True
        )
        for column in ([*keys, *owned[:2]], owned):
            positions = [hash_key(k) for k in column]
            moved = any(ring.owner_at(p) != group for p in positions)
            in_fence = any(fenced.contains(p) for p in positions)
            array = np.array(column, dtype=np.uint64)
            if moved:
                with pytest.raises(MovedError):
                    state.gate(Opcode.BULK64_QUERY, array)
            else:
                state.gate(Opcode.BULK64_QUERY, array)
            if moved:
                with pytest.raises(MovedError):
                    state.gate(Opcode.BULK64_INSERT, array)
            elif in_fence:
                with pytest.raises(WrongEpochError):
                    state.gate(Opcode.BULK64_INSERT, array)
            else:
                state.gate(Opcode.BULK64_INSERT, array)


class TestIndependenceFromTheFilter:
    """A group's keys must spread evenly over that group's filter words.

    A placement that followed the filter's word index would pile each
    group's keys onto a slice of its words.  Binned per 16 words, the
    counts of one group's keys must pass a chi-square test of
    uniformity at the 0.999 quantile.  The control shows the test has
    the power to see such a placement.
    """

    BINS = 512

    def chi_square(self, words: np.ndarray, num_words: int) -> float:
        counts = np.bincount(words * self.BINS // num_words, minlength=self.BINS)
        return float(stats.chisquare(counts).statistic)

    def test_group_keys_spread_over_the_filter_words(self):
        filt = build_filter(
            FilterSpec(
                variant="MPCBF-1",
                memory_bits=64 * 8192,
                k=3,
                capacity=6000,
                seed=33,
            )
        )
        family = filt.family
        keys = np.random.default_rng(7).integers(
            0, 2**64, 120_000, dtype=np.uint64, endpoint=False
        )
        words = family.locate_array(keys)[0][:, 0]
        ring = make_epoch(3, 64).ring()
        bound = stats.chi2.ppf(0.999, self.BINS - 1)
        owners = ring.owner_indices(ring_positions(keys))
        for owner in range(3):
            mine = words[owners == owner]
            assert self.chi_square(mine, family.num_words) < bound
        # Control: a placement that is a function of the word index.
        aligned = words.astype(np.uint64) * np.uint64(2**64 // family.num_words)
        owners = ring.owner_indices(aligned)
        mine = words[owners == 0]
        assert self.chi_square(mine, family.num_words) > 10 * bound
