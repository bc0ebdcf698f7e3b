"""Property tests for move minimality under single-node joins.

The consistent-hashing promise the rebalance subsystem leans on: when
one group joins an N-group ring, the only ownership changes are arcs
captured *by the newcomer*.  Survivors never trade arcs among
themselves, so a join migrates roughly ``1/(N+1)`` of the keyspace and
never more sessions than the newcomer has vnode points.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import NodeAddress, ShardGroup
from repro.rebalance.epochs import (
    KeyRangeSet,
    RingEpoch,
    compute_moves,
    hash_key,
)

VNODES = 64


def make_group(name: str, port: int) -> ShardGroup:
    return ShardGroup(
        name=name, primary=NodeAddress("127.0.0.1", port), replicas=()
    )


def make_epoch(n_groups: int, salt: int) -> RingEpoch:
    groups = tuple(
        make_group(f"grp{salt}-{i}", 7800 + i) for i in range(n_groups)
    )
    return RingEpoch(version=1, vnodes=VNODES, groups=groups)


@given(n=st.integers(min_value=1, max_value=8), salt=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_join_reassigns_at_most_the_newcomers_vnodes(n: int, salt: int):
    old = make_epoch(n, salt)
    newcomer = make_group(f"new{salt}", 7990)
    moves = compute_moves(old, old.with_group(newcomer))
    # One union arc per captured newcomer point, at most: vnodes/N of
    # each survivor's share heads to the newcomer and nothing else
    # moves, so the count is bounded by the newcomer's point count
    # (the paper-side analogue: adding a partition never reshuffles
    # the surviving partitions among themselves).
    assert len(moves) <= VNODES
    assert moves, "a newcomer always captures at least one arc"


@given(n=st.integers(min_value=1, max_value=8), salt=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_join_never_swaps_ownership_between_survivors(n: int, salt: int):
    old = make_epoch(n, salt)
    newcomer = make_group(f"new{salt}", 7990)
    new = old.with_group(newcomer)
    for move in compute_moves(old, new):
        assert move.dst == newcomer.name
        assert move.src != newcomer.name
        assert move.src in old.group_names()


@given(
    n=st.integers(min_value=1, max_value=6),
    salt=st.integers(0, 1000),
    keys=st.lists(st.integers(0, 2**64 - 1), max_size=64),
)
@settings(max_examples=40, deadline=None)
def test_key_ownership_changes_exactly_on_the_moved_arcs(n, salt, keys):
    old = make_epoch(n, salt)
    newcomer = make_group(f"new{salt}", 7990)
    new = old.with_group(newcomer)
    moved = KeyRangeSet(m.range for m in compute_moves(old, new))
    old_ring, new_ring = old.ring(), new.ring()
    for key in keys:
        pos = hash_key(key)
        if moved.contains(pos):
            assert new_ring.owner_at(pos) == newcomer.name
        else:
            assert new_ring.owner_at(pos) == old_ring.owner_at(pos)


@given(n=st.integers(min_value=2, max_value=8), salt=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_join_moves_a_fair_share_of_the_keyspace(n: int, salt: int):
    """The moved span is ~1/(n+1) of the ring — bounded, not tiny."""
    old = make_epoch(n, salt)
    new = old.with_group(make_group(f"new{salt}", 7990))
    moved = KeyRangeSet(m.range for m in compute_moves(old, new))
    fraction = moved.span() / 2**64
    expected = 1.0 / (n + 1)
    # Wide tolerance: 64 vnodes gives a noisy but centred estimate.
    assert fraction < min(1.0, 4.0 * expected)
    assert fraction > expected / 6.0
