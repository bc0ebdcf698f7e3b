"""The arena bank against per-shard dispatch.

A :class:`ShardedFilterBank` of columnar-kernel MPCBF shards runs every
bulk call as one kernel call over its stacked arena.  The oracle is the
same bank (same spec, so ``dump_bank`` headers match) with every shard
swapped for its scalar-kernel twin: the arena cannot hold those, so the
oracle keeps routing each shard's chunk through that shard's own bulk
path.

After every operation the two must agree on ``dump_bank`` bytes,
per-shard ``AccessStats`` (integer fields exactly, ``hash_bits`` to
``rel_tol=1e-9``), per-shard ``overflow_events``/``skipped_deletes``,
answers, and the raised error (type and args, so a
:class:`~repro.errors.WordOverflowError` names a shard-local word).  On
an error, the shards after the failing one must be untouched: inline
dispatch stops at the first failing shard chunk.

The aliasing tests pin that the shards really are views of the arena,
also after ``load_bank`` and after a process pool came and went.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel.sharded as sharded_mod
from repro.errors import ReproError
from repro.filters.factory import FilterSpec
from repro.memmodel.accounting import OpKind
from repro.parallel.sharded import ShardedFilterBank
from repro.serialize import dump_bank, dump_filter, load_bank, load_filter


def _keys(ids) -> np.ndarray:
    return (
        np.asarray(ids, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + np.uint64(7)
    )


def _spec(policy: str, num_words: int, k: int, g: int, n_max: int, seed: int):
    return FilterSpec(
        variant=f"MPCBF-{g}",
        memory_bits=num_words * 64,
        k=k,
        word_bits=64,
        n_max=n_max,
        seed=seed,
        extra={"word_overflow": policy},
    )


def _pair(spec: FilterSpec, shards: int, **kwargs):
    bank = ShardedFilterBank(spec, shards, **kwargs)
    oracle = ShardedFilterBank(spec, shards)
    oracle.set_shards([shard.to_scalar() for shard in oracle.shards])
    assert bank._stacked is not None
    assert oracle._stacked is None
    return bank, oracle


def _stat_fields(shard) -> list:
    return [
        (
            shard.stats.for_kind(kind).operations,
            shard.stats.for_kind(kind).word_accesses,
            shard.stats.for_kind(kind).hash_calls,
            shard.stats.for_kind(kind).hash_bits,
        )
        for kind in OpKind
    ]


def _assert_shard_equal(a, b) -> None:
    for sa, sb in zip(_stat_fields(a), _stat_fields(b)):
        assert sa[:3] == sb[:3]
        assert math.isclose(sa[3], sb[3], rel_tol=1e-9, abs_tol=1e-6), (sa, sb)
    assert a.overflow_events == b.overflow_events
    assert a.skipped_deletes == b.skipped_deletes


def _assert_banks_equal(bank, oracle) -> None:
    if (bank.executor, bank.max_workers) == (oracle.executor, oracle.max_workers):
        assert dump_bank(bank) == dump_bank(oracle)
    else:  # the header records the execution mode; compare the shards
        assert [dump_filter(s) for s in bank.shards] == [
            dump_filter(s) for s in oracle.shards
        ]
    for a, b in zip(bank.shards, oracle.shards):
        _assert_shard_equal(a, b)


def _failing_shard(bank, shard_copies, opname: str, keys: np.ndarray) -> int:
    """The first shard whose own chunk of ``keys`` raises, in shard order."""
    routes = bank._route_array(keys)
    for index, shard in enumerate(shard_copies):
        chunk = keys[routes == index]
        if len(chunk) == 0:
            continue
        try:
            getattr(shard, opname)(chunk)
        except ReproError:
            return index
    raise AssertionError("no shard chunk fails on its own")


def _apply_both(bank, oracle, opname: str, keys) -> None:
    """Run one op on both banks and compare.

    ``keys`` is a ``uint64`` column for a bank bulk op, or one encoded
    key for a shard-level ``insert``/``delete`` on the key's shard.
    """
    bulk = isinstance(keys, np.ndarray)
    before = [
        (dump_filter(s), _stat_fields(s), s.overflow_events, s.skipped_deletes)
        for s in bank.shards
    ]
    copies = [load_filter(dump_filter(s)) for s in oracle.shards] if bulk else None
    owner = None if bulk else int(bank._route_array(np.array([keys], np.uint64))[0])
    outcomes = []
    for target in (bank, oracle):
        try:
            if bulk:
                result = getattr(target, opname)(keys)
            else:
                result = getattr(target.shards[owner], f"{opname}_encoded")(keys)
            outcomes.append((result, None))
        except ReproError as exc:
            outcomes.append((None, exc))
    (r1, e1), (r2, e2) = outcomes
    assert type(e1) is type(e2), (e1, e2)
    if e1 is not None:
        assert e1.args == e2.args
        failing = _failing_shard(bank, copies, opname, keys) if bulk else owner
        for index in range(failing + 1, bank.num_shards):
            shard = bank.shards[index]
            assert (
                dump_filter(shard),
                _stat_fields(shard),
                shard.overflow_events,
                shard.skipped_deletes,
            ) == before[index], f"shard {index} after failing shard {failing}"
    elif r1 is not None:
        assert np.array_equal(r1, r2)
    _assert_banks_equal(bank, oracle)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert_many", "insert_many", "delete_many", "query_many",
             "count_many", "insert", "delete"]
        ),
        st.lists(st.integers(0, 59), min_size=1, max_size=32),
    ),
    min_size=1,
    max_size=10,
)

_GEOMETRY = st.tuples(
    st.integers(2, 4),            # shards
    st.sampled_from([4, 8]),      # words per shard
    st.integers(2, 4),            # k
    st.integers(1, 2),            # g
    st.integers(2, 5),            # n_max
    st.integers(0, 5),            # seed
)


def _run(policy: str, geometry, ops) -> None:
    shards, num_words, k, g, n_max, seed = geometry
    bank, oracle = _pair(_spec(policy, num_words, k, g, n_max, seed), shards)
    probes = _keys(range(60))
    for opname, ids in ops:
        keys = _keys(ids)
        if opname in ("insert", "delete"):
            # Shard-level scalar calls write through the arena views.
            for key in keys.tolist():
                _apply_both(bank, oracle, opname, key)
        else:
            _apply_both(bank, oracle, opname, keys)
        assert np.array_equal(bank.query_many(probes), oracle.query_many(probes))
        _assert_banks_equal(bank, oracle)
    bank._stacked.check_invariants()
    for shard in bank.shards:
        shard.check_invariants()


class TestArenaDifferential:
    @settings(max_examples=80, deadline=None)
    @given(_GEOMETRY, _OPS)
    def test_saturate_policy(self, geometry, ops):
        _run("saturate", geometry, ops)

    @settings(max_examples=80, deadline=None)
    @given(_GEOMETRY, _OPS)
    def test_raise_policy(self, geometry, ops):
        _run("raise", geometry, ops)


def _loaded_pair(executor: str = "thread"):
    spec = FilterSpec(
        variant="MPCBF-2",
        memory_bits=64 * 256,
        k=3,
        word_bits=64,
        capacity=3000,
        seed=5,
        extra={"word_overflow": "saturate"},
    )
    bank, oracle = _pair(spec, 3, max_workers=2, executor=executor)
    members = _keys(range(1000))
    bank.insert_many(members)
    oracle.insert_many(members)
    return bank, oracle


def _assert_shard_insert_visible(bank, oracle) -> None:
    for shard in bank.shards:
        assert np.shares_memory(shard.columns.counts, bank._stacked.counts)
        assert np.shares_memory(shard.columns.mirror, bank._stacked.mirror)
    probes = [b"alias-%d" % i for i in range(40)]
    before = bank.count_many(probes)
    for key in probes:
        index = bank.shard_of(key)
        bank.shards[index].insert(key)
        oracle.shards[index].insert(key)
    assert bank.query_many(probes).all()
    assert oracle.query_many(probes).all()
    assert np.array_equal(bank.count_many(probes), before + 1)
    _assert_banks_equal(bank, oracle)
    fresh = _keys(range(6000, 6300))
    for opname, keys in (
        ("insert_many", fresh),
        ("delete_many", _keys(range(500))),
        ("query_many", _keys(range(7000))),
    ):
        _apply_both(bank, oracle, opname, keys)


class TestArenaAliasing:
    def test_shards_view_the_arena_after_load_bank(self):
        bank, oracle = _loaded_pair()
        loaded = load_bank(dump_bank(bank))
        oracle.reset_stats()  # statistics are not part of a snapshot
        assert loaded._stacked is not None
        _assert_banks_equal(loaded, oracle)
        _assert_shard_insert_visible(loaded, oracle)

    def test_shards_view_the_arena_after_process_pool(self, monkeypatch):
        monkeypatch.setattr(sharded_mod, "PROCESS_MIN_BATCH", 64)
        bank, oracle = _loaded_pair("process")
        assert bank._pool is not None
        assert len(bank._arena.meta) == len(bank._stacked.shareable_arrays())
        bank.close()
        assert bank._arena is None
        monkeypatch.setattr(sharded_mod, "PROCESS_MIN_BATCH", 10**9)
        _assert_shard_insert_visible(bank, oracle)

    def test_one_locate_and_one_kernel_call_per_op(self, monkeypatch):
        bank, _ = _loaded_pair()
        calls = []
        family_cls = type(bank._family)
        locate = family_cls.locate_array
        monkeypatch.setattr(
            family_cls,
            "locate_array",
            lambda self, *a, **kw: calls.append("locate") or locate(self, *a, **kw),
        )
        for name in ("bulk_insert", "bulk_delete", "bulk_query", "bulk_count"):
            fn = getattr(type(bank._stacked), name)
            monkeypatch.setattr(
                type(bank._stacked),
                name,
                lambda self, *a, _fn=fn, _name=name, **kw: (
                    calls.append(_name) or _fn(self, *a, **kw)
                ),
            )
        keys = _keys(range(9000, 9256))
        bank.insert_many(keys)
        bank.query_many(keys)
        bank.count_many(keys)
        bank.delete_many(keys)
        assert calls == [
            "locate", "bulk_insert", "locate", "bulk_query",
            "locate", "bulk_count", "locate", "bulk_delete",
        ]


def test_non_arena_shards_keep_per_shard_dispatch():
    spec = FilterSpec(variant="CBF", memory_bits=4096, k=3, seed=2)
    bank = ShardedFilterBank(spec, 3)
    assert bank._stacked is None
    keys = _keys(range(200))
    bank.insert_many(keys)
    assert bank.query_many(keys).all()


@pytest.mark.parametrize("policy", ["raise", "saturate"])
def test_overflow_error_names_a_shard_local_word(policy):
    bank, oracle = _pair(_spec(policy, 4, 3, 2, 2, 1), 3)
    keys = _keys(range(200))
    _apply_both(bank, oracle, "insert_many", keys)
    if policy == "saturate":
        assert sum(s.overflow_events for s in bank.shards) > 0
