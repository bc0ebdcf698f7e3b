"""Hypothesis differential suite: columnar kernels vs the scalar oracle.

Every example drives the same randomized operation interleaving through
a columnar-kernel MPCBF and its scalar twin, comparing after *every*
operation: membership and counts (bulk and per-key probes), counters,
the packed mirror, saturation overlays, overflow/skip counters, stored
hierarchy bits, the raised error (type and args), and the recorded
``AccessStats``.  Integer stat fields must match exactly; ``hash_bits``
approximately (the two backends sum identical log2 terms in different
orders and through ``math.log2`` vs a ``np.log2`` table, so the totals
agree to ulps).

The op mix deliberately includes deletes of absent keys (underflow
mid-batch), repeated keys in one batch (deep counters, demand
aggregation), tiny words under load (saturation and raising overflow),
and cross-kernel merges.  Well over 200 examples run across the suite.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.filters.mpcbf import MPCBF
from repro.memmodel.accounting import OpKind
from repro.serialize import dump_filter


def _keys(ids) -> np.ndarray:
    # Spread small ids across the hash space so geometry stays generic.
    return (
        np.asarray(ids, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + np.uint64(1)
    )


def _assert_stats_equal(col: MPCBF, sca: MPCBF) -> None:
    for kind in OpKind:
        s1 = col.stats.for_kind(kind)
        s2 = sca.stats.for_kind(kind)
        assert s1.operations == s2.operations, kind
        assert s1.word_accesses == s2.word_accesses, kind
        assert s1.hash_calls == s2.hash_calls, kind
        assert math.isclose(
            s1.hash_bits, s2.hash_bits, rel_tol=1e-9, abs_tol=1e-6
        ), (kind, s1.hash_bits, s2.hash_bits)


def _assert_state_equal(col: MPCBF, sca: MPCBF) -> None:
    assert np.array_equal(col._mirror, sca._mirror)
    assert col._saturated == sca._saturated
    assert col.overflow_events == sca.overflow_events
    assert col.skipped_deletes == sca.skipped_deletes
    assert col.stored_hash_bits == sca.stored_hash_bits
    assert np.array_equal(col.counts_matrix(), sca.counts_matrix())
    assert dump_filter(col) == dump_filter(sca)
    _assert_stats_equal(col, sca)


def _apply_both(col: MPCBF, sca: MPCBF, fn) -> None:
    """Run ``fn`` against both backends; errors must match exactly."""
    errors = []
    for filt in (col, sca):
        try:
            fn(filt)
            errors.append(None)
        except ReproError as exc:
            errors.append(exc)
    e1, e2 = errors
    assert type(e1) is type(e2), (e1, e2)
    if e1 is not None:
        assert e1.args == e2.args
    _assert_state_equal(col, sca)


def _run_interleaving(col: MPCBF, sca: MPCBF, ops) -> None:
    probes = _keys(range(40))
    for verb, ids in ops:
        batch = _keys(ids)
        if verb == "insert":
            if len(ids) == 1:
                _apply_both(col, sca, lambda f: f.insert_encoded(int(batch[0])))
            else:
                _apply_both(col, sca, lambda f: f.insert_many(batch))
        else:
            if len(ids) == 1:
                _apply_both(col, sca, lambda f: f.delete_encoded(int(batch[0])))
            else:
                _apply_both(col, sca, lambda f: f.delete_many(batch))
        assert np.array_equal(col.query_many(probes), sca.query_many(probes))
        assert np.array_equal(col.count_many(probes), sca.count_many(probes))
        # The per-key probes run each engine's own per-key routines.
        for probe in probes.tolist():
            assert col.query_encoded(probe) == sca.query_encoded(probe)
            assert col.count_encoded(probe) == sca.count_encoded(probe)
        _assert_stats_equal(col, sca)
    col.check_invariants()
    sca.check_invariants()
    # Byte-identical serialisation across backends (snapshot contract).
    assert dump_filter(col) == dump_filter(sca)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "delete"]),
        st.lists(st.integers(0, 39), min_size=1, max_size=24),
    ),
    min_size=1,
    max_size=8,
)

_GEOMETRY = st.tuples(
    st.sampled_from([4, 8]),      # num_words
    st.integers(2, 4),            # k
    st.integers(1, 2),            # g
    st.integers(3, 6),            # n_max
    st.integers(0, 5),            # seed
)


class TestRandomInterleavings:
    @settings(max_examples=100, deadline=None)
    @given(_GEOMETRY, _OPS)
    def test_saturate_policy(self, geometry, ops):
        num_words, k, g, n_max, seed = geometry
        make = lambda kernel: MPCBF(
            num_words, 64, k, g=g, n_max=n_max, seed=seed,
            word_overflow="saturate", kernel=kernel,
        )
        _run_interleaving(make("columnar"), make("scalar"), ops)

    @settings(max_examples=60, deadline=None)
    @given(_GEOMETRY, _OPS)
    def test_raise_policy(self, geometry, ops):
        num_words, k, g, n_max, seed = geometry
        make = lambda kernel: MPCBF(
            num_words, 64, k, g=g, n_max=n_max, seed=seed,
            word_overflow="raise", kernel=kernel,
        )
        _run_interleaving(make("columnar"), make("scalar"), ops)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 5), _OPS)
    def test_multi_limb_first_level(self, seed, ops):
        # b1 > 64 exercises the multi-limb mirror/overlay paths.
        make = lambda kernel: MPCBF(
            4, 256, 4, g=2, n_max=10, seed=seed,
            word_overflow="saturate", kernel=kernel,
        )
        col, sca = make("columnar"), make("scalar")
        assert col.first_level_bits > 64
        _run_interleaving(col, sca, ops)


class TestMergeDifferential:
    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(["saturate", "raise"]),
        st.integers(0, 5),
        st.lists(st.integers(0, 39), min_size=0, max_size=40),
        st.lists(st.integers(0, 39), min_size=0, max_size=40),
    )
    def test_merge_matches_scalar(self, policy, seed, ids_a, ids_b):
        def build(kernel, ids):
            filt = MPCBF(
                8, 64, 3, g=1, n_max=5, seed=seed,
                word_overflow="saturate", kernel=kernel,
            )
            filt.insert_many(_keys(ids)) if ids else None
            filt.word_overflow = policy  # merge under the tested policy
            return filt

        col_a, col_b = build("columnar", ids_a), build("columnar", ids_b)
        sca_a, sca_b = build("scalar", ids_a), build("scalar", ids_b)
        _assert_state_equal(col_a, sca_a)
        _apply_both(col_a, sca_a, lambda f: f.merge(col_b if f is col_a else sca_b))
        probes = _keys(range(40))
        assert np.array_equal(col_a.query_many(probes), sca_a.query_many(probes))
        assert np.array_equal(col_a.count_many(probes), sca_a.count_many(probes))
        if policy == "saturate":
            col_a.check_invariants()
            sca_a.check_invariants()

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 5),
        st.lists(st.integers(0, 39), min_size=1, max_size=30),
        st.lists(st.integers(0, 39), min_size=1, max_size=30),
    )
    def test_cross_kernel_merge(self, seed, ids_a, ids_b):
        # A columnar filter merging a *scalar* other (and vice versa)
        # must land on the same state as same-kernel merges.
        def build(kernel, ids):
            filt = MPCBF(
                8, 64, 3, g=1, n_max=5, seed=seed,
                word_overflow="saturate", kernel=kernel,
            )
            filt.insert_many(_keys(ids))
            return filt

        col = build("columnar", ids_a)
        col.merge(build("scalar", ids_b))
        sca = build("scalar", ids_a)
        sca.merge(build("columnar", ids_b))
        assert np.array_equal(col._mirror, sca._mirror)
        assert col._saturated == sca._saturated
        assert np.array_equal(col.counts_matrix(), sca.counts_matrix())
        assert dump_filter(col) == dump_filter(sca)
        assert col.overflow_events == sca.overflow_events


class TestConversions:
    @settings(max_examples=30, deadline=None)
    @given(_GEOMETRY, st.lists(st.integers(0, 39), min_size=0, max_size=50))
    def test_round_trip_preserves_everything(self, geometry, ids):
        num_words, k, g, n_max, seed = geometry
        col = MPCBF(
            num_words, 64, k, g=g, n_max=n_max, seed=seed,
            word_overflow="saturate",
        )
        if ids:
            col.insert_many(_keys(ids))
        sca = col.to_scalar()
        assert sca.columns is None
        _assert_state_equal(col, sca)
        back = MPCBF.from_scalar(sca)
        assert back.columns is not None
        _assert_state_equal(back, sca)
        back.check_invariants()
        assert dump_filter(col) == dump_filter(sca) == dump_filter(back)


@pytest.mark.parametrize("kernel", ["columnar", "scalar"])
def test_kernel_constructor_validation(kernel):
    filt = MPCBF(4, 64, 3, n_max=4, kernel=kernel)
    assert filt.kernel == kernel
    with pytest.raises(Exception):
        MPCBF(4, 64, 3, n_max=4, kernel="simd")
