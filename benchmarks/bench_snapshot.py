"""Snapshot dump/load time of a served MPCBF bank.

A snapshot runs on the daemon's batcher thread, so every request waits
behind it.  The bank here has the end-to-end benchmark's geometry
(``perfbench/run.py``): MPCBF-2, k=3, two shards of 2 Mb (32,768
64-bit words each, b1 = 40) holding 100 K members.  The MPCBF payload
is the counter matrix, written and read as one array, so a dump or a
load costs milliseconds; a per-word encoding of the same state took
over a second each way on a 2-vCPU container.  The floors below fail a
return to per-word serialisation without being sensitive to host noise.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_snapshot.py -q``
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.filters.factory import FilterSpec
from repro.parallel.sharded import ShardedFilterBank
from repro.serialize import dump_bank
from repro.service.snapshot import load_snapshot_bytes, snapshot_bytes

#: Seconds per snapshot_bytes / load_snapshot_bytes call.
DUMP_FLOOR_S = 0.25
LOAD_FLOOR_S = 0.5
ROUNDS = 3


@pytest.fixture(scope="module")
def bank():
    bank = ShardedFilterBank(
        FilterSpec(
            variant="MPCBF-2",
            memory_bits=256 * 8192,
            k=3,
            word_bits=64,
            capacity=100_000,
            extra={"word_overflow": "saturate"},
        ),
        2,
    )
    rng = np.random.default_rng(7)
    bank.insert_many(rng.integers(1, 2**63, size=100_000, dtype=np.uint64))
    return bank


def _best_of(fn) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - started)
    return best, out


def test_snapshot_dump_and_load_floors(bank):
    shard = bank.shards[0]
    assert (shard.num_words, shard.first_level_bits) == (32_768, 40)
    dump_s, blob = _best_of(lambda: snapshot_bytes(bank, wal_seq=1))
    load_s, (restored, wal_seq) = _best_of(lambda: load_snapshot_bytes(blob))
    print(
        f"\nsnapshot of 2 x 32768 words: {len(blob) / 1e6:.2f} MB, "
        f"dump {dump_s * 1e3:.1f} ms, load {load_s * 1e3:.1f} ms"
    )
    assert dump_bank(restored) == dump_bank(bank)
    assert wal_seq == 1
    assert dump_s < DUMP_FLOOR_S, f"dump took {dump_s:.3f} s"
    assert load_s < LOAD_FLOOR_S, f"load took {load_s:.3f} s"
