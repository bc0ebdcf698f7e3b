"""Per-layer ledger from one traced pass.

Only spans that start inside the timed window count.  A layer's self
time is its span time minus its child spans.  Work done once per
coalesced batch on the worker thread (``FilterExecutor.apply`` and the
locate / kernel / WAL spans under it) is charged in full to every
request of that batch, because each of them waited for all of it; the
coalescer's share of a request is its ``MicroBatcher.submit`` time minus
the ``apply`` of its batch.  What the layers leave of the client's mean
latency is the ``unattributed`` row.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from tracing import SPAN_FIELDS, load_spans

#: (ledger row, span names, runs once per coalesced batch) in request order.
ROWS = [
    ("hashing.encode", ["hashing.encode"], False),
    ("protocol.decode", ["protocol.frame", "protocol.decode"], False),
    ("admission", ["admission.admit"], False),
    ("batching.coalesce_wait", [], False),
    ("executor.apply", ["executor.apply"], True),
    ("hashing.locate", ["hashing.locate"], True),
    ("kernel", ["kernel.query", "kernel.insert", "kernel.delete", "kernel.count"], True),
    ("wal.append", ["wal.append"], True),
    ("wal.sync", ["wal.sync"], True),
    ("replication.commit_wait", ["replication.commit_wait"], False),
    ("protocol.reply", ["protocol.reply"], False),
]

#: Every per-layer metric and its unit, as listed in BENCHMARK.json.
UNITS = {
    "hashing.encode_us_per_key": "us",
    "protocol.decode_us_per_req": "us",
    "protocol.wire_bytes_per_key": "B",
    "admission.admit_us_per_req": "us",
    "admission.shed_ratio": "ratio",
    "batching.coalesce_wait_us": "us",
    "batching.requests_per_dispatch": "count",
    "batching.keys_per_dispatch": "count",
    "executor.apply_us_per_key": "us",
    "hashing.locate_us_per_key": "us",
    "kernel.query_us_per_key": "us",
    "kernel.insert_us_per_key": "us",
    "kernel.delete_us_per_key": "us",
    "kernel.saturated_words": "count",
    "memmodel.word_accesses_per_query": "count",
    "memmodel.word_accesses_per_update": "count",
    "memmodel.hash_bits_per_key": "bit",
    "wal.append_us_per_req": "us",
    "wal.sync_us": "us",
    "wal.syncs_per_req": "count",
    "wal.bytes_per_key": "B",
    "replication.commit_wait_us": "us",
    "snapshot.save_s": "s",
    "snapshot.count": "count",
    "snapshot.stall_ms": "ms",
    "unattributed_us_per_req": "us",
}


class Spans:
    """Columns of one process's spans, restricted to the timed window."""

    def __init__(self, raw: dict, t_start: float, t_end: float) -> None:
        keep = np.flatnonzero((raw["t0"] >= t_start) & (raw["t0"] < t_end))
        keep = keep[np.argsort(raw["sid"][keep])]
        self.names = raw["names"]
        self.meta = raw["meta"]
        for field in SPAN_FIELDS:
            setattr(self, field, raw[field][keep])
        self.dur = self.t1 - self.t0
        # Self time: subtract each span's duration from its parent's.
        self.index_of_parent = np.searchsorted(self.sid, self.parent)
        has_parent = (self.parent != 0) & (
            self.index_of_parent < len(self.sid)
        )
        has_parent[has_parent] = self.sid[self.index_of_parent[has_parent]] == (
            self.parent[has_parent]
        )
        self.has_parent = has_parent
        child = np.zeros(len(self.sid))
        np.add.at(child, self.index_of_parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # Root of every span: follow parents until none is left.
        root = np.arange(len(self.sid))
        linked = has_parent.copy()
        while linked.any():
            root[linked] = self.index_of_parent[root[linked]]
            linked = self.has_parent[root]
        self.root = root

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def analyse(result: dict, artefact: Path) -> dict:
    """Per-layer metrics of a traced pass; writes the raw spans to ``artefact``."""
    t_start, t_end = result["t_start"], result["t_end"]
    primary_file = result["daemons"][0].spans
    artefact.mkdir(parents=True, exist_ok=True)
    for daemon in result["daemons"]:
        shutil.copy(daemon.spans, artefact / daemon.spans.name)
    result["client_tracer"].dump(artefact / "spans-client.npz")
    srv = Spans(load_spans(primary_file), t_start, t_end)
    cli = Spans(load_spans(artefact / "spans-client.npz"), t_start, t_end)
    window = result["window"]
    n_req = len(window)
    keys = float(window["n"].sum())
    lat_us = float(np.mean(window["t1"] - window["t0"])) * 1e6

    def total(spans, *names, field="dur"):
        return float(getattr(spans, field)[spans.mask(*names)].sum())

    def count(spans, *names):
        return int(spans.mask(*names).sum())

    def keys_of(spans, *names):
        return float(spans.n[spans.mask(*names)].sum())

    # Pair each submit with the apply that ran its batch: the last apply
    # to finish no later than the submit did.
    applies = np.flatnonzero(srv.mask("executor.apply"))
    applies = applies[np.argsort(srv.t1[applies])]
    submits = np.flatnonzero(srv.mask("batching.submit"))
    pick = np.searchsorted(srv.t1[applies], srv.t1[submits], side="right") - 1
    matched = pick >= 0
    batch_of = applies[pick[matched]]
    coalesce = srv.dur[submits[matched]] - srv.dur[batch_of]
    weight = np.zeros(len(srv.sid))
    np.add.at(weight, batch_of, 1.0)

    rows = []
    attributed = 0.0
    for row, names, per_batch in ROWS:
        spans = cli if row == "hashing.encode" else srv
        m = spans.mask(*names) if names else np.zeros(len(spans.sid), bool)
        if row == "batching.coalesce_wait":
            busy = float(srv.dur[submits].sum())
            own = float(coalesce.sum())
            per_req = own / n_req if n_req else 0.0
            calls = len(submits)
        else:
            busy = float(spans.dur[m].sum())
            own = float(spans.self_time[m].sum())
            calls = int(m.sum())
            if per_batch:
                # Every request of the batch waited for all of it.
                charged = float((spans.self_time[m] * weight[spans.root[m]]).sum())
            else:
                charged = own
            per_req = charged / n_req if n_req else 0.0
        attributed += per_req
        rows.append((row, calls, busy * 1e3, own * 1e3, per_req * 1e6))
    rows.append(("unattributed", n_req, 0.0, 0.0, lat_us - attributed * 1e6))

    before, after = result["access"]
    sweep_queries = after["query"][0] - before["query"][0]
    snaps = np.flatnonzero(srv.mask("snapshot.save"))
    stalls = []
    for i in snaps:
        inflight = window[(window["t0"] < srv.t1[i]) & (window["t1"] > srv.t0[i])]
        if len(inflight):
            stalls.append(float((inflight["t1"] - inflight["t0"]).max()) * 1e3)
    sync = srv.mask("wal.sync") & (srv.aux > 0)
    kernel = {
        op: _ratio(total(srv, f"kernel.{op}", field="self_time"),
                   keys_of(srv, f"kernel.{op}")) * 1e6
        for op in ("query", "insert", "delete")
    }
    metrics = {
        "hashing.encode_us_per_key":
            _ratio(total(cli, "hashing.encode"), keys_of(cli, "hashing.encode")) * 1e6,
        "protocol.decode_us_per_req":
            _ratio(total(srv, "protocol.frame", "protocol.decode"),
                   count(srv, "protocol.decode")) * 1e6,
        "protocol.wire_bytes_per_key":
            _ratio(float(cli.aux[cli.mask("client.frame_out", "client.frame_in")].sum()),
                   keys),
        "admission.admit_us_per_req":
            _ratio(total(srv, "admission.admit"), count(srv, "admission.admit")) * 1e6,
        "admission.shed_ratio":
            _ratio(float((srv.mask("admission.admit") & ~srv.ok).sum()),
                   count(srv, "admission.admit")),
        "batching.coalesce_wait_us": _ratio(float(coalesce.sum()), len(coalesce)) * 1e6,
        "batching.requests_per_dispatch": _ratio(len(submits), len(applies)),
        "batching.keys_per_dispatch":
            _ratio(keys_of(srv, "executor.apply"), len(applies)),
        "executor.apply_us_per_key":
            _ratio(total(srv, "executor.apply", field="self_time"),
                   keys_of(srv, "executor.apply")) * 1e6,
        "hashing.locate_us_per_key":
            _ratio(total(srv, "hashing.locate"), keys_of(srv, "hashing.locate")) * 1e6,
        "kernel.query_us_per_key": kernel["query"],
        "kernel.insert_us_per_key": kernel["insert"],
        "kernel.delete_us_per_key": kernel["delete"],
        "kernel.saturated_words": float(srv.meta.get("saturated_words", 0)),
        "memmodel.word_accesses_per_query":
            _ratio(after["query"][1] - before["query"][1], sweep_queries),
        "memmodel.word_accesses_per_update":
            _ratio(after["update"][1], after["update"][0]),
        "memmodel.hash_bits_per_key":
            _ratio(after["query"][2] - before["query"][2], sweep_queries),
        "wal.append_us_per_req":
            _ratio(total(srv, "wal.append"), count(srv, "wal.append")) * 1e6,
        "wal.sync_us": _ratio(float(srv.dur[sync].sum()), int(sync.sum())) * 1e6,
        "wal.syncs_per_req":
            _ratio(float(srv.aux[srv.mask("wal.sync")].sum()), count(srv, "wal.append")),
        "wal.bytes_per_key":
            _ratio(float(srv.aux[srv.mask("wal.append")].sum()), keys_of(srv, "wal.append")),
        "replication.commit_wait_us":
            _ratio(total(srv, "replication.commit_wait"),
                   count(srv, "replication.commit_wait")) * 1e6,
        "snapshot.save_s": _ratio(total(srv, "snapshot.save"), len(snaps)),
        "snapshot.count": float(len(snaps)),
        "snapshot.stall_ms": float(np.median(stalls)) if stalls else 0.0,
        "unattributed_us_per_req": rows[-1][4],
    }
    result["ledger_rows"] = rows
    result["client_latency_us"] = lat_us
    return {name: (float(value), UNITS[name]) for name, value in metrics.items()}


def report(workload: str, result: dict, layers: dict, untraced_kps: float,
           traced_kps: float) -> None:
    print(f"layer ledger for {workload} (traced window; µs per request are "
          f"charged per request, mean client latency "
          f"{result['client_latency_us']:.1f} µs)")
    print(f"  {'layer':<26}{'count':>9}{'busy ms':>11}{'self ms':>11}{'µs/req':>10}")
    for row, calls, busy, own, per_req in result["ledger_rows"]:
        print(f"  {row:<26}{calls:>9}{busy:>11.1f}{own:>11.1f}{per_req:>10.1f}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<34} {value:>12.6g} {unit}")
    overhead = _ratio(untraced_kps - traced_kps, untraced_kps)
    print(f"  tracing overhead: keys_per_s untraced {untraced_kps:.1f}, "
          f"traced {traced_kps:.1f} ({overhead:+.1%})")
