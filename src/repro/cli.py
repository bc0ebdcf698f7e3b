"""Command-line interface: build, query, plan, and benchmark filters.

Usage (also installed as the ``repro`` console script)::

    repro build --variant MPCBF-1 --memory-kb 64 --k 3 \
                --keys keys.txt --out filter.mpcbf
    repro query --filter filter.mpcbf --keys probes.txt
    repro plan --n 100000 --target-fpr 1e-4
    repro bench fig7 table4
    repro workload synthetic --members 10000 --out keys.txt
    repro serve --variant MPCBF-1 --memory-kb 64 --shards 4 --port 7757 \
                --metrics-port 9464 --log-json
    repro client query --port 7757 alice bob
    repro client stats --port 7757 --watch
    repro metrics-dump --port 9464
    repro cluster serve --wal-dir wal/a0 --port 7801 \
                --replica 127.0.0.1:7802 --ack-mode quorum
    repro cluster serve --wal-dir wal/a1 --port 7802 --read-only
    repro cluster route --group a=127.0.0.1:7801,127.0.0.1:7802 --port 7700
    repro cluster status --group a=127.0.0.1:7801,127.0.0.1:7802
    repro cluster init --state-dir ring --group a=127.0.0.1:7801
    repro cluster join --state-dir ring --group b=127.0.0.1:7803
    repro cluster drain --state-dir ring --group b
    repro cluster rebalance-status --state-dir ring
    repro chaos run --seed 42 --steps 120 --nodes 3
    repro chaos run --sweep 200 --steps 60 --artifacts-dir chaos-artifacts

Key files are plain text, one key per line (encoded as UTF-8 bytes).
Filters serialise through :mod:`repro.serialize`, so a built filter can
be shipped to another process or machine — e.g. as a DistributedCache
payload.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from repro.analysis.tradeoffs import cbf_bits_for_fpr, cheapest_design
from repro.bench.scale import current_scale
from repro.errors import ReproError
from repro.filters.factory import FilterSpec, build_filter
from repro.serialize import dump_filter, load_filter

__all__ = ["main", "build_parser"]


def _read_keys(path: str) -> list[bytes]:
    """Read one key per line, streaming (key files can be huge)."""
    keys: list[bytes] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            stripped = line.rstrip("\r\n")
            if stripped:
                keys.append(stripped.encode("utf-8"))
    return keys


def _cmd_build(args: argparse.Namespace) -> int:
    keys = _read_keys(args.keys)
    spec = FilterSpec(
        variant=args.variant,
        memory_bits=args.memory_kb * 8192,
        k=args.k,
        word_bits=args.word_bits,
        capacity=args.capacity or len(keys),
        seed=args.seed,
        extra=(
            {"word_overflow": args.word_overflow}
            if args.variant.startswith("MPCBF")
            else {}
        ),
    )
    filt = build_filter(spec)
    filt.insert_many(keys)
    blob = dump_filter(filt)
    Path(args.out).write_bytes(blob)
    print(
        f"built {filt.name}: {len(keys)} keys, {filt.total_bits // 8192} KiB "
        f"logical, {len(blob)} bytes serialised -> {args.out}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    filt = load_filter(Path(args.filter).read_bytes())
    keys = _read_keys(args.keys)
    answers = filt.query_many(keys)
    positives = int(answers.sum())
    if args.verbose:
        for key, ans in zip(keys, answers):
            print(f"{key.decode('utf-8', 'replace')}\t{'maybe' if ans else 'no'}")
    print(
        f"{filt.name}: {positives}/{len(keys)} keys possibly present "
        f"({filt.stats.query.mean_accesses:.2f} accesses/query)"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    design = cheapest_design(
        args.n,
        args.target_fpr,
        word_bits=args.word_bits,
        max_accesses=args.max_accesses,
    )
    print(
        f"cheapest MPCBF-{design.g}: {design.bits_per_element:.0f} bits/elem "
        f"({design.memory_bits // 8192} KiB), k={design.k}, "
        f"b1={design.first_level_bits}, n_max={design.n_max}, "
        f"fpr={design.fpr:.2e}, P(overflow)={design.overflow_probability:.2e}"
    )
    try:
        cbf_bpe, cbf_k = cbf_bits_for_fpr(args.n, args.target_fpr)
        print(
            f"standard CBF needs {cbf_bpe:.0f} bits/elem at k={cbf_k} "
            f"({cbf_k} memory accesses/query vs {design.g})"
        )
    except ReproError as exc:
        print(f"standard CBF: {exc}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(args.experiments)


def _cmd_workload(args: argparse.Namespace) -> int:
    rng_seed = args.seed
    if args.kind == "synthetic":
        from repro.workloads.synthetic import random_strings

        rng = np.random.default_rng(rng_seed)
        keys = random_strings(args.members, length=args.length, rng=rng)
        Path(args.out).write_text(
            "\n".join(k.decode("ascii") for k in keys) + "\n"
        )
        print(f"wrote {len(keys)} synthetic keys -> {args.out}")
        return 0
    if args.kind == "trace":
        from repro.workloads.traces import make_trace_workload

        trace = make_trace_workload(
            n_unique=args.members,
            n_observations=args.members * 19,
            n_inserted=max(1, int(args.members * 0.68)),
            seed=rng_seed,
        )
        flows = trace.flows[trace.stream]
        lines = [f"{src}.{dst}" for src, dst in flows[: args.members * 19]]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} trace observations -> {args.out}")
        return 0
    raise ReproError(f"unknown workload kind {args.kind!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.parallel.sharded import ShardedFilterBank
    from repro.service.server import serve
    from repro.service.snapshot import load_snapshot

    if args.log_json:
        import logging

        from repro.observability.logging import configure_json_logging

        configure_json_logging(
            level=logging.DEBUG if args.log_level == "debug" else logging.INFO
        )
    if args.restore:
        try:
            filt = load_snapshot(args.restore)
        except OSError as exc:
            raise ReproError(f"cannot restore from {args.restore}: {exc}")
        print(f"restored {filt.name} from {args.restore}")
    else:
        memory_bits = args.memory_kb * 8192
        # MPCBF sizing needs a capacity for the Eq. 11 n_max heuristic;
        # ~12 bits/element is the paper's operating range.
        capacity = args.capacity or max(1, memory_bits // 12)
        spec = FilterSpec(
            variant=args.variant,
            memory_bits=memory_bits,
            k=args.k,
            word_bits=args.word_bits,
            capacity=capacity,
            seed=args.seed,
            extra=(
                # A long-lived daemon keeps serving through word
                # saturation instead of dying (see build_suite).
                {"word_overflow": "saturate"}
                if args.variant.startswith("MPCBF")
                else {}
            ),
        )
        if args.shards > 1:
            filt = ShardedFilterBank(spec, args.shards)
        else:
            filt = build_filter(spec)
    if args.keys:
        preload = _read_keys(args.keys)
        filt.insert_many(preload)
        print(f"preloaded {len(preload)} keys into {filt.name}")
    asyncio.run(
        serve(
            filt,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_delay_us=args.max_delay_us,
            fuse_mutations=args.fuse_mutations,
            snapshot_path=args.snapshot,
            snapshot_interval_s=args.snapshot_interval,
            metrics_port=args.metrics_port,
            max_inflight=args.max_inflight,
            admission_rate=args.admission_rate,
            admission_burst=args.admission_burst,
            deadline_default_s=args.deadline_default,
        )
    )
    return 0


def _configure_serve_logging(args: argparse.Namespace) -> None:
    if args.log_json:
        import logging

        from repro.observability.logging import configure_json_logging

        configure_json_logging(
            level=logging.DEBUG if args.log_level == "debug" else logging.INFO
        )


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.node import serve_node
    from repro.parallel.sharded import ShardedFilterBank

    _configure_serve_logging(args)
    memory_bits = args.memory_kb * 8192
    capacity = args.capacity or max(1, memory_bits // 12)
    spec = FilterSpec(
        variant=args.variant,
        memory_bits=memory_bits,
        k=args.k,
        word_bits=args.word_bits,
        capacity=capacity,
        seed=args.seed,
        extra=(
            {"word_overflow": "saturate"}
            if args.variant.startswith("MPCBF")
            else {}
        ),
    )

    def build():
        if args.shards > 1:
            return ShardedFilterBank(spec, args.shards)
        return build_filter(spec)

    replicas = []
    for spec_str in args.replica:
        host, _, port = spec_str.rpartition(":")
        if not host:
            raise ReproError(f"--replica {spec_str!r} is not HOST:PORT")
        replicas.append((host, int(port)))
    asyncio.run(
        serve_node(
            build,
            wal_dir=args.wal_dir,
            snapshot_path=args.snapshot,
            fsync=args.fsync,
            host=args.host,
            port=args.port,
            replicas=replicas,
            ack_mode=args.ack_mode,
            read_only=args.read_only,
            group=args.group,
            snapshot_interval_s=args.snapshot_interval,
            metrics_port=args.metrics_port,
            max_batch=args.max_batch,
            max_delay_us=args.max_delay_us,
            quorum_timeout_s=args.quorum_timeout,
            max_inflight=args.max_inflight,
            admission_rate=args.admission_rate,
            admission_burst=args.admission_burst,
            deadline_default_s=args.deadline_default,
        )
    )
    return 0


def _cmd_cluster_route(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.router import (
        HashRing,
        HealthChecker,
        RouterBackend,
        parse_group,
    )
    from repro.service.server import serve

    _configure_serve_logging(args)
    groups = [parse_group(spec) for spec in args.group]
    ring = HashRing(groups, vnodes=args.vnodes)
    health = HealthChecker(
        [node for group in groups for node in group.nodes],
        interval_s=args.health_interval,
    )
    health.start()
    backend = RouterBackend(ring, health=health, timeout_s=args.timeout)
    try:
        asyncio.run(
            serve(
                backend,
                host=args.host,
                port=args.port,
                max_batch=args.max_batch,
                max_delay_us=args.max_delay_us,
                metrics_port=args.metrics_port,
            )
        )
    finally:
        health.stop()
        backend.close()
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from repro.cluster.cluster_client import ClusterClient

    with ClusterClient(
        args.group,
        vnodes=args.vnodes,
        timeout_s=args.timeout,
        check_health=True,
    ) as client:
        import json as _json

        print(_json.dumps(client.status(), indent=2, sort_keys=True))
    return 0


def _cmd_cluster_init(args: argparse.Namespace) -> int:
    from repro.cluster.router import parse_group
    from repro.rebalance import Coordinator

    with Coordinator(args.state_dir, timeout_s=args.timeout) as coord:
        epoch = coord.bootstrap(
            [parse_group(spec) for spec in args.group], vnodes=args.vnodes
        )
    print(
        f"bootstrapped ring epoch v{epoch.version}: "
        f"groups {', '.join(epoch.group_names())}, {epoch.vnodes} vnodes each"
    )
    return 0


def _cmd_cluster_join(args: argparse.Namespace) -> int:
    from repro.cluster.router import parse_group
    from repro.rebalance import Coordinator

    with Coordinator(
        args.state_dir,
        timeout_s=args.timeout,
        catchup_lag=args.catchup_lag,
    ) as coord:
        plan = coord.plan_join(parse_group(args.group))
        plan = coord.execute(plan)
    print(
        f"join complete: ring epoch v{plan['epoch_from']} -> "
        f"v{plan['epoch_to']}, {len(plan['sessions'])} migration "
        f"session(s) OWNED"
    )
    return 0


def _cmd_cluster_drain(args: argparse.Namespace) -> int:
    from repro.rebalance import Coordinator

    with Coordinator(
        args.state_dir,
        timeout_s=args.timeout,
        catchup_lag=args.catchup_lag,
    ) as coord:
        plan = coord.plan_drain(args.group)
        plan = coord.execute(plan)
    print(
        f"drain complete: ring epoch v{plan['epoch_from']} -> "
        f"v{plan['epoch_to']}, {len(plan['sessions'])} migration "
        f"session(s) OWNED"
    )
    return 0


def _cmd_cluster_rebalance_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.rebalance import Coordinator

    with Coordinator(args.state_dir) as coord:
        print(_json.dumps(coord.status(), indent=2, sort_keys=True))
    return 0


def _render_stats_watch(stats: dict) -> str:
    """Compact one-screen view of the STATS document for --watch."""
    lines = [
        f"uptime {stats.get('uptime_s', 0.0):8.1f}s   "
        f"connections {stats.get('connections', {}).get('active', 0)} active / "
        f"{stats.get('connections', {}).get('opened', 0)} opened   "
        f"bytes in/out {stats.get('bytes_in', 0)}/{stats.get('bytes_out', 0)}"
    ]
    ops = stats.get("ops", {})
    if ops:
        lines.append(
            "ops  " + "  ".join(f"{op}={n}" for op, n in sorted(ops.items()))
        )
    errors = stats.get("errors", {})
    if errors:
        lines.append(
            "errs " + "  ".join(f"{c}={n}" for c, n in sorted(errors.items()))
        )
    coal = stats.get("coalescing", {})
    if coal:
        lines.append(
            f"coalescing  dispatches={coal.get('dispatches', 0)}  "
            f"mean_requests={coal.get('mean_batch_requests', 0.0):.2f}  "
            f"mean_keys={coal.get('mean_batch_keys', 0.0):.1f}"
        )
    for op, hist in sorted(stats.get("latency_us", {}).items()):
        lines.append(
            f"lat[{op}]  p50={hist['p50']:.0f}us  p95={hist['p95']:.0f}us  "
            f"p99={hist['p99']:.0f}us  max={hist['max']:.0f}us  "
            f"n={hist['count']:.0f}"
        )
    for name, hist in sorted(stats.get("spans_us", {}).items()):
        lines.append(
            f"span[{name}]  p50={hist['p50']:.0f}us  p99={hist['p99']:.0f}us  "
            f"n={hist['count']:.0f}"
        )
    filt = stats.get("filter")
    if filt:
        access = filt.get("access_stats", {}).get("query", {})
        lines.append(
            f"filter {filt.get('name')}  bits={filt.get('total_bits')}  "
            f"queries={access.get('operations', 0):.0f}  "
            f"accesses/query={access.get('mean_accesses', 0.0):.2f}"
        )
    return "\n".join(lines)


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    import json as _json
    import time

    from repro.chaos.runner import run_seed

    seeds = (
        range(args.start_seed, args.start_seed + args.sweep)
        if args.sweep
        else [args.seed]
    )
    started = time.monotonic()
    failures = 0
    for seed in seeds:
        report = run_seed(
            seed,
            steps=args.steps,
            nodes=args.nodes,
            shrink=not args.no_shrink,
        )
        if args.json:
            print(_json.dumps(report, sort_keys=True))
        elif report["ok"]:
            print(
                f"seed {seed}: ok  "
                f"(events={report['events']} seq={report['final_seq']} "
                f"digest={report['schedule_digest'][:12]})"
            )
        else:
            print(f"seed {seed}: FAIL  {report['violations']}")
        if not report["ok"]:
            failures += 1
            if args.artifacts_dir and "minimal_schedule" in report:
                art_dir = Path(args.artifacts_dir)
                art_dir.mkdir(parents=True, exist_ok=True)
                out = art_dir / f"chaos-minimal-{seed}.json"
                out.write_text(report["minimal_schedule"] + "\n")
                print(f"seed {seed}: minimal failing schedule -> {out}")
    if args.sweep:
        elapsed = time.monotonic() - started
        # stderr: the timing differs run to run, stdout must not.
        print(
            f"sweep: {len(seeds) - failures}/{len(seeds)} seeds ok "
            f"in {elapsed:.1f}s",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    """Fetch and print a /metrics exposition from a running daemon."""
    from urllib.error import URLError
    from urllib.request import urlopen

    url = f"http://{args.host}:{args.port}/metrics"
    try:
        with urlopen(url, timeout=args.timeout) as response:
            sys.stdout.write(response.read().decode("utf-8"))
    except (URLError, OSError) as exc:
        raise ReproError(f"cannot scrape {url}: {exc}")
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import FilterClient

    keys: list[bytes] = [key.encode("utf-8") for key in args.key]
    if args.keys:
        keys.extend(_read_keys(args.keys))
    if args.action in ("insert", "query", "delete") and not keys:
        raise ReproError(f"{args.action} needs keys (positional or --keys FILE)")
    with FilterClient(args.host, args.port, timeout_s=args.timeout) as client:
        if args.action == "ping":
            client.ping()
            print("pong")
        elif args.action == "insert":
            client.insert_many(keys)
            print(f"inserted {len(keys)} keys")
        elif args.action == "delete":
            client.delete_many(keys)
            print(f"deleted {len(keys)} keys")
        elif args.action == "query":
            answers = client.query_many(keys)
            for key, ans in zip(keys, answers):
                print(
                    f"{key.decode('utf-8', 'replace')}\t"
                    f"{'maybe' if ans else 'no'}"
                )
            print(f"{sum(answers)}/{len(keys)} keys possibly present")
        elif args.action == "stats":
            if args.watch:
                import time as _time

                # Alternate screen, restored in the finally: Ctrl-C
                # must hand the terminal back (scrollback intact) and
                # exit 0 — interrupting a watch is the normal way out.
                sys.stdout.write("\x1b[?1049h")
                sys.stdout.flush()
                try:
                    while True:
                        stats = client.stats()
                        print(f"\x1b[2J\x1b[H{_render_stats_watch(stats)}", flush=True)
                        _time.sleep(args.interval)
                except KeyboardInterrupt:
                    pass
                finally:
                    sys.stdout.write("\x1b[?1049l")
                    sys.stdout.flush()
            else:
                print(_json.dumps(client.stats(), indent=2, sort_keys=True))
        elif args.action == "snapshot":
            report = client.snapshot()
            print(f"snapshot: {report['bytes']} bytes -> {report['path']}")
    return 0


def _add_overload_flags(parser: argparse.ArgumentParser) -> None:
    """Admission-control knobs shared by ``serve`` and ``cluster serve``."""
    parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="bound on concurrently admitted keyed requests; excess "
        "requests are shed with OVERLOADED + a retry-after hint",
    )
    parser.add_argument(
        "--admission-rate", type=float, default=None,
        help="token-bucket refill rate (cost units/second; mutations "
        "cost more than queries — see repro.overload.DEFAULT_COSTS)",
    )
    parser.add_argument(
        "--admission-burst", type=float, default=None,
        help="token-bucket burst capacity (defaults to one second of "
        "--admission-rate)",
    )
    parser.add_argument(
        "--deadline-default", type=float, default=None,
        help="default per-request deadline in seconds for clients that "
        "do not send a DEADLINE frame",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPCBF (IPDPS 2013) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and serialise a filter")
    p_build.add_argument("--variant", default="MPCBF-1")
    p_build.add_argument("--memory-kb", type=int, default=64)
    p_build.add_argument("--k", type=int, default=3)
    p_build.add_argument("--word-bits", type=int, default=64)
    p_build.add_argument("--capacity", type=int, default=None)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument(
        "--word-overflow", choices=["raise", "saturate"], default="saturate"
    )
    p_build.add_argument("--keys", required=True, help="text file, 1 key/line")
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=_cmd_build)

    p_query = sub.add_parser("query", help="query keys against a filter")
    p_query.add_argument("--filter", required=True)
    p_query.add_argument("--keys", required=True)
    p_query.add_argument("--verbose", action="store_true")
    p_query.set_defaults(func=_cmd_query)

    p_plan = sub.add_parser("plan", help="capacity-plan an MPCBF")
    p_plan.add_argument("--n", type=int, required=True)
    p_plan.add_argument("--target-fpr", type=float, required=True)
    p_plan.add_argument("--word-bits", type=int, default=64)
    p_plan.add_argument("--max-accesses", type=int, default=3)
    p_plan.set_defaults(func=_cmd_plan)

    p_bench = sub.add_parser("bench", help="regenerate paper tables/figures")
    p_bench.add_argument("experiments", nargs="*", help="e.g. fig7 table4")
    p_bench.set_defaults(func=_cmd_bench)

    p_work = sub.add_parser("workload", help="generate workload files")
    p_work.add_argument("kind", choices=["synthetic", "trace"])
    p_work.add_argument("--members", type=int, default=10_000)
    p_work.add_argument("--length", type=int, default=5)
    p_work.add_argument("--seed", type=int, default=0)
    p_work.add_argument("--out", required=True)
    p_work.set_defaults(func=_cmd_workload)

    p_serve = sub.add_parser("serve", help="run the filter-serving daemon")
    p_serve.add_argument("--variant", default="MPCBF-1")
    p_serve.add_argument("--memory-kb", type=int, default=64)
    p_serve.add_argument("--k", type=int, default=3)
    p_serve.add_argument("--word-bits", type=int, default=64)
    p_serve.add_argument("--capacity", type=int, default=None)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--shards", type=int, default=1,
        help="host a ShardedFilterBank of this many shards",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7757, help="0 picks an ephemeral port"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=512,
        help="max keys coalesced into one bulk dispatch",
    )
    p_serve.add_argument(
        "--max-delay-us", type=float, default=200.0,
        help="max added latency while coalescing (0 disables)",
    )
    p_serve.add_argument(
        "--fuse-mutations", action="store_true",
        help="fuse INSERT/DELETE batches across requests "
        "(whole-batch error frames on failure)",
    )
    p_serve.add_argument(
        "--snapshot", default=None, help="snapshot file path (enables SNAPSHOT op)"
    )
    p_serve.add_argument(
        "--snapshot-interval", type=float, default=None,
        help="periodic snapshot interval in seconds",
    )
    p_serve.add_argument(
        "--restore", metavar="PATH", default=None,
        help="restore the filter from a snapshot file instead of building",
    )
    p_serve.add_argument(
        "--keys", default=None, help="preload keys from a file before serving"
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve Prometheus /metrics + /healthz on this port (0 = ephemeral)",
    )
    p_serve.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs (one object per line) to stderr",
    )
    p_serve.add_argument(
        "--log-level", choices=["info", "debug"], default="info",
        help="JSON log verbosity (debug includes per-request events)",
    )
    _add_overload_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser("client", help="talk to a running daemon")
    p_client.add_argument(
        "action",
        choices=["ping", "insert", "query", "delete", "stats", "snapshot"],
    )
    # argparse consumes positionals in one contiguous block: keys must
    # directly follow the action (`repro client query a b --port 7757`).
    p_client.add_argument("key", nargs="*", help="keys for insert/query/delete")
    p_client.add_argument("--keys", default=None, help="read keys from a file")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7757)
    p_client.add_argument("--timeout", type=float, default=10.0)
    p_client.add_argument(
        "--watch", action="store_true",
        help="with 'stats': refresh a compact live view until Ctrl-C",
    )
    p_client.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period for --watch, seconds",
    )
    p_client.set_defaults(func=_cmd_client)

    p_cluster = sub.add_parser(
        "cluster", help="WAL-durable nodes, replication, and routing"
    )
    cluster_sub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    p_cnode = cluster_sub.add_parser(
        "serve", help="run one durable cluster node (primary or replica)"
    )
    p_cnode.add_argument("--variant", default="MPCBF-1")
    p_cnode.add_argument("--memory-kb", type=int, default=64)
    p_cnode.add_argument("--k", type=int, default=3)
    p_cnode.add_argument("--word-bits", type=int, default=64)
    p_cnode.add_argument("--capacity", type=int, default=None)
    p_cnode.add_argument("--seed", type=int, default=0)
    p_cnode.add_argument("--shards", type=int, default=1)
    p_cnode.add_argument("--host", default="127.0.0.1")
    p_cnode.add_argument("--port", type=int, default=7801)
    p_cnode.add_argument(
        "--wal-dir", required=True, help="write-ahead log directory"
    )
    p_cnode.add_argument(
        "--fsync", choices=["always", "batch", "interval", "never"],
        default="batch", help="WAL fsync policy",
    )
    p_cnode.add_argument(
        "--snapshot", default=None,
        help="snapshot path; dumps compact the WAL behind them",
    )
    p_cnode.add_argument("--snapshot-interval", type=float, default=None)
    p_cnode.add_argument(
        "--replica", action="append", default=[], metavar="HOST:PORT",
        help="stream the WAL to this replica (repeatable; makes this node "
        "a primary)",
    )
    p_cnode.add_argument(
        "--ack-mode", choices=["async", "quorum"], default="async",
        help="when to acknowledge mutations (quorum = majority of "
        "primary+replicas holds the record)",
    )
    p_cnode.add_argument(
        "--quorum-timeout", type=float, default=5.0,
        help="seconds a quorum-mode ack may wait",
    )
    p_cnode.add_argument(
        "--read-only", action="store_true",
        help="replica role: reject client writes, accept replicated ones",
    )
    p_cnode.add_argument(
        "--group", default=None,
        help="shard-group name this node belongs to; enables epoch "
        "fencing during repro cluster join/drain migrations",
    )
    p_cnode.add_argument("--max-batch", type=int, default=512)
    p_cnode.add_argument("--max-delay-us", type=float, default=200.0)
    p_cnode.add_argument("--metrics-port", type=int, default=None)
    p_cnode.add_argument("--log-json", action="store_true")
    p_cnode.add_argument(
        "--log-level", choices=["info", "debug"], default="info"
    )
    _add_overload_flags(p_cnode)
    p_cnode.set_defaults(func=_cmd_cluster_serve)

    p_croute = cluster_sub.add_parser(
        "route", help="run the consistent-hash router daemon"
    )
    p_croute.add_argument(
        "--group", action="append", required=True,
        metavar="NAME=HOST:PORT[,HOST:PORT...]",
        help="shard group: primary first, then replicas (repeatable); "
        "append /HEALTHPORT to a node for /healthz checks",
    )
    p_croute.add_argument(
        "--vnodes", type=int, default=64,
        help="virtual nodes per group on the hash ring",
    )
    p_croute.add_argument("--host", default="127.0.0.1")
    p_croute.add_argument("--port", type=int, default=7700)
    p_croute.add_argument("--max-batch", type=int, default=512)
    p_croute.add_argument("--max-delay-us", type=float, default=200.0)
    p_croute.add_argument("--timeout", type=float, default=5.0)
    p_croute.add_argument(
        "--health-interval", type=float, default=1.0,
        help="seconds between /healthz polls",
    )
    p_croute.add_argument("--metrics-port", type=int, default=None)
    p_croute.add_argument("--log-json", action="store_true")
    p_croute.add_argument(
        "--log-level", choices=["info", "debug"], default="info"
    )
    p_croute.set_defaults(func=_cmd_cluster_route)

    p_cstatus = cluster_sub.add_parser(
        "status", help="print cluster topology, health, and replication lag"
    )
    p_cstatus.add_argument(
        "--group", action="append", required=True,
        metavar="NAME=HOST:PORT[,HOST:PORT...]",
    )
    p_cstatus.add_argument("--vnodes", type=int, default=64)
    p_cstatus.add_argument("--timeout", type=float, default=5.0)
    p_cstatus.set_defaults(func=_cmd_cluster_status)

    p_cinit = cluster_sub.add_parser(
        "init", help="record ring epoch v1 and push it to every node"
    )
    p_cinit.add_argument(
        "--state-dir", required=True,
        help="coordinator state directory (epoch log + migration plans)",
    )
    p_cinit.add_argument(
        "--group", action="append", required=True,
        metavar="NAME=HOST:PORT[,HOST:PORT...]",
        help="shard group in the initial ring (repeatable)",
    )
    p_cinit.add_argument("--vnodes", type=int, default=64)
    p_cinit.add_argument("--timeout", type=float, default=10.0)
    p_cinit.set_defaults(func=_cmd_cluster_init)

    p_cjoin = cluster_sub.add_parser(
        "join",
        help="add a shard group with a live, crash-resumable migration",
    )
    p_cjoin.add_argument("--state-dir", required=True)
    p_cjoin.add_argument(
        "--group", required=True,
        metavar="NAME=HOST:PORT[,HOST:PORT...]",
        help="the joining shard group",
    )
    p_cjoin.add_argument(
        "--catchup-lag", type=int, default=64,
        help="fence the source once the stream is within this many "
        "WAL records of its tail",
    )
    p_cjoin.add_argument("--timeout", type=float, default=10.0)
    p_cjoin.set_defaults(func=_cmd_cluster_join)

    p_cdrain = cluster_sub.add_parser(
        "drain",
        help="migrate a group's ranges to the survivors, then drop it",
    )
    p_cdrain.add_argument("--state-dir", required=True)
    p_cdrain.add_argument(
        "--group", required=True, metavar="NAME",
        help="name of the group to remove from the ring",
    )
    p_cdrain.add_argument("--catchup-lag", type=int, default=64)
    p_cdrain.add_argument("--timeout", type=float, default=10.0)
    p_cdrain.set_defaults(func=_cmd_cluster_drain)

    p_crstat = cluster_sub.add_parser(
        "rebalance-status",
        help="print the coordinator's epoch log and per-vnode "
        "migration states",
    )
    p_crstat.add_argument("--state-dir", required=True)
    p_crstat.set_defaults(func=_cmd_cluster_rebalance_status)

    p_chaos = sub.add_parser(
        "chaos", help="deterministic fault-injection simulation"
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)

    p_chrun = chaos_sub.add_parser(
        "run",
        help="run one seeded chaos schedule (or a sweep) in simulated time",
    )
    p_chrun.add_argument("--seed", type=int, default=0)
    p_chrun.add_argument("--steps", type=int, default=120)
    p_chrun.add_argument("--nodes", type=int, default=3)
    p_chrun.add_argument(
        "--sweep",
        type=int,
        default=0,
        metavar="N",
        help="run N consecutive seeds starting at --start-seed",
    )
    p_chrun.add_argument("--start-seed", type=int, default=0)
    p_chrun.add_argument(
        "--json", action="store_true", help="print full JSON reports"
    )
    p_chrun.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip ddmin schedule minimisation on failure",
    )
    p_chrun.add_argument(
        "--artifacts-dir",
        default=None,
        help="write minimal failing schedules here (one JSON per seed)",
    )
    p_chrun.set_defaults(func=_cmd_chaos_run)

    p_metrics = sub.add_parser(
        "metrics-dump",
        help="print the Prometheus exposition of a daemon's /metrics endpoint",
    )
    p_metrics.add_argument("--host", default="127.0.0.1")
    p_metrics.add_argument("--port", type=int, required=True)
    p_metrics.add_argument("--timeout", type=float, default=5.0)
    p_metrics.set_defaults(func=_cmd_metrics_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader hung up (`... | head`, `... | grep -q`): die
        # quietly like any pipeline-friendly tool.  Point stdout at
        # /dev/null so the interpreter's exit flush cannot re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (FileNotFoundError, ConnectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
