"""One-command end-to-end benchmark of the MPCBF serving stack.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seconds S --selfcheck N

Starts the real daemons (``repro serve`` / ``repro cluster serve``)
through ``perfbench/launch.py``, bulk-loads the paper's synthetic point
(MPCBF-2, k=3, 100 K random 5-byte members, 4 Mb over two shards) and
drives it from this one process over two closed-loop connections.  The
last line of stdout is a JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer ledger metrics.  ``--selfcheck``
runs the workload N times with seeds 1..N and prints each end-to-end
metric's spread next to its bound in ``BENCHMARK.json``.  See
``perfbench/README.md`` for the workloads and the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

WORKLOADS = ("bulk_churn", "durable_churn")
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 3
#: The window is cut into slices of this length, and the CPU time the
#: hypervisor stole is read at every slice boundary; the timings stand on
#: the quiet slices (see quiet_weights).  Other guests steal in bursts of
#: a few seconds, so short slices keep most of the calm time between them.
SLICE_S = 0.25
WARMUP_S = 2.0
#: durable_churn snapshots (and so compacts its WAL) this often, starting
#: half a period into the window, so a window of whole periods holds one
#: snapshot in the middle of each.  A snapshot stalls the two requests in
#: flight; at one per 8 s they are about a third of a percent of the
#: requests, well beyond req_p99_ms.
SNAPSHOT_EVERY_S = 8.0
#: The paper's synthetic point: 4 Mb for 100 K members, served as two
#: shards of 2 Mb and 50 K members each.
SHARDS = 2
SHARD_KB = 256
FILTER_ARGS = [
    "--variant", "MPCBF-2", "--k", "3", "--word-bits", "64",
    "--memory-kb", str(SHARD_KB), "--shards", str(SHARDS), "--capacity", "100000",
]
READY_TIMEOUT_S = 120.0


class Daemon:
    """One daemon process started through the launcher."""

    def __init__(self, args: list[str], workdir: Path, name: str, trace: bool) -> None:
        self.name = name
        self.spans = workdir / f"spans-{name}.npz" if trace else None
        launch = [sys.executable, str(HERE / "launch.py")]
        if self.spans is not None:
            launch += ["--trace-out", str(self.spans)]
        self.log = open(workdir / f"{name}.log", "wb")
        self.proc = subprocess.Popen(
            launch + args, stdout=subprocess.PIPE, stderr=self.log, cwd=ROOT
        )
        self.port = None

    def wait_ready(self) -> int:
        """Block until the daemon prints its listening line; returns the port."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                match = re.search(rb"listening on [\d.]+:(\d+)", buf)
                if match:
                    self.port = int(match.group(1))
                    return self.port
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"{self.name} did not become ready: {buf!r}")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def stop(self) -> None:
        """SIGTERM a traced daemon so it drains and writes its spans;
        SIGKILL an untraced one, whose shutdown is not measured."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if self.spans is None else signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def start_daemons(workload: str, workdir: Path, trace: bool) -> list[Daemon]:
    """Start the workload's daemons; the first one is the load target."""
    if workload != "durable_churn":
        # An inflight bound two connections never reach: the admission
        # gate runs on every request but never sheds.
        args = ["serve", *FILTER_ARGS, "--port", "0", "--max-inflight", "64"]
        daemon = Daemon(args, workdir, "node", trace)
        try:
            daemon.wait_ready()
        except BaseException:
            daemon.stop()
            raise
        return [daemon]
    node = ["cluster", "serve", *FILTER_ARGS, "--port", "0", "--fsync", "batch"]
    replica = Daemon(
        node + ["--read-only", "--wal-dir", str(workdir / "replica-wal"),
                "--snapshot", str(workdir / "replica.snap")],
        workdir, "replica", trace,
    )
    daemons = [replica]
    try:
        port = replica.wait_ready()
        primary = Daemon(
            node + ["--wal-dir", str(workdir / "primary-wal"),
                    "--snapshot", str(workdir / "primary.snap"),
                    "--replica", f"127.0.0.1:{port}", "--ack-mode", "quorum"],
            workdir, "primary", trace,
        )
        daemons.insert(0, primary)
        primary.wait_ready()
    except BaseException:
        stop_daemons(daemons)
        raise
    return daemons


def stop_daemons(daemons: list[Daemon]) -> None:
    for daemon in daemons:  # primary first: it streams to the replica
        daemon.stop()


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def steal_per_slice(t_start: float, t_end: float, slice_s: float) -> np.ndarray:
    """Sleep through the window, reading the stolen CPU time at each slice
    boundary; returns the seconds stolen in each slice."""
    marks = []
    for i in range(round((t_end - t_start) / slice_s) + 1):
        delay = t_start + i * slice_s - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        marks.append(cpu_steal_s())
    return np.diff(marks)


def connect(port: int):
    from repro.service.client import FilterClient

    client = FilterClient(port=port, timeout_s=60.0)
    client.connect()
    if not client.bulk64_supported():
        raise RuntimeError("daemon does not speak BULK64")
    return client


def set_up(workload: str, inputs, workdir: Path, trace: bool):
    """Spawn → ready → 100 K bulk load; returns (daemons, clients, seconds)."""
    import loadgen

    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    daemons = start_daemons(workload, workdir, trace)
    try:
        clients = [connect(daemons[0].port) for _ in range(loadgen.CONNECTIONS)]
        loadgen.bulk_load(clients[0], inputs.members)
    except BaseException:
        stop_daemons(daemons)
        raise
    return daemons, clients, time.perf_counter() - t0


def wait_replicated(client, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        lag = client.stats()["cluster"]["replication"]["lag_records"]
        if all(v == 0 for v in lag.values()):
            return
        time.sleep(0.05)
    raise RuntimeError("replication did not drain")


def access_totals(client) -> dict:
    """Cumulative (operations, word accesses, hash bits) per op kind."""
    summary = client.stats()["filter"]["access_stats"]
    return {
        kind: (v["operations"], v["operations"] * v["mean_accesses"],
               v["operations"] * v["mean_bits"])
        for kind, v in summary.items()
    }


def measure(workload, inputs, seed, seconds, workdir, trace, setup_times):
    """One full pass: set up, warm up, timed window, correctness sweep."""
    import loadgen

    daemons, clients, setup_s = set_up(workload, inputs, workdir, trace)
    setup_times.append(setup_s)
    out: dict = {"daemons": daemons}
    try:
        streams = [
            loadgen.Churn(inputs, conn, np.random.default_rng([seed, conn]))
            for conn in range(loadgen.CONNECTIONS)
        ]
        slice_s = seconds / max(1, round(seconds / SLICE_S))
        loop = loadgen.ClosedLoop(
            clients, streams, seed,
            (WARMUP_S + SNAPSHOT_EVERY_S / 2, SNAPSHOT_EVERY_S)
            if workload == "durable_churn" else None,
        )
        loop.start()
        t_start = loop.started + WARMUP_S
        loop.t_end = t_end = t_start + seconds
        out["slice_steal"] = steal_per_slice(t_start, t_end, slice_s)
        loop.join()
        window = loop.window(t_start, t_end)
        out.update(window=window, t_start=t_start, t_end=t_end, slice_s=slice_s,
                   snapshots=loop.snapshots_taken)
        primary = clients[0]
        if workload == "durable_churn":
            wait_replicated(primary)
        live, mult = loadgen.oracle(inputs, streams)
        if trace:
            before = access_totals(primary)
        check = loadgen.sweep(primary, live, mult, inputs.probes, seed)
        if trace:
            out["access"] = (before, access_totals(primary))
        out["check"] = check
        if workload == "durable_churn":
            replica = connect(daemons[1].port)
            try:
                rcheck = loadgen.sweep(replica, live, mult, inputs.probes, seed)
            finally:
                replica.close()
            check["replica_false_negatives"] = rcheck["false_negatives"]
            check["replica_undercounts"] = rcheck["undercounts"]
            check["disagreements"] = int(
                np.count_nonzero(rcheck["probe_answers"] != check["probe_answers"])
            )
        out["rss_mb"] = sum(d.peak_rss_mb() for d in daemons)
    finally:
        for client in clients:
            client.close()
        stop_daemons(daemons)
    return out


def lat_ms_of(requests):
    return (requests["t1"] - requests["t0"]) * 1e3


def quiet_weights(result: dict, sent: np.ndarray) -> tuple[np.ndarray, int]:
    """Weight of each request (by send time) in the timed metrics, and the
    number of quiet slices.

    A quiet slice lost no more CPU time to other guests than the quietest
    quarter of the slices did: on a calm host every slice that lost none,
    which is nearly all of them; on a busy one the calmest quarter.  So
    the timings describe the program rather than the other guests.  The quiet slices stand in for all the others, so their
    requests weigh (slices / quiet slices) and the rest weigh 0.  Slices
    that overlap a snapshot, and the slice on either side, are the
    exception: they always count as they are, with weight 1, so every run
    holds all its snapshot stalls and no more of them than the window had.
    """
    steal = result["slice_steal"]
    slice_s = result["slice_s"]
    n = len(steal)
    held = np.zeros(n, dtype=bool)
    for a, b in result["snapshots"]:
        lo = int((a - result["t_start"]) // slice_s) - 1
        hi = int((b - result["t_start"]) // slice_s) + 1
        held[max(lo, 0) : max(min(hi, n - 1) + 1, 0)] = True
    free = ~held
    quiet = free & (steal <= np.percentile(steal[free], 25))
    per_slice = np.where(held, 1.0, np.where(quiet, free.sum() / quiet.sum(), 0.0))
    part = np.clip(((sent - result["t_start"]) // slice_s).astype(int), 0, n - 1)
    return per_slice[part], int(quiet.sum())


def weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values)
    cum = np.cumsum(weights[order])
    return float(values[order][np.searchsorted(cum, q * cum[-1])])


def end_to_end(result: dict, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics and a correctness report from one measured pass."""
    w = result["window"]
    ok = w[w["ok"]]
    weight, quiet = quiet_weights(result, ok["t0"])
    timed = weight > 0
    lat_ms = lat_ms_of(ok)
    p99 = weighted_quantile(lat_ms[timed], weight[timed], 0.99)
    check = result["check"]
    probes = int(w["probes"].sum()) + check["probes"]
    false_pos = int(w["fp"].sum()) + check["false_positives"]
    violations = {
        "window_false_negatives": int(w["fn"].sum()),
        "false_negatives": check["false_negatives"],
        "undercounts": check["undercounts"],
    }
    for key in ("replica_false_negatives", "replica_undercounts", "disagreements"):
        if key in check:
            violations[key] = check[key]
    metrics = {
        "keys_per_s": (float((weight * ok["n"]).sum() / seconds), "1/s"),
        "req_p50_ms": (weighted_quantile(lat_ms[timed], weight[timed], 0.5), "ms"),
        "req_p99_ms": (p99, "ms"),
        "success_rate": (len(ok) / len(w), "ratio"),
        "fpr": (false_pos / probes, "ratio"),
        "rss_mb": (result["rss_mb"], "MB"),
    }
    extra = {
        "requests": len(w),
        "failed": len(w) - len(ok),
        "latency_samples": int(timed.sum()),
        "beyond_p99": int(np.count_nonzero(lat_ms[timed] > p99)),
        "probes": probes,
        "false_positives": false_pos,
        "violations": violations,
        "steal_s": float(result["slice_steal"].sum()),
        "quiet_slices": quiet,
        "slices": len(result["slice_steal"]),
        "slice_s": result["slice_s"],
    }
    return metrics, extra


def predicted_fpr() -> float:
    """Closed-form MPCBF-2 FPR for one shard (50 K members in 2 Mb)."""
    from repro.analysis.fpr import mpcbf_fpr

    return mpcbf_fpr(100_000 // SHARDS, SHARD_KB * 8192, 64, 3, g=2)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report_end_to_end(workload, metrics, extra) -> None:
    print(f"workload {workload}: {extra['requests']} requests in the window, "
          f"{extra['failed']} failed; {extra['steal_s']:.2f} s of CPU stolen "
          f"by other guests in the window; timings from {extra['quiet_slices']} "
          f"quiet slices of {extra['slices']} ({extra['slice_s']:g} s each)")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "req_p99_ms":
            note = (f"  (n={extra['latency_samples']}, "
                    f"{extra['beyond_p99']} beyond p99)")
        elif name == "fpr":
            note = (f"  ({extra['false_positives']}/{extra['probes']} probes; "
                    f"closed form mpcbf_fpr {predicted_fpr():.6f})")
        elif name == "success_rate":
            note = f"  (error_rate {1 - value:.6f})"
        print(f"  {name:<14} {value:>14.6g} {unit}{note}")
    bad = {k: v for k, v in extra["violations"].items() if v}
    print("  correctness:", "ok" if not bad else f"VIOLATED {bad}")


def run(args) -> int:
    import loadgen

    inputs = loadgen.make_inputs(args.seed)
    workdir = STATE / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times: list[float] = []
    try:
        if not args.trace:
            for i in range(SETUPS - 1):
                daemons, clients, seconds = set_up(
                    args.workload, inputs, workdir / f"setup{i}", False
                )
                setup_times.append(seconds)
                for client in clients:
                    client.close()
                stop_daemons(daemons)
        plain = measure(args.workload, inputs, args.seed, args.seconds,
                        workdir / "plain", False, setup_times)
        metrics, extra = end_to_end(plain, args.seconds)
        metrics = {"setup_s": (statistics.median(setup_times), "s"), **metrics}
        report_end_to_end(args.workload, metrics, extra)
        correct = not any(extra["violations"].values())
        if not args.trace:
            print(result_line(correct, extra["requests"], extra["failed"], metrics))
            return 0 if correct else 1
        import ledger
        import tracing

        client_tracer = tracing.Tracer()
        tracing.install_client_wrappers(client_tracer)
        traced = measure(args.workload, inputs, args.seed, args.seconds,
                         workdir / "traced", True, setup_times)
        traced["client_tracer"] = client_tracer
        t_metrics, t_extra = end_to_end(traced, args.seconds)
        t_correct = not any(t_extra["violations"].values())
        artefact = STATE / "traces" / f"{args.workload}-{args.seed}"
        layers = ledger.analyse(traced, artefact)
        ledger.report(args.workload, traced, layers, metrics["keys_per_s"][0],
                      t_metrics["keys_per_s"][0])
        print(result_line(correct and t_correct, t_extra["requests"],
                          t_extra["failed"], layers))
        return 0 if correct and t_correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selfcheck(args) -> int:
    """Run the workload N times (seeds 1..N); print spreads next to bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(1, args.selfcheck + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        steal, quiet = re.search(
            r"([\d.]+) s of CPU stolen.* (\d+ quiet slices of \d+)", proc.stdout
        ).groups()
        print(f"seed {seed}: steal={steal}s, {quiet}: " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()))
    print(f"{args.workload}: spread = (Q3 - Q1) / median over {args.selfcheck} runs")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread <= bounds[name] / 3 else "WIDE"
        print(f"  {name:<14} median {med:>12.6g}  spread {spread:7.4f}  "
              f"bound {bounds[name]:.3f}  {flag}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    if args.selfcheck:
        return selfcheck(args)
    # A SIGTERM unwinds like an exception, so the daemons are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
