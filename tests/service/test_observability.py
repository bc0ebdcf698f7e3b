"""Integration: a live daemon scraped over HTTP, logs carrying request ids.

The acceptance bar from the observability design: `curl /metrics`
against a serving daemon returns valid Prometheus text exposition with
request-latency histograms, per-op counters, and AccessStats-derived
word-access counters; /healthz answers; JSON logs show which request
ids a coalesced batch fused.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging

from repro.filters.factory import FilterSpec, build_filter
from repro.observability.logging import configure_json_logging
from repro.observability.prometheus import parse_exposition
from repro.service.client import AsyncFilterClient
from repro.service.server import FilterServer


def make_filter():
    return build_filter(
        FilterSpec(
            variant="MPCBF-1",
            memory_bits=32 * 8192,
            k=3,
            capacity=2000,
            seed=7,
            extra={"word_overflow": "saturate"},
        )
    )


async def http_get(port: int, path: str) -> tuple[int, dict[str, str], bytes]:
    """Minimal HTTP client: one GET, read to EOF (server closes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


class TestMetricsEndpoint:
    def test_scrape_during_live_traffic(self, tmp_path):
        async def main():
            server = FilterServer(
                make_filter(),
                port=0,
                metrics_port=0,
                snapshot_path=str(tmp_path / "obs.snap"),
                max_delay_us=500.0,
            )
            await server.start()

            async def traffic(c: int):
                async with AsyncFilterClient(port=server.port) as client:
                    mine = [b"c%d-%d" % (c, i) for i in range(80)]
                    await client.insert_many(mine)
                    await client.query_many(mine)
                    await client.delete_many(mine[:20])

            await asyncio.gather(*[traffic(c) for c in range(4)])
            async with AsyncFilterClient(port=server.port) as client:
                await client.snapshot()

            status, headers, body = await http_get(server.metrics_port, "/metrics")
            health_status, _, health_body = await http_get(
                server.metrics_port, "/healthz"
            )
            missing_status, _, _ = await http_get(server.metrics_port, "/nope")
            await server.stop()
            return status, headers, body, health_status, health_body, missing_status

        status, headers, body, health_status, health_body, missing_status = (
            asyncio.run(main())
        )
        assert status == 200
        assert headers["content-type"].startswith("text/plain; version=0.0.4")
        assert int(headers["content-length"]) == len(body)

        families = parse_exposition(body.decode("utf-8"))
        # Per-op request counters: one frame per bulk call.
        ops = {l["op"]: v for l, v in families["repro_requests_total"]}
        for op in ("BULK64_INSERT", "BULK64_QUERY", "BULK64_DELETE"):
            assert ops[op] == 4.0  # 4 clients x one call each
        assert ops["SNAPSHOT"] == 1.0
        # Request-latency histogram: cumulative, count matches ops.
        query_count = [
            v
            for l, v in families["repro_request_latency_seconds_count"]
            if l.get("op") == "BULK64_QUERY"
        ]
        assert query_count == [4.0]
        # AccessStats-derived word-access counters are non-zero.
        accesses = {
            l["kind"]: v for l, v in families["repro_word_accesses_total"]
        }
        assert accesses["insert"] >= 320.0  # >= 1 access/insert x 4x80
        assert accesses["query"] > 0
        assert accesses["delete"] > 0
        # Span instrumentation fed the exporter.
        span_counts = {
            l["span"]: v
            for l, v in families["repro_span_duration_seconds_count"]
        }
        for expected in ("protocol_decode", "coalesce_wait", "filter_execute", "snapshot_write"):
            assert span_counts.get(expected, 0) > 0, expected
        # Snapshot freshness from the on-demand SNAPSHOT op.
        assert families["repro_snapshots_written_total"][0][1] == 1.0
        assert families["repro_snapshot_age_seconds"][0][1] >= 0.0

        assert health_status == 200
        health = json.loads(health_body)
        assert health["status"] == "ok"
        assert health["filter"] == "MPCBF-1"
        assert missing_status == 404

    def test_healthz_drains_to_503_on_stop(self):
        async def main():
            server = FilterServer(make_filter(), port=0, metrics_port=0)
            await server.start()
            payload_live = server._health()
            await server.stop()
            payload_draining = server._health()
            return payload_live, payload_draining

        live, draining = asyncio.run(main())
        assert live["status"] == "ok"
        assert draining["status"] == "draining"

    def test_no_metrics_port_means_no_endpoint(self):
        async def main():
            server = FilterServer(make_filter(), port=0)
            await server.start()
            assert server.metrics_http is None
            assert server.metrics_port is None
            await server.stop()

        asyncio.run(main())

    def test_method_not_allowed(self):
        async def main():
            server = FilterServer(make_filter(), port=0, metrics_port=0)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.metrics_port
            )
            writer.write(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await server.stop()
            return raw

        raw = asyncio.run(main())
        assert raw.startswith(b"HTTP/1.1 405")


class TestStructuredLogs:
    def test_batch_dispatch_logs_fused_request_ids(self):
        stream = io.StringIO()
        handler = configure_json_logging(stream, level=logging.DEBUG)
        try:

            async def main():
                server = FilterServer(
                    make_filter(), port=0, max_delay_us=2000.0
                )
                await server.start()

                async def one_insert(c: int):
                    async with AsyncFilterClient(port=server.port) as client:
                        await client.insert(b"log-%d" % c)

                await asyncio.gather(*[one_insert(c) for c in range(6)])
                await server.stop()

            asyncio.run(main())
        finally:
            logging.getLogger("repro").removeHandler(handler)

        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        dispatches = [e for e in events if e["event"] == "batch_dispatch"]
        assert dispatches, "expected batch_dispatch events"
        fused_ids = [rid for e in dispatches for rid in e["request_ids"]]
        assert len(fused_ids) == 6  # every insert's id appears exactly once
        assert len(set(fused_ids)) == 6
        # Request events carry the same ids the dispatch fused.
        request_ids = {
            e["request_id"] for e in events if e["event"] == "request"
        }
        assert set(fused_ids) <= request_ids
        # Lifecycle events present.
        assert any(e["event"] == "server_started" for e in events)
        assert any(e["event"] == "server_stopped" for e in events)
