"""Start a repro daemon, optionally with the layer wrappers installed.

    python3 perfbench/launch.py [--trace-out SPANS.npz] <repro CLI args...>

Without ``--trace-out`` this is exactly ``repro <args>``.  With it, the
wrappers from :mod:`tracing` are installed before the CLI builds the
server, and every span is written to ``SPANS.npz`` when the daemon exits
(SIGTERM drains it first, so the file holds the whole run).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from repro import cli

    if trace_out is None:
        return cli.main(argv)

    import tracing

    tracer = tracing.Tracer()
    tracing.install_daemon_wrappers(tracer)
    try:
        return cli.main(argv)
    finally:
        if tracer.bank is not None:
            tracer.meta["saturated_words"] = tracing.saturated_words(tracer.bank)
        tracer.dump(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
