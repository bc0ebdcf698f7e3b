"""Lightweight timer spans feeding the power-of-two histograms.

Not a distributed tracer — a wall-clock stopwatch whose observations
land in the same :class:`~repro.service.metrics.Histogram` machinery the
request path already uses, so span durations show up in STATS and on
``/metrics`` as ``repro_span_duration_seconds{span="..."}`` next to the
request latencies they decompose.  The daemon instruments four spans:
``protocol_decode`` (frame body → request), ``coalesce_wait`` (enqueue →
dispatch, the latency the batcher *adds*), ``filter_execute`` (bulk
filter work, inline on the event loop) and ``snapshot_write``.

Two ways in: ``with span("name", sink): ...`` for a block, or
``@spanned("name")`` on a method of an object carrying a sink attribute
(sync or async).  A *sink* is either a callable ``(name, micros)`` or
anything with an ``observe_span`` method — :class:`ServiceMetrics` is
the usual one.  A ``None`` sink times but records nowhere, so
instrumented code never needs a metrics-is-enabled branch.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable

__all__ = ["Span", "span", "spanned"]


def _as_sink(sink) -> Callable[[str, float], None] | None:
    if sink is None:
        return None
    observe = getattr(sink, "observe_span", None)
    if observe is not None:
        return observe
    if callable(sink):
        return sink
    raise TypeError(
        f"span sink must be callable or have .observe_span, got {type(sink).__name__}"
    )


class Span:
    """Context manager timing one block; see :func:`span`."""

    __slots__ = ("name", "_sink", "_started", "elapsed_us")

    def __init__(self, name: str, sink=None) -> None:
        self.name = name
        self._sink = _as_sink(sink)
        self._started: float | None = None
        #: Duration of the last completed block, microseconds.
        self.elapsed_us: float = 0.0

    def __enter__(self) -> "Span":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._started is not None
        self.elapsed_us = (time.perf_counter() - self._started) * 1e6
        if self._sink is not None:
            self._sink(self.name, self.elapsed_us)
        return False  # exceptions propagate; the failed attempt is still timed


def span(name: str, sink=None) -> Span:
    """Time a ``with`` block and record its duration (µs) into ``sink``.

    >>> metrics_like = []
    >>> with span("demo", lambda n, us: metrics_like.append(n)):
    ...     pass
    >>> metrics_like
    ['demo']
    """
    return Span(name, sink)


def spanned(name: str, *, sink_attr: str = "metrics"):
    """Decorate a method so every call is timed as ``name``.

    The sink is resolved per call from ``getattr(self, sink_attr)``
    (``None`` is fine — the call is still timed, just unrecorded), so
    the decorator works on objects whose metrics registry is optional
    or attached after construction.  Supports sync and async methods.
    """

    def decorate(fn):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(self, *args, **kwargs):
                with span(name, getattr(self, sink_attr, None)):
                    return await fn(self, *args, **kwargs)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            with span(name, getattr(self, sink_attr, None)):
                return fn(self, *args, **kwargs)

        return wrapper

    return decorate
