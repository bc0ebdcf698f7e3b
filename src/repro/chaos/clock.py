"""Virtual time for the simulation harness.

:class:`SimClock` is a plain settable monotonic counter; it slots into
every ``clock=`` seam in :mod:`repro.overload` (breakers, token
buckets, deadlines) for direct unit tests.

:class:`SimEventLoop` is an asyncio event loop that runs on SimClock
time: ``loop.time()`` reads the virtual clock, and whenever the loop
would otherwise *sleep* waiting for the next scheduled callback, the
selector advances the clock to that callback's deadline instead and
returns immediately.  Every ``asyncio.sleep`` / ``wait_for`` /
``call_later`` in the unmodified production code therefore rides
virtual time automatically — a 60-second retry/backoff/quorum-timeout
schedule executes in milliseconds of wall clock.

Worker threads are the one thing that cannot be virtualised.  Filter
kernels run inline on the loop's thread, so the simulated cluster needs
none, but asyncio itself may still hand work to an executor via
``run_in_executor``.  The loop counts in-flight executor work and,
while any is pending, polls the real selector in short slices *without
advancing the clock* — so a timer can never fire "during" a
computation that would have finished first, which keeps cross-thread
interleavings deterministic.
"""

from __future__ import annotations

import asyncio
import selectors

__all__ = ["SimClock", "SimEventLoop"]


class SimClock:
    """A settable monotonic clock (seconds, starts at ``start``).

    Works both as an object (``clock.time()``) and, via
    :meth:`__call__`, as a drop-in for the ``clock=`` callable seams in
    :mod:`repro.overload`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def time(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # The overload seams take a zero-arg callable; pass the instance.
    def __call__(self) -> float:
        return self._now

    def advance(self, delta_s: float) -> float:
        """Move time forward by ``delta_s`` seconds; returns the new time."""
        if delta_s < 0:
            raise ValueError(f"cannot advance time by {delta_s}")
        self._now += delta_s
        return self._now

    def monotonic(self) -> float:
        """Alias for :meth:`time` (mirrors :func:`time.monotonic`)."""
        return self._now


class _SimState:
    """Shared mutable state between the loop and its selector."""

    __slots__ = ("clock", "executor_inflight", "idle_selects")

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.executor_inflight = 0
        self.idle_selects = 0


#: Consecutive fruitless blocking selects (no events, no timers, no
#: executor work) before the loop declares the simulation deadlocked.
#: Each costs ~1 ms of real time, so this bounds a hung run to seconds.
_DEADLOCK_LIMIT = 5000

#: Real-time slice used when the loop must genuinely wait (executor
#: work in flight, or no timer to advance to).
_REAL_SLICE_S = 0.001


class _AdvancingSelector:
    """Selector wrapper that converts sleeps into clock advances.

    ``select(timeout)`` first polls real I/O readiness (the loop's
    self-pipe is real — ``call_soon_threadsafe`` from worker threads
    lands there).  With nothing ready:

    - executor work in flight → short *real* select, clock frozen;
    - a timer deadline (``timeout`` is finite) → advance the virtual
      clock straight to it and return no events;
    - nothing scheduled at all → short real select, with a bounded
      budget after which the simulation is declared deadlocked.
    """

    def __init__(
        self, inner: selectors.BaseSelector, state: _SimState
    ) -> None:
        self._inner = inner
        self._state = state

    def select(self, timeout=None):
        events = self._inner.select(0)
        if events:
            self._state.idle_selects = 0
            return events
        if self._state.executor_inflight > 0:
            self._state.idle_selects = 0
            return self._inner.select(_REAL_SLICE_S)
        if timeout is None:
            self._state.idle_selects += 1
            if self._state.idle_selects > _DEADLOCK_LIMIT:
                raise RuntimeError(
                    "simulation deadlock: no ready callbacks, no timers, "
                    "and no executor work for too long"
                )
            return self._inner.select(_REAL_SLICE_S)
        self._state.idle_selects = 0
        if timeout > 0:
            self._state.clock.advance(timeout)
        return []

    # -- plain delegation -------------------------------------------------
    def register(self, fileobj, events, data=None):
        return self._inner.register(fileobj, events, data)

    def unregister(self, fileobj):
        return self._inner.unregister(fileobj)

    def modify(self, fileobj, events, data=None):
        return self._inner.modify(fileobj, events, data)

    def get_key(self, fileobj):
        return self._inner.get_key(fileobj)

    def get_map(self):
        return self._inner.get_map()

    def close(self):
        return self._inner.close()


class SimEventLoop(asyncio.SelectorEventLoop):
    """Asyncio event loop running on a :class:`SimClock`.

    Use like any loop::

        clock = SimClock()
        loop = SimEventLoop(clock)
        asyncio.set_event_loop(loop)
        loop.run_until_complete(main())

    ``loop.time()`` is virtual; ``await asyncio.sleep(60)`` returns in
    microseconds of real time.  ``run_in_executor`` still uses real
    threads, but the clock is frozen while any executor call is in
    flight (see the module docstring).
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._sim_state = _SimState(self.clock)
        super().__init__(
            selector=_AdvancingSelector(
                selectors.DefaultSelector(), self._sim_state
            )
        )

    def time(self) -> float:
        return self.clock.time()

    def run_in_executor(self, executor, func, *args):
        future = super().run_in_executor(executor, func, *args)
        state = self._sim_state
        state.executor_inflight += 1

        def _done(_future) -> None:
            state.executor_inflight -= 1

        future.add_done_callback(_done)
        return future
