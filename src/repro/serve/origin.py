"""Simulated origin backend: the upstream a CDN edge fetches misses from.

The origin is where concurrency effects live — a trace replay only counts
misses, but a *service* pays for them: each miss occupies an origin
connection for a latency sample, the connection pool is bounded, fetches
can fail or hang, and the client retries with jittered exponential
backoff.  Everything here is simulated time (``asyncio.sleep``), so a
50 ms origin can be driven at thousands of requests per second on one
event loop without any real network.

Determinism: latency/failure draws come from a seeded ``random.Random``.
The *values* are reproducible; their assignment to fetches depends on
event-loop scheduling, so tests that need exact failure placement use the
injection hooks (:meth:`SimulatedOrigin.inject_failures` /
:meth:`SimulatedOrigin.inject_hangs`) instead of ``failure_rate``.
"""

from __future__ import annotations

import asyncio
import random
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = [
    "OriginError",
    "OriginConfig",
    "SimulatedOrigin",
    "RetryPolicy",
    "FetchOutcome",
    "fetch_with_retry",
]


class OriginError(Exception):
    """A (simulated) origin-side fetch failure."""


@dataclass(frozen=True)
class OriginConfig:
    """Knobs of the simulated origin.

    Parameters
    ----------
    latency_mean:
        Mean service time per fetch, seconds (0 = instant origin — the
        equivalence tests use this to strip time out of the picture).
    latency_jitter:
        Uniform jitter as a fraction of the mean: a fetch takes
        ``latency_mean * (1 ± U(0, jitter))`` seconds.
    concurrency:
        Maximum concurrent fetches the origin serves (its connection pool);
        excess fetches queue for a connection (pool pressure).
    failure_rate:
        Probability that a fetch attempt raises :class:`OriginError`
        (drawn per attempt, seeded).
    seed:
        Seeds the latency/failure RNG.
    """

    latency_mean: float = 0.002
    latency_jitter: float = 0.5
    concurrency: int = 64
    failure_rate: float = 0.0
    seed: int = 0


class SimulatedOrigin:
    """Bounded-concurrency origin with injectable faults.

    Counters (all exact, single event loop):

    * ``fetches_started`` / ``fetches_ok`` / ``fetches_failed`` — attempt
      accounting (a retried fetch counts one attempt per try);
    * ``bytes_served`` — sum of sizes of successful fetches;
    * ``inflight`` / ``inflight_peak`` — live and high-watermark
      concurrency, for verifying the pool bound.
    """

    def __init__(self, config: Optional[OriginConfig] = None):
        self.config = config or OriginConfig()
        self._rng = random.Random(self.config.seed)
        #: free connections, and the fetches queued for one (FIFO futures).
        self._free = max(self.config.concurrency, 1)
        self._waiters: deque = deque()
        self.fetches_started = 0
        self.fetches_ok = 0
        self.fetches_failed = 0
        self.bytes_served = 0
        self.inflight = 0
        self.inflight_peak = 0
        self._forced_failures = 0
        self._forced_hangs = 0
        self._hang_seconds = 3600.0

    # -- fault injection ---------------------------------------------------
    def inject_failures(self, n: int) -> None:
        """Force the next ``n`` fetch attempts to raise :class:`OriginError`
        (consumed before any ``failure_rate`` draw; deterministic)."""
        self._forced_failures += n

    def inject_hangs(self, n: int, seconds: float = 3600.0) -> None:
        """Force the next ``n`` attempts to stall for ``seconds`` — long
        enough to trip any sane client timeout."""
        self._forced_hangs += n
        self._hang_seconds = seconds

    # -- the fetch ---------------------------------------------------------
    def _latency(self) -> float:
        cfg = self.config
        if cfg.latency_mean <= 0:
            return 0.0
        jitter = cfg.latency_jitter * (2.0 * self._rng.random() - 1.0)
        return max(cfg.latency_mean * (1.0 + jitter), 0.0)

    async def _acquire(self) -> None:
        """Queue for a connection; the releasing fetch hands it over."""
        waiter = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        try:
            await waiter
        except asyncio.CancelledError:
            if not waiter.cancelled():  # handed a connection, then cancelled
                self._release()
            raise

    def _release(self) -> None:
        """Hand the connection to the oldest live waiter, else free it."""
        waiters = self._waiters
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return
        self._free += 1

    async def fetch(self, key, size: int) -> int:
        """One fetch attempt; returns the bytes served (= ``size``).

        Raises :class:`OriginError` on an (injected or drawn) failure.  The
        caller is responsible for timeouts — an injected hang sleeps while
        holding its connection, exactly like a wedged upstream one would.

        The pool is a free count and a FIFO of waiter futures: a fetch
        takes a free connection without awaiting anything when nobody is
        queued (a zero-latency fetch never suspends), and a release hands
        the connection straight to the oldest waiter still waiting.  That
        costs ~0.5 µs per zero-latency fetch, against ~1.2 µs for
        ``async with`` on an ``asyncio.Semaphore`` (CPython 3.11, 2-core
        Xeon).
        """
        self.fetches_started += 1
        if self._free and not self._waiters:
            self._free -= 1
        else:
            await self._acquire()
        self.inflight += 1
        if self.inflight > self.inflight_peak:
            self.inflight_peak = self.inflight
        try:
            if self._forced_hangs > 0:
                self._forced_hangs -= 1
                await asyncio.sleep(self._hang_seconds)
            delay = self._latency()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._forced_failures > 0:
                self._forced_failures -= 1
                raise OriginError(f"injected failure for key {key!r}")
            if self.config.failure_rate > 0 and self._rng.random() < self.config.failure_rate:
                raise OriginError(f"origin 5xx for key {key!r}")
        except OriginError:
            self.fetches_failed += 1
            raise
        finally:
            self.inflight -= 1
            self._release()
        self.fetches_ok += 1
        self.bytes_served += size
        return size

    def stats(self) -> dict:
        return {
            "fetches_started": self.fetches_started,
            "fetches_ok": self.fetches_ok,
            "fetches_failed": self.fetches_failed,
            "bytes_served": self.bytes_served,
            "inflight_peak": self.inflight_peak,
        }


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry behaviour for origin fetches.

    Parameters
    ----------
    timeout:
        Per-attempt client timeout, seconds (``None`` = wait forever; the
        equivalence tests use this to skip the deadline bookkeeping).
    max_retries:
        Additional attempts after the first (0 = fail fast).
    backoff_base:
        First backoff delay, seconds; doubles per retry.
    backoff_cap:
        Upper bound on any single backoff delay.
    jitter:
        Backoff is multiplied by ``U(1 - jitter, 1)`` — full-jitter-style
        decorrelation so coordinated retries don't re-stampede the origin.
    """

    timeout: Optional[float] = 0.5
    max_retries: int = 3
    backoff_base: float = 0.005
    backoff_cap: float = 0.25
    jitter: float = 0.5

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry ``attempt`` (1-based)."""
        raw = min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_cap)
        return raw * (1.0 - self.jitter * rng.random())


class FetchOutcome:
    """Terminal result of one (possibly retried) origin fetch."""

    __slots__ = ("key", "size", "ok", "error", "attempts", "timeouts", "elapsed")

    def __init__(
        self,
        key,
        size: int,
        ok: bool,
        error: Optional[str],
        attempts: int,
        timeouts: int,
        elapsed: float,
    ):
        self.key = key
        self.size = size
        self.ok = ok
        self.error = error
        self.attempts = attempts
        self.timeouts = timeouts
        self.elapsed = elapsed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "ok" if self.ok else f"error={self.error!r}"
        return f"FetchOutcome(key={self.key!r}, {state}, attempts={self.attempts})"


#: ``Task.cancelling`` / ``Task.uncancel`` arrived in Python 3.11.
_CAN_UNCANCEL = hasattr(asyncio.Task, "uncancel")

#: How far ahead of ``loop.time()`` the loop itself runs a timer: a
#: deadline within it has expired (asyncio's own rule for its heap).
_CLOCK_RESOLUTION = time.get_clock_info("monotonic").resolution


class _Deadlines:
    """The attempt deadlines of one event loop under one timeout.

    Every deadline is ``loop.time() + timeout``, so appending keeps the
    queue in deadline order.  An entry is ``[deadline, task, fired]``; the
    attempt sets ``task`` to ``None`` when it ends, and the next arm drops
    such disarmed entries off the head.  At most one loop timer is pending,
    at the oldest live deadline it knew of; when it fires it cancels every
    expired live entry and re-arms at the next live head.  Nothing here
    refers to the loop or to a ``TimerHandle``, and a task only while its
    attempt runs, so the registry keyed by the loop cannot keep it alive.
    """

    __slots__ = ("entries", "armed")

    def __init__(self) -> None:
        self.entries: deque = deque()
        self.armed = False

    def arm(self, loop, entry: list) -> None:
        entries = self.entries
        while entries and entries[0][1] is None:
            entries.popleft()
        entries.append(entry)
        if not self.armed:
            self.armed = True
            loop.call_at(entries[0][0], self._fire)

    def _fire(self) -> None:
        loop = asyncio.get_running_loop()
        entries = self.entries
        now = loop.time() + _CLOCK_RESOLUTION
        while entries:
            deadline, task, _ = entry = entries[0]
            if task is not None:
                if deadline > now:
                    loop.call_at(deadline, self._fire)
                    return
                entry[2] = True
                task.cancel()
            entries.popleft()
        self.armed = False


#: loop -> {timeout: _Deadlines}.  Keyed by the loop, not kept on the
#: origin or the retry policy: those can outlive a loop and serve the next
#: one.  Weak keys, so an entry dies with its loop.
_DEADLINES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _deadlines(loop, timeout: float) -> _Deadlines:
    try:
        return _DEADLINES[loop][timeout]
    except KeyError:
        return _DEADLINES.setdefault(loop, {}).setdefault(timeout, _Deadlines())


async def _attempt(origin: SimulatedOrigin, key, size: int, timeout: float, loop) -> None:
    """One ``origin.fetch`` on the running ``loop`` under a deadline;
    ``asyncio.TimeoutError`` past it.

    The deadline is an entry in the loop's queue for ``timeout``
    (:class:`_Deadlines`), not a timer of its own: a fetch that finishes in
    time arms nothing and cancels nothing, it only disarms its entry.  If
    the deadline passes first, the queue's timer cancels the awaiting task
    and the resulting ``CancelledError`` is turned back into this attempt's
    timeout — no inner task, no second future (``asyncio.wait_for`` on
    3.10/3.11 costs both).  A zero-latency ``fetch_with_retry`` costs
    ~2.6–2.9 µs this way, against ~6.2–7.0 µs with a ``call_later`` timer
    per attempt (CPython 3.11, 2-core Xeon).
    A cancellation from outside still propagates: where ``Task.uncancel``
    exists (3.11+) the deadline's own request is balanced and any other one
    is left standing; on 3.10 the two are told apart only by whether the
    deadline fired, so a caller's cancel landing in the same loop turn as
    the deadline reads as a timeout.
    """
    task = asyncio.current_task(loop)
    pending_cancels = task.cancelling() if _CAN_UNCANCEL else 0
    entry = [loop.time() + timeout, task, False]
    _deadlines(loop, timeout).arm(loop, entry)
    try:
        await origin.fetch(key, size)
    except asyncio.CancelledError:
        if entry[2] and (not _CAN_UNCANCEL or task.uncancel() <= pending_cancels):
            raise asyncio.TimeoutError from None
        raise
    finally:
        entry[1] = None


async def fetch_with_retry(
    origin: SimulatedOrigin,
    key,
    size: int,
    retry: RetryPolicy,
    rng: random.Random,
    on_retry: Optional[Callable[[int, str], None]] = None,
    span=None,
) -> FetchOutcome:
    """Fetch ``key`` with per-attempt timeout and jittered backoff.

    Runs in the caller's task.  Never raises for an origin condition:
    failures after the final attempt are folded into the returned
    :class:`FetchOutcome` (``ok=False``), so a wedged origin degrades the
    service's metrics instead of crashing its tasks; only the caller's own
    cancellation propagates.
    ``on_retry(attempt, reason)`` fires before each backoff sleep — the
    shard wires it to the ``fetch_retry`` probe event and counter.
    ``span``, if any, parents one ``origin_attempt`` child per try (status
    ``ok`` / ``timeout`` / ``error``) and a ``retry_backoff`` child per
    backoff sleep, so retry storms are visible in the trace waterfall.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    attempts = 0
    timeouts = 0
    error: Optional[str] = None
    for attempt in range(retry.max_retries + 1):
        attempts += 1
        aspan = (
            span.child("origin_attempt", attempt=attempts)
            if span is not None
            else None
        )
        try:
            if retry.timeout is None:
                await origin.fetch(key, size)
            else:
                await _attempt(origin, key, size, retry.timeout, loop)
            if aspan is not None:
                aspan.end()
            return FetchOutcome(key, size, True, None, attempts, timeouts, loop.time() - start)
        except asyncio.TimeoutError:
            timeouts += 1
            error = f"timeout after {retry.timeout}s"
            if aspan is not None:
                aspan.end("timeout")
        except OriginError as exc:
            error = str(exc)
            if aspan is not None:
                aspan.end("error")
        if attempt < retry.max_retries:
            if on_retry is not None:
                on_retry(attempts, error)
            delay = retry.backoff(attempt + 1, rng)
            if delay > 0:
                bspan = (
                    span.child("retry_backoff", attempt=attempts)
                    if span is not None
                    else None
                )
                await asyncio.sleep(delay)
                if bspan is not None:
                    bspan.end()
    return FetchOutcome(key, size, False, error, attempts, timeouts, loop.time() - start)
