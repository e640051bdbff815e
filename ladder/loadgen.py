"""Closed- and open-loop drivers around an ``async get(req)``.

Both write ``perf_counter_ns`` deltas into preallocated per-request slots,
so percentiles are exact (``repro.serve.run_loadgen`` feeds a log2
histogram whose quantiles are bucket upper edges).  Load comes from one
event loop: clients are coroutines, never threads.

* **closed loop** — ``clients`` coroutines share one iterator; each awaits
  its reply before taking the next request (callers of an in-process
  library wait for their answer).  Latency runs from the call to the reply.
* **open loop** — requests are sent on a fixed schedule whatever the
  service does.  Latency runs from the instant the request was *due*, so a
  stall is charged to every request it delays, and the generator's own
  lateness is reported beside it.  In-flight tasks are held in a set that
  empties as they finish; nothing grows with the request count.
"""

from __future__ import annotations

import asyncio
from functools import partial
from time import perf_counter_ns, process_time
from typing import Awaitable, Callable, List, Optional, Sequence

__all__ = ["LoadResult", "closed_loop", "open_loop", "windows_of", "miss_ratios", "count_failed"]


class LoadResult:
    """Per-request slots of one driven pass, indexed by trace position."""

    def __init__(self, n: int):
        self.n = n
        self.latency_ns: List[int] = [-1] * n  # -1 = the request has no outcome
        self.hit: List[int] = [0] * n
        self.failed: List[int] = [0] * n  # shed or terminal error
        self.late_ns: List[int] = []  # open loop only: send instant - due instant
        self.exceptions = 0
        #: open loop only: requests still open when the last one was sent.
        self.backlog = 0
        #: first send to last reply (open loop: the sends' own span, whose
        #: inverse is the achieved rate); ``cpu_s`` always runs to the last reply.
        self.wall_s = 0.0
        self.cpu_s = 0.0


async def closed_loop(
    get: Callable[..., Awaitable],
    requests: Sequence,
    clients: int = 16,
    before: Optional[Callable[[], Awaitable]] = None,
    on_send: Optional[Callable] = None,
) -> LoadResult:
    """Drive ``requests`` through ``get`` with ``clients`` waiting callers.

    ``before`` is awaited ahead of every request (the cluster workload
    applies its fault plan there); ``on_send(req)`` is the traced run's
    hook.
    """
    res = LoadResult(len(requests))
    latency, hit, failed = res.latency_ns, res.hit, res.failed
    feed = enumerate(requests)

    async def client() -> None:
        for i, req in feed:
            if before is not None:
                await before()
            if on_send is not None:
                on_send(req)
            t = perf_counter_ns()
            try:
                out = await get(req)
            except Exception:  # the layers promise never to raise; count it if one does
                res.exceptions += 1
                continue
            latency[i] = perf_counter_ns() - t
            hit[i] = out.hit
            failed[i] = not out.ok

    c0, t0 = process_time(), perf_counter_ns()
    await asyncio.gather(*(client() for _ in range(clients)))
    res.wall_s, res.cpu_s = (perf_counter_ns() - t0) / 1e9, process_time() - c0
    return res


async def open_loop(
    get: Callable[..., Awaitable],
    requests: Sequence,
    rate: float,
    on_send: Optional[Callable] = None,
) -> LoadResult:
    """Send ``requests`` at ``rate`` per second, each timed from its due instant."""
    res = LoadResult(len(requests))
    latency, hit, failed = res.latency_ns, res.hit, res.failed
    late = res.late_ns = [0] * res.n
    loop = asyncio.get_running_loop()
    inflight: set = set()
    interval_ns = 1e9 / rate

    def finish(i: int, due: int, task: asyncio.Task) -> None:
        inflight.discard(task)
        try:
            out = task.result()
        except Exception:
            res.exceptions += 1
            return
        latency[i] = perf_counter_ns() - due
        hit[i] = out.hit
        failed[i] = not out.ok

    c0, t0 = process_time(), perf_counter_ns()
    for i, req in enumerate(requests):
        due = t0 + int(i * interval_ns)
        now = perf_counter_ns()
        if due > now:
            await asyncio.sleep((due - now) / 1e9)
            now = perf_counter_ns()
        late[i] = now - due
        if on_send is not None:
            on_send(req)
        task = loop.create_task(get(req))
        inflight.add(task)
        task.add_done_callback(partial(finish, i, due))
    # n sends, one interval each: the last send's interval is still to run
    res.wall_s = (perf_counter_ns() - t0 + interval_ns) / 1e9
    res.backlog = len(inflight)
    while inflight:  # `finish` was added to each task first, so it has run by the time wait returns
        await asyncio.wait(inflight)
    res.cpu_s = process_time() - c0
    return res


def windows_of(requests: Sequence, windows: int) -> list:
    """``requests`` cut into ``windows`` consecutive slices (fewer if there
    are fewer requests)."""
    n = len(requests)
    bounds = [n * k // windows for k in range(windows + 1)]
    return [requests[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def miss_ratios(requests: Sequence, *loads: LoadResult) -> tuple:
    """Object and byte miss ratio over consecutive passes of ``requests``.
    A request that was shed or failed was not served from the cache: a miss."""
    misses = total = missed_bytes = total_bytes = 0
    at = 0
    for load in loads:
        for req, hit in zip(requests[at : at + load.n], load.hit):
            total += 1
            total_bytes += req.size
            if not hit:
                misses += 1
                missed_bytes += req.size
        at += load.n
    return misses / max(total, 1), missed_bytes / max(total_bytes, 1)


def count_failed(*loads: LoadResult) -> int:
    """Requests that were shed, errored, raised or never got an outcome."""
    return sum(sum(ld.failed) + ld.exceptions + sum(1 for v in ld.latency_ns if v < 0) for ld in loads)
