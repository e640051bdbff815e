"""The two drivers against a stub service."""

import asyncio
import time

from ladder.harness import Measured
from ladder.loadgen import closed_loop, open_loop


class Req:
    def __init__(self, i):
        self.time = i


class Out:
    hit, ok = True, True


async def get(req, span=None):
    await asyncio.sleep(0)
    return Out()


def test_open_loop_sends_exactly_n_at_the_asked_rate():
    n, rate = 1500, 1500.0
    reqs = [Req(i) for i in range(n)]
    seen = []

    async def counting_get(req):
        seen.append(req.time)
        return await get(req)

    t = time.perf_counter()
    load = asyncio.run(open_loop(counting_get, reqs, rate))
    elapsed = time.perf_counter() - t
    assert seen == list(range(n)), "every request once, in order"
    assert all(v >= 0 for v in load.latency_ns) and load.exceptions == 0
    achieved = n / load.wall_s
    assert abs(achieved - rate) / rate < 0.02, achieved
    assert elapsed < 2 * n / rate
    assert len(load.late_ns) == n and min(load.late_ns) >= 0


def test_open_loop_times_from_the_due_instant():
    """A service that stalls the loop delays later requests; they are charged for it."""

    async def stalling_get(req):
        if req.time == 0:
            time.sleep(0.05)  # blocks the event loop, generator included
        return Out()

    load = asyncio.run(open_loop(stalling_get, [Req(i) for i in range(50)], 1000.0))
    assert max(load.late_ns) > 20e6, "the generator reports how late it ran"
    late_ones = [lat for lat, late in zip(load.latency_ns, load.late_ns) if late > 20e6]
    assert late_ones and min(late_ones) > 20e6, "latency includes the wait before the send"


def test_closed_loop_fills_every_slot():
    reqs = [Req(i) for i in range(1003)]
    load = asyncio.run(closed_loop(get, reqs, clients=16))
    assert all(v >= 0 for v in load.latency_ns) and sum(load.hit) == 1003 and sum(load.failed) == 0
    assert load.wall_s > 0 and load.cpu_s > 0
    m = Measured()
    m.start()
    m.add(load.n, load.wall_s, load.cpu_s, load.latency_ns)
    assert m.units == [(1003, load.wall_s, load.cpu_s)]
    assert len(m.reference) == 4 and min(m.reference) > 0, "host-reference slices before and after the unit"
    assert len(m.latency) == 1 and m.latency_samples == 1003 and m.attempted == 1003


def test_a_raising_get_is_counted_not_propagated():
    async def bad_get(req):
        raise RuntimeError("boom")

    load = asyncio.run(closed_loop(bad_get, [Req(i) for i in range(10)], clients=2))
    assert load.exceptions == 10 and all(v < 0 for v in load.latency_ns)
    load = asyncio.run(open_loop(bad_get, [Req(i) for i in range(10)], 5000.0))
    assert load.exceptions == 10 and all(v < 0 for v in load.latency_ns)
