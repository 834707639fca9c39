"""The benchmark's own open-loop request generator.

One thread sends request ``i`` at its scheduled time ``t0 + i / rate``
whether or not earlier requests have been answered (independent users), so
a stall in the server shows up as queueing.  Latency is measured from the
*scheduled* send time, which charges a stall to every request it delays;
how late the generator itself ran is recorded separately.  The generator
does not use ``repro.serving.loadgen``, so changing that module cannot move
the benchmark.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: how long to wait for the last answers after the final send
DRAIN_TIMEOUT_S = 60.0


@dataclass
class OpenLoopResult:
    scheduled: np.ndarray
    lateness: np.ndarray
    done: np.ndarray
    outcome: list[str]
    values: list = field(repr=False)

    @property
    def sent(self) -> int:
        return len(self.outcome)

    def count(self, outcome: str) -> int:
        return sum(1 for value in self.outcome if value == outcome)

    def latencies(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Latency in seconds of the answered requests among ``[start, stop)``."""
        ok = np.array([value == "ok" for value in self.outcome[start:stop]], dtype=bool)
        return (self.done[start:stop] - self.scheduled[start:stop])[ok]


def run_open_loop(submit, rows, *, rate: float, n_requests: int, classify, at_half=None):
    """Send ``n_requests`` single-row requests at ``rate`` per second.

    ``submit(row)`` returns a future; ``classify(exception)`` maps a failure
    (raised by ``submit`` or set on the future) to ``"refused"``,
    ``"expired"`` or ``"failed"``.  ``at_half`` is called once, just before
    the request at index ``n_requests // 2`` is due.  Futures are not kept:
    each one's outcome is recorded by its done callback, so the generator
    adds nothing to the heap the server's garbage collector walks.
    """
    scheduled = np.empty(n_requests)
    lateness = np.empty(n_requests)
    done = np.full(n_requests, np.nan)
    outcome = ["pending"] * n_requests
    values: list = [None] * n_requests
    lock = threading.Lock()
    unsettled = [n_requests]
    all_settled = threading.Event()

    def settle(index: int, result: str, value=None) -> None:
        done[index] = time.perf_counter()
        outcome[index] = result
        values[index] = value
        with lock:
            unsettled[0] -= 1
            if unsettled[0] == 0:
                all_settled.set()

    def on_done(index: int):
        def callback(future):
            error = future.exception()
            if error is None:
                settle(index, "ok", future.result())
            else:
                settle(index, classify(error))

        return callback

    t0 = time.perf_counter() + 0.01
    for index in range(n_requests):
        if at_half is not None and index == n_requests // 2:
            at_half()
        due = t0 + index / rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        scheduled[index] = due
        lateness[index] = time.perf_counter() - due
        try:
            future = submit(rows[index % len(rows)])
        except Exception as error:  # refused at admission, or a bad request
            settle(index, classify(error))
            continue
        future.add_done_callback(on_done(index))
    all_settled.wait(timeout=DRAIN_TIMEOUT_S)
    with lock:  # requests never answered count as failed
        for index, value in enumerate(outcome):
            if value == "pending":
                outcome[index] = "failed"
    return OpenLoopResult(scheduled, lateness, done, outcome, values)
