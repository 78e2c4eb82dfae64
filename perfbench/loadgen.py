"""Closed-loop load generator and latency recording.

Each client is an investigator (or the committing pipeline) that waits
for every reply before sending its next operation, so a slow system
receives less load.  A client walks its own planned operation stream,
wrapping around if the run outlasts it.  Every latency is kept (no
reservoir): a run records at most a few tens of thousands.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple


class OperationFailed(Exception):
    """An operation the program answered, but not with success."""

    def __init__(self, kind: str, message: str = ""):
        super().__init__(message or kind)
        self.kind = kind


@dataclass
class LoopResult:
    """What one closed-loop window measured."""

    begin: float
    end: float
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    attempted: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    #: Operations in completion order per client: ``(kind, payload, reply)``.
    completed: List[List[Tuple[str, str, object]]] = field(default_factory=list)
    #: Per client, the plan position after its last operation.
    positions: List[int] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.begin

    @classmethod
    def pooled(cls, results: Sequence["LoopResult"]) -> "LoopResult":
        """Windows measured one after another, as one: samples pooled,
        ``wall`` the sum of the windows' walls."""
        merged = cls(begin=0.0, end=sum(r.wall for r in results))
        for result in results:
            for kind, values in result.latencies.items():
                merged.latencies.setdefault(kind, []).extend(values)
            merged.attempted.update(result.attempted)
            merged.failures.update(result.failures)
            merged.completed.extend(result.completed)
        merged.positions = list(results[-1].positions)
        return merged


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def closed_loop(
    callers: Sequence[Callable[[str, str], object]],
    plans: Sequence[Sequence[Tuple[str, str]]],
    seconds: float,
    *,
    start: Sequence[int] = (),
    cycle_whole: bool = False,
) -> LoopResult:
    """Run one client thread per caller for ``seconds``.

    ``callers[i](kind, payload)`` performs one operation and returns its
    reply, raising on failure.  Client ``i`` begins at plan position
    ``start[i]`` (default 0).  With ``cycle_whole`` a client walks whole
    passes over its plan, at least one, and stops at the pass boundary
    nearest ``seconds`` (used where work counts must repeat exactly, or
    every operation must run as often as every other).
    """
    clients = len(callers)
    positions = list(start) or [0] * clients
    latencies = [dict() for _ in range(clients)]
    attempted = [Counter() for _ in range(clients)]
    failures = [Counter() for _ in range(clients)]
    completed: List[List[Tuple[str, str, object]]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    errors: List[BaseException] = []

    def client(index: int) -> None:
        call, plan = callers[index], plans[index]
        mine, tried, failed, done = (
            latencies[index], attempted[index], failures[index], completed[index]
        )
        barrier.wait()
        pass_began = time.perf_counter()
        deadline = pass_began + seconds
        position = first = positions[index]
        try:
            while True:
                if not cycle_whole:
                    if time.perf_counter() >= deadline:
                        break
                elif position % len(plan) == 0 and position > first:
                    # Stop at the pass boundary nearest the deadline.
                    now = time.perf_counter()
                    if now + (now - pass_began) / 2 >= deadline:
                        break
                    pass_began = now
                kind, payload = plan[position % len(plan)]
                position += 1
                tried[kind] += 1
                started = time.perf_counter()
                try:
                    reply = call(kind, payload)
                except OperationFailed as exc:
                    failed[f"{kind}:{exc.kind}"] += 1
                    continue
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    failed[f"{kind}:{type(exc).__name__}"] += 1
                    continue
                mine.setdefault(kind, []).append(time.perf_counter() - started)
                done.append((kind, payload, reply))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)
        positions[index] = position

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    if errors:
        raise errors[0]
    result = LoopResult(begin=begin, end=end, completed=completed, positions=positions)
    for index in range(clients):
        for kind, values in latencies[index].items():
            result.latencies.setdefault(kind, []).extend(values)
        result.attempted.update(attempted[index])
        result.failures.update(failures[index])
    return result
