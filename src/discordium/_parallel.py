"""Bounded, deterministic process fan-out for the verification batteries.

The DISCORDIUM_THREADS environment variable caps how many workers the
batteries may use (default and upper limit: hardware concurrency).
Battery trials are independent, so they fan out across processes.  An
optimizer battery's trial runs for about a second, but an oracle
battery's costs only 0.3-1.5 ms, so there the fan-out pays only once a
call is large enough to repay the pool's start-up: on a 2-core host the
four oracle batteries take 0.82 s at 500 trials each with two workers,
against 1.26 s in one process, but 0.32 s against 0.27 s at 100 trials.
Optimizer restarts are dominated by small-matrix numpy calls that
CPython threads only slow down, so ``optimize`` runs them in lockstep in
one process, evaluating each round's points as one numpy stack, and does
not come here.  Results are always merged by task index, making the
outcome schedule-independent.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def worker_cap() -> int:
    cpus = os.cpu_count() or 1
    raw = os.environ.get("DISCORDIUM_THREADS")
    if raw is None:
        return cpus
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"DISCORDIUM_THREADS must be an integer, got {raw!r}")
    return min(max(1, n), cpus)


def process_map(fn: Callable[..., T], argument_tuples: Sequence[tuple]) -> list[T]:
    """Map a picklable function over argument tuples, in parallel when the
    worker cap allows, preserving argument order in the results.

    Tasks go to the workers in chunks of about a quarter of each worker's
    share, so per-task IPC does not eat the fan-out while the chunks stay
    small enough to balance uneven trials.
    """
    n = len(argument_tuples)
    workers = min(worker_cap(), n)
    if workers <= 1:
        return [fn(*args) for args in argument_tuples]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = math.ceil(n / (4 * workers))
        return list(pool.map(fn, *zip(*argument_tuples), chunksize=chunk))
