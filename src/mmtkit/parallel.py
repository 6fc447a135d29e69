"""Order-preserving parallel map.

Worker outputs are merged back in input order, so results are identical for
any worker count; parallelism can only change timing, never content.

No CLI stage calls this: the work is GIL-bound, so threads only added time
and memory. It has two callers left: the benchmark's parallel.* layer
metrics, and acceptance criterion 4 (tests/test_acceptance.py), which checks
kept ids through ordered_map(..., workers=4). Both must go before this module
can.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 1,
    chunksize: int = 64,
) -> Iterator[R]:
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunksize)
