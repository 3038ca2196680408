"""Ordered map over work items, on the calling thread.

Subset enumeration and Monte Carlo sampling hand their blocks to
:func:`map_ordered`.  The work holds the interpreter lock, so a thread
pool gave no speedup and only raised memory; the package now runs on one
thread.  The module remains only because the traced benchmark run
(``perfbench/layers.py``) imports it, calls :func:`thread_count` and
patches ``cmn_means.map_ordered`` with this signature.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

__all__ = ["thread_count", "map_ordered"]

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    """Worker count: always 1."""
    return 1


def map_ordered(fn: Callable[[T], R], items: Iterable[T], threads: int | None = None) -> list[R]:
    """``[fn(item) for item in items]``; ``threads`` is accepted and ignored."""
    return [fn(item) for item in items]
