"""The one runner every experiment sweep goes through.

Every experiment here is a merge over independent replicas — a
(function × mode × age × seed) trial of Figure 2/4, a (network × run)
cell of Figure 3, a quality run of Q1.  Each builds its own machine,
seeds its own RNG streams and returns plain data, so replicas are
embarrassingly parallel across cores, like the independent-replica
simulations of Lubachevsky's cellular-array work (PAPERS.md).

A sweep is a list of *cells*, ``(key, call)`` pairs: ``call`` takes no
arguments and is picklable (a module-level function bound to its
arguments with :func:`functools.partial`), and ``key`` names the group
its result belongs to.  :func:`run_cells` returns ``{key: [result,
...]}`` with keys in first-listed order and each group in the order its
cells were listed, never completion order; since every replica seeds
itself from its arguments, a run at ``--jobs 8`` is bit-identical to a
serial one.

``REPRO_JOBS`` (or a driver's ``--jobs``, parsed by :func:`parse_jobs`)
sets the worker count: ``N`` workers, ``0``/``auto`` one per CPU, unset
serial in-process (no pool, no pickling).  A pool that cannot be created
(restricted sandboxes, no semaphore support) degrades to the serial loop
with one stderr line naming the exception.
"""

from __future__ import annotations

import os
import sys
from argparse import ArgumentTypeError
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Hashable, Iterable

#: one unit of a sweep: the group key and a picklable zero-argument call
Cell = tuple[Hashable, Callable[[], Any]]

#: environment variable naming the worker count
JOBS_ENV = "REPRO_JOBS"


def parse_jobs(raw: str) -> int:
    """Worker count from a ``REPRO_JOBS`` / ``--jobs`` value.

    ``0`` and ``auto`` mean one worker per CPU; a negative or
    non-integer value raises :class:`argparse.ArgumentTypeError`, which
    argparse reports naming the flag.
    """
    text = raw.strip().lower()
    if text == "auto":
        return os.cpu_count() or 1
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise ArgumentTypeError(f"expected an integer >= 0 or 'auto', got {raw!r}")
    return n or (os.cpu_count() or 1)


def configured_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (unset or empty → 1, serial)."""
    raw = os.environ.get(JOBS_ENV)
    if raw is None or not raw.strip():
        return 1
    try:
        return parse_jobs(raw)
    except ArgumentTypeError as exc:
        raise ValueError(f"{JOBS_ENV}: {exc}") from None


def run_cells(cells: Iterable[Cell], jobs: int | None = None) -> dict[Any, list]:
    """Run every cell's call and group the results by key, in list order.

    ``jobs`` is the worker count (None → :func:`configured_jobs`); one
    job, or a single cell, runs serially in-process.  A call that raises
    propagates its exception exactly as the serial loop would.
    """
    cells = list(cells)
    calls = [call for _, call in cells]
    n = min(configured_jobs() if jobs is None else jobs, len(calls))
    grouped: dict[Any, list] = {}
    for (key, _), result in zip(cells, _run(calls, n)):
        grouped.setdefault(key, []).append(result)
    return grouped


def _run(calls: list[Callable[[], Any]], n: int) -> list:
    if n > 1:
        try:
            executor = ProcessPoolExecutor(max_workers=n)
        except (OSError, NotImplementedError, PermissionError) as exc:
            print(
                f"warning: no process pool ({type(exc).__name__}: {exc}); "
                f"running {len(calls)} cells serially",
                file=sys.stderr,
            )
        else:
            try:
                futures = [executor.submit(call) for call in calls]
                return [f.result() for f in futures]
            finally:
                executor.shutdown(wait=True, cancel_futures=True)
    return [call() for call in calls]
