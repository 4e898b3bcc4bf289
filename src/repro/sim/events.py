"""The time-ordered event queue.

An entry is a plain tuple ``(time, priority, seq, fn, args)`` — no event
object.  The heap orders entries with C tuple comparison, and because
``seq`` is unique the comparison never reaches ``fn``: callbacks need not
be orderable.  The monotonically increasing ``seq`` makes ordering *total*
and therefore deterministic: two events scheduled for the same instant
always pop in the order they were scheduled, independent of hash seeds or
dict ordering.  Determinism of this queue is the foundation of every
regression test in the repository.

Entries cannot be cancelled: nothing in the simulator retracts a scheduled
callback (services re-check their condition when woken instead), so there
is no lazy-deletion flag to test on every pop and ``len(queue)`` is simply
the number of entries held.

Fast path
---------
The vast majority of events in a real run are *same-instant* resumptions —
the kernel's ``_step`` pushes issued by ``spawn``, signal wakeups and
joins.  Those events never need heap ordering against future events: they
fire at the current instant, in push order, before the clock can advance.
:meth:`EventQueue.push_immediate` therefore appends them to a plain FIFO
lane, and whoever pops — :meth:`EventQueue.pop`, or ``Kernel.run()``, which
merges :attr:`EventQueue.heap` and :attr:`EventQueue.lane` inline — takes
the smaller head under the ``(time, priority, seq)`` key, so the observable
pop order — and hence every trace — is bit-identical to a heap-only queue
while skipping the O(log n) sift on the hottest path.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from itertools import count
from typing import Any, Callable


#: Default priority for ordinary events.  Lower values pop first among
#: events scheduled for the same simulated instant.
PRIORITY_NORMAL = 0

#: Priority used by the kernel for process resumptions that should happen
#: "immediately after" the current event (e.g. ``Yield``).
PRIORITY_LATE = 10

#: One queue entry: ``(time, priority, seq, fn, args)``.
Entry = tuple[float, int, int, Callable[..., Any], tuple]


class EventQueue:
    """Deterministic min-heap of ``(time, priority, seq, fn, args)`` entries
    with a same-instant FIFO fast lane (see module docstring)."""

    __slots__ = ("heap", "lane", "_next_seq")

    def __init__(self) -> None:
        #: binary heap of entries (``heapq`` order)
        self.heap: list[Entry] = []
        #: FIFO of PRIORITY_NORMAL entries at the current instant; entries
        #: are seq-ordered by construction, so the lane head is always the
        #: lane's minimum under the (time, priority, seq) key.
        self.lane: deque[Entry] = deque()
        self._next_seq = count().__next__

    def __len__(self) -> int:
        """Number of entries waiting (heap plus lane)."""
        return len(self.heap) + len(self.lane)

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule ``fn(*args)`` at absolute ``time``.

        ``time`` must not be NaN: a NaN key compares false both ways and
        would silently corrupt the heap invariant, so it raises
        ``ValueError`` at push time.
        """
        if time != time:  # NaN check without importing math
            raise ValueError("event time is NaN")
        _heappush(self.heap, (time, priority, self._next_seq(), fn, args))

    def push_immediate(self, now: float, fn: Callable[..., Any], args: tuple = ()) -> None:
        """Fast lane for a PRIORITY_NORMAL event at the current instant.

        The caller guarantees ``now`` is the simulation clock; the lane
        drains before the clock can advance, so every lane entry shares the
        same ``time`` and the FIFO order equals the global seq order.  A
        defensive check falls back to the heap if that invariant would not
        hold (e.g. a hand-driven queue used outside a kernel).
        """
        lane = self.lane
        if lane and lane[-1][0] != now:
            self.push(now, fn, args)
            return
        lane.append((now, PRIORITY_NORMAL, self._next_seq(), fn, args))

    def pop(self) -> Entry | None:
        """Pop and return the earliest entry, or ``None`` if empty."""
        lane = self.lane
        heap = self.heap
        if lane:
            # Lane entries are at the current instant with PRIORITY_NORMAL;
            # a heap entry beats them only with an earlier key (e.g. same
            # time, same priority, smaller seq — pushed via schedule_at).
            if heap and heap[0] < lane[0]:
                return _heappop(heap)
            return lane.popleft()
        return _heappop(heap) if heap else None

    def peek_time(self) -> float | None:
        """Time of the earliest entry without popping, or ``None``."""
        lane = self.lane
        heap = self.heap
        if lane and heap:
            return min(lane[0][0], heap[0][0])
        if lane:
            return lane[0][0]
        return heap[0][0] if heap else None
