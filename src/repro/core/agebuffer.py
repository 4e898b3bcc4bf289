"""The per-node local buffer of latest copies (§4.1).

"For locations accessed via Global_Read, a local user-level buffer at each
node maintains the latest copies of the locations received from
corresponding writers.  Global_Read first checks this buffer before
initiating a receive."

The buffer keeps exactly one :class:`VersionedValue` per location — the
one with the largest age seen so far.  Out-of-order arrivals with smaller
ages are counted and dropped (they can occur in the REQUEST mode, where an
explicit reply may race a regular update).  A per-buffer signal wakes any
reader blocked in ``Global_Read`` whenever a copy is refreshed.
"""

from __future__ import annotations

from typing import Any

from repro.core.location import VersionedValue
from repro.sim.process import Signal


class AgeBuffer:
    """Latest-copy store for all locations one node reads."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._copies: dict[str, VersionedValue] = {}
        #: fired whenever any copy is refreshed; Global_Read waits on this
        self.refresh_signal = Signal(f"agebuf{owner}.refresh")
        self.updates_applied = 0
        self.updates_dropped_stale = 0

    def update(self, locn: str, value: Any, age: int, write_time: float, now: float) -> bool:
        """Fold an arriving update in; returns True if it became current."""
        incoming = VersionedValue(value=value, age=age, write_time=write_time, recv_time=now)
        current = self._copies.get(locn)
        if incoming.is_newer_than(current):
            self._copies[locn] = incoming
            self.updates_applied += 1
            self.refresh_signal.fire()
            return True
        self.updates_dropped_stale += 1
        return False

    def get(self, locn: str) -> VersionedValue | None:
        """The current copy, or None if nothing has arrived yet."""
        return self._copies.get(locn)

    def __contains__(self, locn: str) -> bool:
        return locn in self._copies

    def __len__(self) -> int:
        return len(self._copies)
