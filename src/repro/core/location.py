"""Shared-location declarations and versioned values.

§4.1: "since the readers of each value are known at compile time, direct
sends and receives between processes suffice to implement shared location
writes and reads."  A :class:`SharedLocationSpec` is that compile-time
knowledge: one writer, a fixed reader set, and the wire size of one value
(so update messages are charged byte-accurate transmission time).

§2: "The implementation of the Global_Read primitive in a DSM involves
the maintenance of age information with each local copy of a shared
location."  :class:`VersionedValue` is a copy with its age — the
producer's iteration number when the value was generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.inputs import at_least, check_fields, nonempty


@dataclass(frozen=True)
class SharedLocationSpec:
    """Compile-time description of one shared location.

    Attributes
    ----------
    name:
        Unique identifier (e.g. ``"migrants.3"`` for deme 3's emigrant
        buffer, ``"iface.7"`` for partition 7's interface-node vector).
    writer:
        The single producing task id.  The applications in the paper are
        single-writer per location (each deme writes its own migrant
        buffer; each partition writes its own interface values); the DSM
        enforces it, catching application bugs early.
    readers:
        Task ids that receive update propagations.
    value_nbytes:
        Wire size of one value, used when a write does not override it.
    """

    name: str = nonempty()
    writer: int = at_least(0)
    readers: tuple[int, ...] = at_least(0, each=True)
    value_nbytes: int = at_least(1, default=8)

    def __post_init__(self) -> None:
        object.__setattr__(self, "readers", tuple(self.readers))
        check_fields(self)
        if self.writer in self.readers:
            raise ValueError(
                f"{self.name}: writer {self.writer} must not be in its own "
                "reader set (local reads never go over the network)"
            )
        if len(set(self.readers)) != len(self.readers):
            raise ValueError(f"{self.name}: duplicate readers")


@dataclass(slots=True)
class VersionedValue:
    """A local copy of a shared location with its age stamp.

    ``age`` is the producer's iteration number at write time — the unit
    `Global_Read`'s staleness bound is expressed in.  ``write_time`` /
    ``recv_time`` are simulated timestamps used by metrics only.
    """

    value: Any
    age: int
    write_time: float
    recv_time: float = -1.0

    def is_newer_than(self, other: "VersionedValue | None") -> bool:
        """Update ordering: strictly larger age wins; ties keep the first
        arrival (a producer writes each iteration at most once per
        location, so ties only occur for re-deliveries)."""
        return other is None or self.age > other.age
