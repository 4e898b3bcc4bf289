"""Messages and PVM-style typed pack/unpack buffers.

PVM programs assemble outgoing data with typed packing calls
(``pvm_pkint``, ``pvm_pkdouble``, ...) into a send buffer and disassemble
it in the same order on the receiving side.  :class:`PackBuffer`
reproduces that interface.  Its value to the simulation is *byte-accurate
message sizes*: the wire time charged for a migrant individual or an
interface-node sample is exactly what the equivalent C struct would cost,
even though the in-simulator payload is a Python object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

#: wildcard matching any sender tid (PVM's -1)
ANY_SOURCE = -1
#: wildcard matching any message tag (PVM's -1)
ANY_TAG = -1

_next_msg_id = itertools.count().__next__

#: bytes per packed element, matching 32-bit-era C sizes on AIX
_TYPE_SIZES = {"int": 4, "double": 8, "float": 4, "byte": 1, "str": 1}


class PackBuffer:
    """A typed, sequential pack/unpack buffer (``pvm_pk*`` / ``pvm_upk*``).

    Packing appends ``(type, values)`` records and grows :attr:`nbytes`;
    unpacking replays the records in order, checking the requested type and
    count.  A type or count mismatch raises — exactly the class of bug PVM
    programs hit when sender and receiver disagree on the format.
    """

    def __init__(self) -> None:
        self._records: list[tuple[str, Any]] = []
        self._cursor = 0
        self.nbytes = 0

    # -- packing -------------------------------------------------------
    def _pack(self, typ: str, values: Any, count: int) -> "PackBuffer":
        self._records.append((typ, values))
        self.nbytes += _TYPE_SIZES[typ] * count
        return self

    def pkint(self, values: int | Sequence[int]) -> "PackBuffer":
        """Pack a signed int (pvm_pkint)."""
        arr = np.atleast_1d(np.array(values, dtype=np.int64, copy=True))
        return self._pack("int", arr, arr.size)

    def pkdouble(self, values: float | Sequence[float]) -> "PackBuffer":
        """Pack a float (pvm_pkdouble)."""
        arr = np.atleast_1d(np.array(values, dtype=np.float64, copy=True))
        return self._pack("double", arr, arr.size)

    def pkbyte(self, values: bytes | Sequence[int]) -> "PackBuffer":
        """Pack a single byte (pvm_pkbyte)."""
        arr = np.frombuffer(bytes(values), dtype=np.uint8).copy()
        return self._pack("byte", arr, arr.size)

    def pkstr(self, value: str) -> "PackBuffer":
        """Pack a UTF-8 string with a length prefix (pvm_pkstr)."""
        data = value.encode("utf-8")
        return self._pack("str", data, len(data) + 1)  # NUL terminator

    # -- unpacking -----------------------------------------------------
    def _unpack(self, typ: str) -> Any:
        if self._cursor >= len(self._records):
            raise IndexError("unpack past end of buffer")
        rec_typ, values = self._records[self._cursor]
        if rec_typ != typ:
            raise TypeError(
                f"unpack type mismatch at record {self._cursor}: "
                f"buffer holds {rec_typ!r}, caller asked for {typ!r}"
            )
        self._cursor += 1
        return values

    def upkint(self) -> np.ndarray:
        """Unpack a signed int (pvm_upkint)."""
        return self._unpack("int")

    def upkdouble(self) -> np.ndarray:
        """Unpack a float (pvm_upkdouble)."""
        return self._unpack("double")

    def upkbyte(self) -> np.ndarray:
        """Unpack a single byte (pvm_upkbyte)."""
        return self._unpack("byte")

    def upkstr(self) -> str:
        """Unpack a string packed by :meth:`pkstr` (pvm_upkstr)."""
        return bytes(self._unpack("str")).decode("utf-8")

    def rewind(self) -> None:
        """Reset the unpack cursor (receivers may re-read)."""
        self._cursor = 0

    @property
    def exhausted(self) -> bool:
        """True once every packed item has been unpacked."""
        return self._cursor >= len(self._records)


@dataclass(slots=True)
class Message:
    """One PVM message as seen by the receiver.

    ``payload`` is either a :class:`PackBuffer` or any Python object (for
    internal layers that skip explicit packing but still declare
    ``nbytes``).

    ``trace_ref`` is an optional content-addressed causal-lineage tag
    (e.g. ``"iface.2@15"``) set by tracing-aware senders; it is copied
    onto every :class:`~repro.network.frame.Frame` the message fragments
    into and surfaces in ``net.deliver`` trace events.  It must never be
    derived from ``msg_id`` (a process-global counter), or identical-seed
    runs in one process would emit different traces.

    ``seq`` numbers the sender's ``send``/``mcast`` calls (every copy of
    one multicast shares it); it is the per-task key that joins a
    ``msg.consume`` trace record to its ``msg.send``.
    """

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    msg_id: int = field(default_factory=_next_msg_id)
    send_time: float = -1.0
    arrival_time: float = -1.0
    trace_ref: str | None = None
    seq: int = 0

    def matches(self, src: int, tag: int) -> bool:
        """Wildcard-aware match used by recv/probe."""
        return (src == ANY_SOURCE or src == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )

    @property
    def latency(self) -> float:
        """Delivery latency in simulated seconds (requires both timestamps)."""
        if self.arrival_time < 0 or self.send_time < 0:
            raise ValueError("message not delivered yet")
        return self.arrival_time - self.send_time
