"""Messages between PVM tasks.

A message carries a Python payload together with ``nbytes``, the size its
C encoding would have on the wire (a packed struct on the paper's AIX
nodes).  The simulation charges wire and CPU time from ``nbytes`` alone,
so a migrant individual or an interface-node sample costs exactly what
the equivalent ``pvm_pk*`` buffer would, without a pack/unpack layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: wildcard matching any sender tid (PVM's -1)
ANY_SOURCE = -1
#: wildcard matching any message tag (PVM's -1)
ANY_TAG = -1

_next_msg_id = itertools.count().__next__


@dataclass(slots=True)
class Message:
    """One PVM message as seen by the receiver.

    ``payload`` is any Python object; ``nbytes`` is its wire size.

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
