"""Link-layer frames.

A frame is the unit the link models schedule; it carries an opaque payload
for the layer above (PVM fragments) plus the accounting fields the models
and metrics need.  Payload *size* is explicit rather than derived from the
Python object so the simulation charges realistic wire time for data whose
in-simulator representation is tiny (e.g. a numpy scalar standing for a
packed 8-byte double).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

#: Destination pseudo-address meaning "every attached adapter except the
#: sender".  On the shared Ethernet a broadcast costs one transmission; on
#: the switch it is replicated per destination.
BROADCAST = -1

_next_frame_id = itertools.count().__next__


@dataclass(slots=True)
class Frame:
    """One link-layer frame.

    Attributes
    ----------
    src, dst:
        Attached adapter ids; ``dst`` may be :data:`BROADCAST`.
    size_bytes:
        Payload size on the wire, before link-level overhead (headers,
        preamble) which the link model adds itself.
    payload:
        Opaque object handed to the destination's deliver callback.
    kind:
        Free-form tag ("pvm", "load", ...) used by statistics and tests.
    enqueue_time / tx_start_time / deliver_time:
        Filled in by the link model as the frame progresses; used to
        compute queueing delays and the warp metric.
    trace_ref:
        Optional causal-lineage tag copied from the originating
        :class:`~repro.pvm.message.Message`.  Content-addressed (e.g.
        ``"migrants.0@7"``), *never* an id from a process-global counter,
        so identical-seed runs emit identical traces.  ``None`` unless
        tracing is enabled; carried through to the ``net.deliver`` trace
        event so a trace reader can join a delivery to its write.
    """

    src: int
    dst: int
    size_bytes: int
    payload: Any = None
    kind: str = "data"
    frame_id: int = field(default_factory=_next_frame_id)
    enqueue_time: float = -1.0
    tx_start_time: float = -1.0
    deliver_time: float = -1.0
    trace_ref: str | None = None

    def __post_init__(self) -> None:
        # built per frame on the event path: an inline check, not repro.inputs
        if self.size_bytes < 0:
            raise ValueError(f"frame size must be >= 0, got {self.size_bytes}")
        if self.src == self.dst:
            raise ValueError(f"frame to self (adapter {self.src}) is not routable")

    @property
    def queueing_delay(self) -> float:
        """Seconds spent waiting for the medium (valid after transmission)."""
        if self.tx_start_time < 0 or self.enqueue_time < 0:
            raise ValueError("frame has not been transmitted yet")
        return self.tx_start_time - self.enqueue_time

    @property
    def latency(self) -> float:
        """Enqueue-to-delivery latency in seconds (valid after delivery)."""
        if self.deliver_time < 0 or self.enqueue_time < 0:
            raise ValueError("frame has not been delivered yet")
        return self.deliver_time - self.enqueue_time
