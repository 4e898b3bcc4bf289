"""The *warp* network-load metric (Park; Heddaya, Park & Sinha).

§4.3 of the paper: "A particular measurement of warp at node *i* with
respect to node *j* is given by the ratio of the difference in arrival
times of two consecutive messages from node *j* to the difference in
their sending times.  Warp measures the rate of change of network load.
The warp measured would be 1 when the network load is stable; warp values
much higher than 1 indicate increasing load on the network."

The meter attaches to a network as a delivery observer and keeps, per
``(receiver, sender)`` stream, the last frame's ``(send, arrival)`` pair;
each new frame yields one warp sample.  Frames whose send times coincide
(the gap denominator would be 0) are skipped, as are non-data frame kinds
if a ``kinds`` filter is given.
"""

from __future__ import annotations

from collections import defaultdict

from repro.network.base import Network
from repro.network.frame import Frame
from repro.network.stats import RunningStat


class WarpMeter:
    """Collects warp samples for every (receiver, sender) message stream.

    Only running statistics are kept (:attr:`overall`, :attr:`per_stream`,
    and therefore ``mean_warp``/``max_warp``).  Raw samples live in the
    trace: every ``net.deliver`` record carries its enqueue time, and
    :func:`repro.obs.report.warp_summary` recomputes the same samples
    and their percentiles from it.
    """

    def __init__(self, kinds: set[str] | None = None):
        #: restrict measurement to these frame kinds (None = all)
        self.kinds = kinds
        self._last: dict[tuple[int, int], tuple[float, float]] = {}
        self.per_stream: dict[tuple[int, int], RunningStat] = defaultdict(RunningStat)
        self.overall = RunningStat()

    def attach(self, network: Network) -> "WarpMeter":
        """Register on ``network``; returns self for chaining."""
        network.observe_deliveries(self.observe)
        return self

    def observe(self, frame: Frame) -> None:
        """Delivery observer: fold one frame into the warp statistics.

        Uses the frame's enqueue time as its "sending time" — that is when
        the sender handed the message to the network, which is the quantity
        warp's denominator measures (sender pacing), independent of medium
        acquisition delays that belong in the numerator.
        """
        if self.kinds is not None and frame.kind not in self.kinds:
            return
        key = (frame.dst, frame.src)
        prev = self._last.get(key)
        self._last[key] = (frame.enqueue_time, frame.deliver_time)
        if prev is None:
            return
        send_gap = frame.enqueue_time - prev[0]
        arrival_gap = frame.deliver_time - prev[1]
        if send_gap <= 0:
            return  # coincident sends: warp undefined for this pair
        warp = arrival_gap / send_gap
        self.per_stream[key].add(warp)
        self.overall.add(warp)

    @property
    def mean_warp(self) -> float:
        """Mean warp across all streams (1.0 = stable network)."""
        return self.overall.mean

    @property
    def max_warp(self) -> float:
        """Largest warp sample observed across all streams."""
        return self.overall.max

    def stream_means(self) -> dict[tuple[int, int], float]:
        """Per-(receiver, sender) mean warp."""
        return {k: v.mean for k, v in self.per_stream.items()}
