"""Counters and derived statistics for link models.

Kept deliberately cheap: plain counters plus a running mean/max
accumulator for delays, updated O(1) per frame, so statistics never distort benchmark
timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class RunningStat:
    """Running mean / max / count, the mean updated incrementally (Welford)."""

    count: int = 0
    mean: float = 0.0
    max: float = 0.0

    def add(self, x: float) -> None:
        """Fold one sample into the running mean and max."""
        self.count += 1
        self.mean += (x - self.mean) / self.count
        if x > self.max:
            self.max = x


@dataclass
class LinkStats:
    """Aggregate statistics for one network instance."""

    frames_sent: int = 0
    bytes_sent: int = 0
    wire_bytes_sent: int = 0  # includes link-level overhead
    broadcasts: int = 0
    contended_acquisitions: int = 0  # >1 adapter wanted the medium
    busy_time: float = 0.0  # seconds the medium spent transmitting
    queueing_delay: RunningStat = field(default_factory=RunningStat)
    latency: RunningStat = field(default_factory=RunningStat)

    def utilization(self, now: float) -> float:
        """Fraction of elapsed simulated time the medium was busy."""
        return self.busy_time / now if now > 0 else 0.0

    def summary(self, now: float) -> dict:
        """Frame/byte counts, latency stats and utilization at time ``now``."""
        return {
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "wire_bytes_sent": self.wire_bytes_sent,
            "broadcasts": self.broadcasts,
            "contended_acquisitions": self.contended_acquisitions,
            "utilization": self.utilization(now),
            "mean_queueing_delay": self.queueing_delay.mean,
            "max_queueing_delay": self.queueing_delay.max,
            "mean_latency": self.latency.mean,
            "max_latency": self.latency.max,
        }
