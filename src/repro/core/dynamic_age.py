"""Dynamic (runtime) staleness-bound adaptation — the paper's §6 future work.

"Also, to better understand and exploit the fact that different degrees
of asynchrony are best for different programs and network loads, we are
experimenting with dynamic (runtime) setting of tolerable age (staleness)
levels when using Global_Read."

:class:`DynamicAgeController` implements the natural AIMD policy over the
signals `Global_Read` already exposes:

* if recent calls **blocked** (the bound is too tight for the current
  network/load conditions), *increase* the age additively — trade
  staleness for progress;
* if recent calls were all **hits with slack** (the returned copies were
  much fresher than required), *decrease* the age multiplicatively —
  reclaim convergence efficiency while the network is keeping up.

The controller is deliberately application-agnostic: it sees only
(blocked?, observed staleness) per call, the same information a DSM
runtime would have.  Each reader adapts independently — there is no
global coordination, matching the primitive's per-process character.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.inputs import at_least, check_fields

#: clamp range for the adapted age
MIN_AGE = 0
MAX_AGE = 60
#: number of calls per adaptation decision
WINDOW = 8
#: additive step applied when any call in the window blocked
INCREASE_STEP = 2
#: multiplicative shrink applied when every call in the window was a hit
#: whose staleness left at least ``SLACK`` iterations of margin
DECREASE_FACTOR = 0.5
#: freshness margin (bound − observed staleness) required before the age
#: is lowered
SLACK = 2


@dataclass
class DynamicAgeController:
    """AIMD adaptation of the `Global_Read` age parameter, starting at
    ``initial_age`` (the policy's constants are above)."""

    initial_age: int = at_least(MIN_AGE, at_most=MAX_AGE, default=5)

    age: int = field(init=False)
    _calls_in_window: int = field(init=False, default=0)
    _blocked_in_window: int = field(init=False, default=0)
    _max_staleness_in_window: int = field(init=False, default=0)
    adjustments: list = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        check_fields(self)
        self.age = self.initial_age

    def observe(self, blocked: bool, staleness: int) -> int:
        """Record one `Global_Read` outcome; returns the age for the next
        call (possibly adapted at window boundaries)."""
        self._calls_in_window += 1
        self._blocked_in_window += int(blocked)
        self._max_staleness_in_window = max(self._max_staleness_in_window, staleness)
        if self._calls_in_window >= WINDOW:
            self._adapt()
        return self.age

    def _adapt(self) -> None:
        old = self.age
        if self._blocked_in_window > 0:
            self.age = min(MAX_AGE, self.age + INCREASE_STEP)
        elif self._max_staleness_in_window <= self.age - SLACK:
            self.age = max(MIN_AGE, int(self.age * DECREASE_FACTOR))
        if self.age != old:
            self.adjustments.append((old, self.age))
        self._calls_in_window = 0
        self._blocked_in_window = 0
        self._max_staleness_in_window = 0
