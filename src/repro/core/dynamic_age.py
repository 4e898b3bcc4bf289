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

from repro.inputs import at_least, check_fields, positive


@dataclass
class DynamicAgeController:
    """AIMD adaptation of the `Global_Read` age parameter.

    Parameters
    ----------
    min_age, max_age:
        Clamp range for the adapted age.
    window:
        Number of calls per adaptation decision.
    increase_step:
        Additive step applied when any call in the window blocked.
    decrease_factor:
        Multiplicative shrink applied when every call in the window was a
        hit whose staleness left at least ``slack`` iterations of margin.
    slack:
        Freshness margin (bound − observed staleness) required before the
        age is lowered.
    """

    initial_age: int = at_least(0, default=5)
    min_age: int = at_least(0, default=0)
    max_age: int = at_least(0, default=60)
    window: int = at_least(1, default=8)
    increase_step: int = at_least(1, default=2)
    decrease_factor: float = positive(below=1.0, default=0.5)
    slack: int = at_least(0, default=2)

    age: int = field(init=False)
    _calls_in_window: int = field(init=False, default=0)
    _blocked_in_window: int = field(init=False, default=0)
    _max_staleness_in_window: int = field(init=False, default=0)
    adjustments: list = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.min_age <= self.initial_age <= self.max_age:
            raise ValueError("need min_age <= initial_age <= max_age")
        self.age = self.initial_age

    def observe(self, blocked: bool, staleness: int) -> int:
        """Record one `Global_Read` outcome; returns the age for the next
        call (possibly adapted at window boundaries)."""
        self._calls_in_window += 1
        self._blocked_in_window += int(blocked)
        self._max_staleness_in_window = max(self._max_staleness_in_window, staleness)
        if self._calls_in_window >= self.window:
            self._adapt()
        return self.age

    def _adapt(self) -> None:
        old = self.age
        if self._blocked_in_window > 0:
            self.age = min(self.max_age, self.age + self.increase_step)
        elif self._max_staleness_in_window <= self.age - self.slack:
            self.age = max(self.min_age, int(self.age * self.decrease_factor))
        if self.age != old:
            self.adjustments.append((old, self.age))
        self._calls_in_window = 0
        self._blocked_in_window = 0
        self._max_staleness_in_window = 0
