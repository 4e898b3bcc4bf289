"""Dynamic age adaptation (§6 future work): controller + end-to-end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic_age import (
    DECREASE_FACTOR,
    INCREASE_STEP,
    MAX_AGE,
    MIN_AGE,
    SLACK,
    WINDOW,
    DynamicAgeController,
)


def observe_window(c, blocked=False, staleness=0, first_blocked=False):
    """One full adaptation window of calls; returns the ages seen."""
    ages = [c.observe(first_blocked or blocked, staleness)]
    ages += [c.observe(blocked, staleness) for _ in range(WINDOW - 1)]
    return ages


class TestController:
    def test_blocking_raises_age_additively(self):
        c = DynamicAgeController(initial_age=4)
        ages = observe_window(c, first_blocked=True)
        assert ages[:-1] == [4] * (WINDOW - 1)  # mid-window: unchanged
        assert c.age == 4 + INCREASE_STEP == 6

    def test_slack_lowers_age_multiplicatively(self):
        c = DynamicAgeController(initial_age=16)
        observe_window(c, staleness=1)  # 16 - 1 >= SLACK
        assert c.age == int(16 * DECREASE_FACTOR) == 8

    def test_borderline_staleness_keeps_age(self):
        c = DynamicAgeController(initial_age=6)
        observe_window(c, staleness=6 - SLACK + 1)  # within slack of the bound
        assert c.age == 6

    def test_clamped_to_bounds(self):
        c = DynamicAgeController(initial_age=MAX_AGE - 1)
        observe_window(c, blocked=True)
        assert c.age == MAX_AGE
        c2 = DynamicAgeController(initial_age=1)
        observe_window(c2)
        observe_window(c2)
        assert c2.age >= MIN_AGE

    def test_adjustments_logged(self):
        c = DynamicAgeController(initial_age=4)
        observe_window(c, first_blocked=True)
        assert c.adjustments == [(4, 6)]

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_age"):
            DynamicAgeController(initial_age=MAX_AGE + 1)
        with pytest.raises(ValueError, match="initial_age"):
            DynamicAgeController(initial_age=MIN_AGE - 1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=100)),
            max_size=200,
        )
    )
    def test_property_age_always_in_bounds(self, events):
        c = DynamicAgeController(initial_age=10)
        for blocked, staleness in events:
            age = c.observe(blocked, staleness)
            assert MIN_AGE <= age <= MAX_AGE


class TestEndToEnd:
    def test_dynamic_age_island_ga_runs_and_adapts(self):
        from repro.cluster import MachineConfig
        from repro.core.coherence import CoherenceMode
        from repro.ga import IslandGaConfig, get_function, run_island_ga

        r = run_island_ga(
            IslandGaConfig(
                fn=get_function(1),
                n_demes=4,
                mode=CoherenceMode.NON_STRICT,
                age=5,
                dynamic_age=True,
                n_generations=50,
                seed=8,
                machine=MachineConfig(n_nodes=4, seed=8).with_load(6e6),
            )
        )
        assert r.generations_run == [50] * 4
        # under heavy load the bound must stay satisfied throughout
        assert r.gr_stats.calls == 4 * 3 * 50
