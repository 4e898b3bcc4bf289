"""Pytest integration: the ``sanitize_dsm`` fixture.

Importing this module's fixture into a ``conftest.py``::

    from repro.analysis.fixtures import sanitize_dsm  # noqa: F401

arms an opt-in runtime sanitizer: when ``REPRO_SANITIZE=1`` is set, every
:class:`~repro.core.dsm.Dsm` a test constructs runs traced (a buffered
:class:`~repro.obs.bus.TraceBus` goes on its kernel unless one is there)
and the test fails at teardown if
:func:`~repro.core.consistency.consistency_violations` finds a broken
invariant in any of those traces.  Races are never judged here —
asynchronous-mode tests race by design.  A bus streaming to a sink holds
only its unflushed tail, so whoever finalises its file folds it.
Without the environment variable the fixture is inert.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Any, Iterator

import pytest

from repro.core.consistency import consistency_violations, report
from repro.core.dsm import Dsm
from repro.obs.bus import TraceBus

SANITIZE_ENV_VAR = "REPRO_SANITIZE"


def sanitizer_enabled() -> bool:
    """Whether the race-fixture sanitizer hook is active for this run."""
    return os.environ.get(SANITIZE_ENV_VAR) == "1"


@pytest.fixture(autouse=True)
def sanitize_dsm() -> Iterator[list[TraceBus]]:
    """Trace every Dsm when sanitizing and fold its invariants at teardown.

    Yields the list of buses it will fold (empty when the sanitizer is
    off), so a test may also inspect the traces directly.
    """
    if not sanitizer_enabled():
        yield []
        return
    buses: list[TraceBus] = []
    original_init = Dsm.__init__

    def instrumented_init(self: Dsm, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        kernel = self.vm.kernel
        if kernel.obs is None:
            kernel.obs = TraceBus(clock=partial(getattr, kernel, "now"))
        if all(kernel.obs is not b for b in buses):
            buses.append(kernel.obs)

    Dsm.__init__ = instrumented_init  # type: ignore[method-assign]
    try:
        yield buses
    finally:
        Dsm.__init__ = original_init  # type: ignore[method-assign]
    reports = [
        report(violations)
        for bus in buses
        if bus.sink is None
        and (violations := consistency_violations(bus.events, dropped=bus.dropped))
    ]
    if reports:
        pytest.fail(
            f"{SANITIZE_ENV_VAR}=1: consistency invariant violated under "
            "sanitizer:\n" + "\n".join(reports)
        )
