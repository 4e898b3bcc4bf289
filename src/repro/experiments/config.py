"""Experiment scale presets.

The paper's protocol (25 GA runs, 10 BN runs, 1000 generations, 2–16
processors) is hours of simulation; tests need seconds.  A
:class:`Scale` captures every run-size knob the runners take, with three
presets (the load-skew model and the convergence bar are the same in all
three, so they are the module constants below):

``smoke``    seconds — used by the test suite;
``default``  minutes — used by ``pytest benchmarks/``;
``full``     approaches the paper's protocol — set ``REPRO_SCALE=full``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

#: fraction of the serial trajectory defining the convergence bar
BAR_FRACTION = 0.6
#: per-generation compute-time jitter (load skew, §5.1.1)
JITTER_SIGMA = 0.12
#: node speed heterogeneity (systematic load skew)
HETERO_SIGMA = 0.03


@dataclass(frozen=True)
class Scale:
    """Run-size knobs shared by the experiment runners."""

    name: str
    #: GA: independent trials per configuration (paper: 25)
    ga_runs: int
    #: GA: serial-baseline generations (paper: 1000)
    ga_generations: int
    #: GA: cap on the async/Global_Read variants, in units of the serial
    #: generation count (the paper ran them "for enough generations")
    ga_cap_factor: int
    #: GA: processor counts (paper: 2..16)
    processor_counts: tuple[int, ...]
    #: GA: Table 1 functions to include (paper: all eight)
    ga_functions: tuple[int, ...]
    #: Global_Read age settings (paper: 0, 5, 10, 20, 30)
    ages: tuple[int, ...]
    #: BN: independent trials per configuration (paper: 10)
    bn_runs: int
    #: BN: run-count cap per trial
    bn_max_iterations: int
    #: Figure 4 offered loads, bps (paper: 0.5, 1, 2 Mbps)
    loads_bps: tuple[float, ...]

    @classmethod
    def smoke(cls) -> "Scale":
        """Seconds-scale preset for CI smoke runs."""
        return cls(
            name="smoke",
            ga_runs=2,
            ga_generations=120,
            ga_cap_factor=3,
            processor_counts=(2, 4),
            ga_functions=(1, 3),
            ages=(0, 10),
            bn_runs=1,
            bn_max_iterations=20_000,
            loads_bps=(0.5e6, 2e6),
        )

    @classmethod
    def default(cls) -> "Scale":
        """Minutes-scale preset; the default when ``REPRO_SCALE`` is unset."""
        return cls(
            name="default",
            ga_runs=3,
            ga_generations=250,
            ga_cap_factor=3,
            processor_counts=(2, 4, 8, 16),
            ga_functions=(1, 8),
            ages=(0, 5, 10, 30),
            bn_runs=2,
            bn_max_iterations=30_000,
            loads_bps=(0.5e6, 1e6, 2e6),
        )

    @classmethod
    def full(cls) -> "Scale":
        """Paper-faithful preset (8 runs, all functions, full age sweep)."""
        return cls(
            name="full",
            ga_runs=25,
            ga_generations=1000,
            ga_cap_factor=4,
            processor_counts=(2, 4, 8, 16),
            ga_functions=(1, 2, 3, 4, 5, 6, 7, 8),
            ages=(0, 5, 10, 20, 30),
            bn_runs=10,
            bn_max_iterations=60_000,
            loads_bps=(0.5e6, 1e6, 2e6),
        )


#: preset constructors by name (``REPRO_SCALE`` and every ``--scale``)
SCALES = {"smoke": Scale.smoke, "default": Scale.default, "full": Scale.full}


def current_scale() -> Scale:
    """Scale selected by the ``REPRO_SCALE`` environment variable."""
    name = os.environ.get("REPRO_SCALE", "default").lower()
    try:
        return SCALES[name]()
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r}; expected smoke, default or full"
        ) from None
