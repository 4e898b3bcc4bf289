"""The bytes one deme holds, on the many-deme switched ring.

The scale study runs rings of 1,024 to 4,096 demes, where every byte a
deme keeps is paid once per deme.  This runs the ``ga_switched_1024``
benchmark shape (f1, N=8, age 2, two generations, jitter 0.12, ring
wiring, hierarchical switched fabric) at 256 demes under ``tracemalloc``
and bounds the peak traced bytes per deme.
"""

import tracemalloc

import pytest

from repro.analysis.fixtures import sanitizer_enabled
from repro.cluster import MachineConfig, NodeSpec
from repro.core.coherence import CoherenceMode
from repro.ga.functions import get_function
from repro.ga.island import IslandGaConfig, run_island_ga
from repro.ga.operators import GaParams

N_DEMES = 256
#: peak traced bytes per deme: 13.2 KB measured (CPython 3.11, numpy
#: 2.4) plus 9 %
PEAK_BYTES_PER_DEME = 14_400


def _ring(n_demes: int) -> IslandGaConfig:
    return IslandGaConfig(
        fn=get_function(1),
        n_demes=n_demes,
        mode=CoherenceMode.NON_STRICT,
        age=2,
        n_generations=2,
        seed=7,
        params=GaParams(population_size=8),
        machine=MachineConfig(
            n_nodes=n_demes,
            seed=7,
            node_spec=NodeSpec(jitter_sigma=0.12),
            interconnect="switched",
        ),
        topology="ring",
    )


@pytest.mark.skipif(
    sanitizer_enabled(), reason="the sanitizer traces every Dsm; the budget is an untraced deme's"
)
def test_a_deme_of_the_switched_ring_stays_within_its_byte_budget():
    run_island_ga(_ring(4))  # imports and one-time caches are not a deme's
    cfg = _ring(N_DEMES)
    tracemalloc.start()
    try:
        result = run_island_ga(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.generations_run == [2] * N_DEMES
    assert peak / N_DEMES <= PEAK_BYTES_PER_DEME, f"{peak / N_DEMES:.0f} B per deme"
