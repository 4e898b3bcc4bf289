"""Island-GA unit tests: mode mechanics, migration, throttling, metrics."""

import pytest

from repro.cluster import MachineConfig
from repro.core.coherence import CoherenceMode
from repro.ga import IslandGaConfig, get_function, run_island_ga


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        fn = get_function(1)
        with pytest.raises(ValueError):
            IslandGaConfig(fn=fn, n_demes=0, mode=CoherenceMode.SYNCHRONOUS)
        with pytest.raises(ValueError):
            IslandGaConfig(fn=fn, n_demes=2, mode=CoherenceMode.NON_STRICT, age=-1)

    @pytest.mark.parametrize(
        "mode", [CoherenceMode.SYNCHRONOUS, CoherenceMode.ASYNCHRONOUS], ids=lambda m: m.name
    )
    def test_dynamic_age_in_a_mode_with_no_age_is_refused(self, mode):
        """It used to build and run with no controller: the flag did nothing."""
        with pytest.raises(ValueError, match=r"dynamic_age.*mode=") as exc:
            IslandGaConfig(fn=get_function(1), n_demes=2, mode=mode, dynamic_age=True)
        assert mode.name in str(exc.value)
        IslandGaConfig(
            fn=get_function(1), n_demes=2, mode=CoherenceMode.NON_STRICT, dynamic_age=True
        )

    def test_negative_generation_count_rejected(self):
        """It used to run zero generations without a word."""
        fn = get_function(1)
        with pytest.raises(ValueError, match="n_generations"):
            IslandGaConfig(
                fn=fn, n_demes=2, mode=CoherenceMode.NON_STRICT, n_generations=-1
            )
        IslandGaConfig(fn=fn, n_demes=2, mode=CoherenceMode.NON_STRICT, n_generations=0)

    def test_machine_node_count_must_match(self):
        fn = get_function(1)
        cfg = IslandGaConfig(
            fn=fn, n_demes=4, mode=CoherenceMode.SYNCHRONOUS,
            machine=MachineConfig(n_nodes=2),
        )
        with pytest.raises(ValueError, match="demes"):
            run_island_ga(cfg)


class TestMechanics:
    def test_all_demes_run_all_generations_without_target(self, run_island):
        r = run_island(CoherenceMode.SYNCHRONOUS, gens=15)
        assert r.generations_run == [15, 15, 15]
        assert r.completion_time is None
        assert r.total_time > 0

    def test_single_deme_runs_without_communication(self, run_island):
        r = run_island(CoherenceMode.NON_STRICT, age=5, demes=1, gens=10)
        assert r.messages_sent == 0
        assert r.generations_run == [10]

    def test_sync_demes_stay_aligned(self, run_island):
        """Barrier + age-0 reads: all demes end every generation together,
        so the per-deme generation counters always match."""
        r = run_island(CoherenceMode.SYNCHRONOUS, gens=20, demes=4)
        assert len(set(r.generations_run)) == 1

    def test_gr_age_bounds_blocking(self, run_island):
        tight = run_island(CoherenceMode.NON_STRICT, age=0, gens=30, seed=9)
        loose = run_island(CoherenceMode.NON_STRICT, age=20, gens=30, seed=9)
        assert tight.gr_stats.blocked >= loose.gr_stats.blocked
        assert tight.gr_stats.calls == loose.gr_stats.calls

    def test_async_never_blocks(self, run_island):
        r = run_island(CoherenceMode.ASYNCHRONOUS, gens=30)
        assert r.gr_stats.calls == 0
        assert r.gr_stats.blocked == 0

    def test_migration_improves_over_isolated_demes(self, run_island):
        """Demes with migration reach better quality than the same demes
        in isolation (the migration fraction is fixed at N/2; compare one
        isolated deme against the connected archipelago's best)."""
        fn = get_function(6)
        connected = run_island(CoherenceMode.NON_STRICT, age=5, demes=4, gens=60, fn=fn)
        isolated = [
            run_island(CoherenceMode.NON_STRICT, age=5, demes=1, gens=60, seed=4, fn=fn)
        ]
        assert connected.best_fitness <= min(i.best_fitness for i in isolated) + 1e-9

    def test_target_stops_simulation_early(self, run_island):
        full = run_island(CoherenceMode.ASYNCHRONOUS, gens=60, seed=2)
        easy_target = full.per_deme_best[0] + 1000.0  # trivially reachable
        early = run_island(CoherenceMode.ASYNCHRONOUS, gens=60, seed=2, target=easy_target)
        assert early.completion_time is not None
        assert early.completion_time <= full.total_time

class TestMetrics:
    def test_message_count_scales_with_demes(self, run_island):
        r2 = run_island(CoherenceMode.ASYNCHRONOUS, demes=2, gens=10)
        r4 = run_island(CoherenceMode.ASYNCHRONOUS, demes=4, gens=10)
        # (G+1) writes x (P-1) readers x P demes
        assert r2.messages_sent == 11 * 1 * 2
        assert r4.messages_sent == 11 * 3 * 4

    def test_result_carries_network_and_gr_stats(self, run_island):
        r = run_island(CoherenceMode.NON_STRICT, age=3, gens=10)
        assert 0 <= r.network_utilization < 1
        assert r.gr_stats.calls == 3 * 2 * 10  # demes x peers x generations
        assert len(r.per_deme_best) == 3

    def test_best_fitness_is_min_over_demes(self, run_island):
        r = run_island(CoherenceMode.SYNCHRONOUS, gens=15)
        assert r.best_fitness == min(r.per_deme_best)
