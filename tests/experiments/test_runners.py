"""Experiment runners at smoke scale: structure, sanity and key shapes.

These are integration tests — the full paper-shape assertions live in
the benchmarks (which run at larger scale); here we verify the runners
produce complete, well-formed, internally consistent results quickly.
"""

import numpy as np
import pytest

from repro.experiments.config import Scale, current_scale
from repro.experiments.figure2 import format_figure2, run_figure2
from repro.experiments.figure3 import format_figure3, run_figure3
from repro.experiments.figure4 import format_figure4, run_figure4
from repro.experiments.speedup import (
    GaVariant,
    GaTrial,
    best_competitor_gain,
    run_ga_trial,
    speedups_over_trials,
)
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.warp_study import format_warp_study, run_warp_study
from tests.experiments.pins import PINS, sha256


@pytest.fixture(scope="module")
def smoke():
    return Scale.smoke()


class TestConfig:
    def test_presets(self):
        assert Scale.smoke().ga_runs < Scale.default().ga_runs < Scale.full().ga_runs
        assert Scale.full().ga_runs == 25  # the paper's protocol
        assert Scale.full().ga_generations == 1000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            current_scale()


class TestTable1:
    def test_all_rows_match_paper(self):
        rows = run_table1()
        assert len(rows) == 8
        assert all(r["matches"] for r in rows)

    def test_format_contains_every_function(self):
        text = format_table1(run_table1())
        for name in ("sphere", "foxholes", "rastrigin", "schwefel", "griewank"):
            assert name in text

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_output_pinned(self, jobs):
        assert sha256(format_table1(run_table1(jobs=jobs))) == PINS["table1"]


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table2()

    def test_four_networks_with_structure(self, rows):
        assert [r["name"] for r in rows] == ["A", "AA", "C", "Hailfinder"]
        for r in rows:
            assert r["converged"]
            assert r["nodes"] in (54, 56)

    def test_inference_times_in_paper_band(self, rows):
        """Random nets ~11 s, Hailfinder distinctly faster (paper: 3.15 s)."""
        by_name = {r["name"]: r for r in rows}
        for name in ("A", "AA", "C"):
            assert 7.0 < by_name[name]["inference_time"] < 16.0
        assert by_name["Hailfinder"]["inference_time"] < by_name["A"]["inference_time"]

    def test_hailfinder_cut_matches_paper(self, rows):
        hf = next(r for r in rows if r["name"] == "Hailfinder")
        assert hf["edge_cut"] == hf["paper_edge_cut"] == 4

    def test_format(self, rows):
        assert "Hailfinder" in format_table2(rows)

    def test_output_pinned(self, rows):
        assert sha256(format_table2(rows)) == PINS["table2"]

    def test_two_workers_print_the_same_table(self, rows):
        assert format_table2(run_table2(jobs=2)) == format_table2(rows)


class TestGaTrial:
    def test_trial_produces_all_variants(self, smoke):
        variants = GaVariant.standard_set((0, 10))
        trial = run_ga_trial(smoke, fid=1, P=2, seed=1, variants=variants)
        assert set(trial.times) == {"sync", "async", "gr0", "gr10"}
        assert trial.serial_time > 0

    def test_speedups_ratio_of_sums(self):
        variants = ["a"]
        t1 = GaTrial(serial_time=10.0, times={"a": 5.0})
        t2 = GaTrial(serial_time=30.0, times={"a": 5.0})
        sp = speedups_over_trials([t1, t2], variants)
        assert sp["a"] == pytest.approx(4.0)  # (10+30)/(5+5)

    def test_best_competitor_gain(self):
        sp = {"sync": 1.2, "async": 2.0, "gr0": 1.9, "gr10": 2.6}
        label, gain = best_competitor_gain(sp)
        assert label == "gr10"
        assert gain == pytest.approx(0.3)

    def test_best_competitor_includes_serial(self):
        sp = {"sync": 0.4, "async": 0.6, "gr10": 1.5}
        label, gain = best_competitor_gain(sp)
        # serial (1.0) is the best competitor here
        assert gain == pytest.approx(0.5)


class TestFigure3:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_figure3(Scale.smoke())

    def test_rows_cover_networks_plus_average(self, rows):
        assert [r["network"] for r in rows] == ["A", "AA", "C", "Hailfinder", "average"]

    def test_paper_shape_gr_beats_sync_and_async(self, rows):
        """The central Figure 3 claim at every network."""
        for r in rows:
            sp = r["speedups"]
            best_gr = max(v for k, v in sp.items() if k.startswith("gr"))
            assert best_gr > sp["sync"]
            assert best_gr > sp["async"]

    def test_sync_below_serial(self, rows):
        for r in rows:
            assert r["speedups"]["sync"] < 1.0

    def test_format(self, rows):
        text = format_figure3(rows)
        assert "Hailfinder" in text and "average" in text

    def test_output_pinned(self, rows):
        assert sha256(format_figure3(rows)) == PINS["figure3-smoke"]


class TestWarpStudy:
    def test_probe_warp_grows_with_ramp(self):
        res = run_warp_study(Scale.smoke())
        maxes = [r["max_warp"] for r in res["probe"]]
        assert maxes[0] == pytest.approx(1.0, abs=0.01)
        assert maxes[-1] > 1.5
        assert maxes[-1] == max(maxes)
        assert format_warp_study(res)


class TestSpeedupSweeps:
    """Figure 2 and Figure 4 are one reducer over a different axis."""

    @pytest.fixture(scope="class")
    def tiny(self):
        from dataclasses import replace

        return replace(
            Scale.smoke(), ga_runs=1, ga_generations=40,
            processor_counts=(2,), loads_bps=(1e6,),
        )

    @staticmethod
    def _reference(scale, P, load_bps, fids):
        variants = GaVariant.standard_set(scale.ages)
        trials = [run_ga_trial(scale, fid, P, fid, variants, load_bps) for fid in fids]
        return speedups_over_trials(trials, [v.label for v in variants])

    def test_figure2_rows_sweep_processor_counts(self, tiny):
        (row,) = run_figure2(tiny, jobs=1)
        assert row["P"] == 2 and row["best_case_fid"] == 1
        assert row["best_case"] == self._reference(tiny, 2, 0.0, (1,))
        assert row["average"] == self._reference(tiny, 2, 0.0, (1, 3))
        assert (row["best_gr"], row["gain_over_best_competitor"]) == (
            best_competitor_gain(row["average"])
        )

    def test_figure4_rows_sweep_offered_load_on_four_nodes(self, tiny):
        unloaded, loaded = run_figure4(tiny, jobs=1)
        assert [unloaded["load_mbps"], loaded["load_mbps"]] == [0.0, 1.0]
        assert loaded["best_case"] == self._reference(tiny, 4, 1e6, (1,))
        assert loaded["average"] == self._reference(tiny, 4, 1e6, (1, 3))
        assert unloaded["average"] == self._reference(tiny, 4, 0.0, (1, 3))
        assert (loaded["best_case_gr"], loaded["best_case_gain"]) == (
            best_competitor_gain(loaded["best_case"])
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_output_pinned(self, tiny, jobs):
        assert sha256(format_figure2(run_figure2(tiny, jobs=jobs))) == PINS["figure2-tiny"]
        assert sha256(format_figure4(run_figure4(tiny, jobs=jobs))) == PINS["figure4-tiny"]


class TestSharedCli:
    @pytest.mark.parametrize("driver", ["table1", "table2", "figure3"])
    def test_drivers_that_cannot_shard_reject_the_flag(self, driver, capsys):
        import importlib

        module = importlib.import_module(f"repro.experiments.{driver}")
        with pytest.raises(SystemExit) as exc:
            module.main(["--shards", "2"])
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_ga_drivers_still_take_it(self):
        from repro.experiments.cli import experiment_parser, parse_experiment_args

        args = parse_experiment_args(experiment_parser("x"), ["--shards", "2"])
        assert args.shards == 2


class TestFormatting:
    def test_figure2_and_4_formatters_render(self):
        # synthesised rows to keep formatter tests fast
        row = {
            "P": 2,
            "load_mbps": 0.5,
            "best_case_fid": 1,
            "best_case": {"sync": 1.0, "gr10": 1.4},
            "average": {"sync": 1.1, "gr10": 1.3},
            "best_gr": "gr10",
            "gain_over_best_competitor": 0.18,
            "best_case_gr": "gr10",
            "best_case_gain": 0.4,
        }
        assert "gr10" in format_figure2([row])
        assert "gr10" in format_figure4([row])
