"""The experiment runner: job parsing, grouping order, serial fallback."""

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import repro.experiments.runner as runner
from repro.experiments.runner import JOBS_ENV, configured_jobs, run_cells

ROOT = Path(__file__).resolve().parents[2]


def _square(x):
    return x * x


def _addmul(a, b, c=1):
    return (a + b) * c


def _squares(n, key=lambda i: i):
    return [(key(i), partial(_square, i)) for i in range(n)]


class TestConfiguredJobs:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert configured_jobs() == 1

    @staticmethod
    def _jobs(monkeypatch, raw: str) -> int:
        monkeypatch.setenv(JOBS_ENV, raw)
        return configured_jobs()

    def test_empty_string_means_serial(self, monkeypatch):
        assert self._jobs(monkeypatch, "") == 1
        assert self._jobs(monkeypatch, "  ") == 1

    def test_explicit_integer(self, monkeypatch):
        assert self._jobs(monkeypatch, "4") == 4

    def test_auto_and_zero_use_cpu_count(self, monkeypatch):
        n = os.cpu_count() or 1
        assert self._jobs(monkeypatch, "auto") == n
        assert self._jobs(monkeypatch, "0") == n

    def test_garbage_raises(self, monkeypatch):
        with pytest.raises(ValueError, match=JOBS_ENV):
            self._jobs(monkeypatch, "many")
        with pytest.raises(ValueError, match=JOBS_ENV):
            self._jobs(monkeypatch, "-2")

    def test_reads_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert configured_jobs() == 3


class TestJobsFlag:
    """``--jobs`` parses exactly as ``REPRO_JOBS`` does, for the experiment
    drivers and ``python -m repro.bench`` alike."""

    @staticmethod
    def _parsers():
        import argparse

        from repro.experiments.cli import add_jobs_option, experiment_parser

        bench = argparse.ArgumentParser()
        add_jobs_option(bench)
        return [experiment_parser("x"), bench]

    @pytest.mark.parametrize("raw", ["0", "auto"])
    def test_zero_and_auto_mean_every_cpu(self, raw):
        for parser in self._parsers():
            assert parser.parse_args(["--jobs", raw]).jobs == (os.cpu_count() or 1)

    def test_an_integer_is_that_many_workers(self):
        for parser in self._parsers():
            assert parser.parse_args(["--jobs", "3"]).jobs == 3

    @pytest.mark.parametrize("raw", ["-3", "many"])
    def test_a_negative_or_garbage_value_is_an_error_naming_the_flag(self, raw, capsys):
        for parser in self._parsers():
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(["--jobs", raw])
            assert exc.value.code == 2
            assert "argument --jobs" in capsys.readouterr().err

    def test_bench_refuses_a_negative_count_before_running(self, capsys):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "-3"])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err

    def test_unset_leaves_the_choice_to_the_environment(self):
        for parser in self._parsers():
            assert parser.parse_args([]).jobs is None

    def test_help_names_the_real_default(self, capsys):
        for parser in self._parsers():
            with pytest.raises(SystemExit):
                parser.parse_args(["--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert "(default: the REPRO_JOBS environment variable, else 1)" in text


class TestParallelMap:
    """:func:`run_cells` returns results grouped by key in list order."""

    def test_serial_preserves_order(self):
        assert run_cells(_squares(10), jobs=1) == {i: [i * i] for i in range(10)}

    def test_parallel_results_ordered_by_submission_not_completion(self):
        grouped = run_cells(_squares(20, key=lambda i: i % 3), jobs=2)
        assert list(grouped) == [0, 1, 2]
        assert grouped[1] == [i * i for i in range(1, 20, 3)]

    def test_parallel_matches_serial_exactly(self):
        cells = [(i % 2, partial(_addmul, i, 10 - i, 2)) for i in range(10)]
        assert run_cells(cells, jobs=2) == run_cells(cells, jobs=1)

    def test_empty_input(self):
        assert run_cells([], jobs=4) == {}

    def test_jobs_clamped_to_item_count(self, monkeypatch):
        # jobs=8 with one cell must not spin up a pointless pool
        monkeypatch.setattr(runner, "ProcessPoolExecutor", None)
        assert run_cells(_squares(1), jobs=8) == {0: [0]}

    def test_unpicklable_fn_would_fail_loud_in_parallel(self):
        # lambdas can't cross a process boundary; serial path accepts them
        assert run_cells([("a", lambda: 1), ("a", lambda: 2)], jobs=1) == {"a": [1, 2]}


@pytest.mark.parametrize("exc", [OSError, NotImplementedError, PermissionError])
def test_a_pool_that_cannot_start_falls_back_to_serial_and_says_so(exc, monkeypatch, capsys):
    def no_pool(max_workers):
        raise exc("no semaphores here")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    assert run_cells(_squares(4), jobs=2) == {i: [i * i] for i in range(4)}
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert exc.__name__ in err[0] and "no semaphores here" in err[0]


def test_a_driver_runs_as_a_module_without_a_runtime_warning():
    """``python -m repro.experiments.<driver>`` must find its module
    unimported: the package imports none of its drivers."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), JOBS_ENV: "1"}
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.experiments.table1"],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert out.stderr == ""
    assert out.stdout == (ROOT / "results" / "table1.txt").read_text()
