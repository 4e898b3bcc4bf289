"""CLI exit codes and output formats for ``python -m repro.analysis``, and
for the race census it folds, ``python -m repro.experiments.race_report``."""

import json
import os

import pytest

from repro.analysis.cli import main
from repro.experiments.race_report import main as race_report

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


class TestLintCommand:
    def test_clean_tree_exits_zero(self):
        assert main(["lint", os.path.join(REPO_ROOT, "src")]) == 0

    def test_bad_fixture_exits_one(self, capsys):
        rc = main(["lint", os.path.join(FIXTURES, "bad_example.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR001" in out and "finding(s)" in out

    def test_json_mode(self, capsys):
        rc = main(["lint", "--json", os.path.join(FIXTURES, "bad_example.py")])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] >= 6
        assert {f["code"] for f in doc["findings"]} == {"RPR001", "RPR002", "RPR003"}

    def test_select_limits_rules(self, capsys):
        rc = main(
            ["lint", "--select", "RPR002", os.path.join(FIXTURES, "bad_example.py")]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "RPR002" in out and "RPR001" not in out

    def test_missing_path_exits_two(self, capsys):
        rc = main(["lint", "does/not/exist.py", os.path.join(FIXTURES, "bad_example.py")])
        assert rc == 2
        out = capsys.readouterr().out
        assert "no such file or directory" in out
        # the existing path was still linted, not masked by the error
        assert "RPR001" in out

    def test_unknown_select_code_exits_two(self, capsys):
        rc = main(["lint", "--select", "RPR999", os.path.join(REPO_ROOT, "src")])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().out

    def test_unparsable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "syntax_error.py"
        bad.write_text("def broken(:\n")
        assert main(["lint", str(bad)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_extra_exclude_skips_directory(self, tmp_path):
        sub = tmp_path / "generated"
        sub.mkdir()
        (sub / "dirty.py").write_text("import time\ntime.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert main(["lint", "--exclude", "generated", str(tmp_path)]) == 0


class TestRacesCommand:
    """Per-mode race classification, as ``race_report`` runs and gates it."""

    @staticmethod
    def _runs(capsys, *argv):
        rc = race_report(["--json", *argv])
        assert rc == 0
        sync, async_, gr = json.loads(capsys.readouterr().out)["runs"]
        return sync, async_, gr

    def test_gr_mode_passes_default_gate(self, capsys):
        rc = race_report(["--generations", "20", "--demes", "3"])
        out = capsys.readouterr().out
        assert rc == 0, out
        gr_row = next(l for l in out.splitlines() if l.startswith("Global_Read"))
        assert "races all tolerated within bound" in out
        # the row's tolerated column is positive, its unbounded column zero
        tolerated, unbounded = gr_row.split()[4:6]
        assert int(tolerated) > 0 and int(unbounded) == 0

    def test_async_mode_fails_unbounded_gate(self, capsys):
        # the asynchronous run is exactly what a gate on unbounded races
        # rejects: its reads race with no staleness bound
        _, async_, _ = self._runs(capsys, "--generations", "30")
        assert async_["mode"] == "asynchronous"
        assert async_["unbounded_races"] > 0

    def test_async_mode_passes_violations_gate(self, capsys):
        # unbounded races are the *point* of async mode; only broken
        # consistency invariants fail the gate
        _, async_, _ = self._runs(capsys, "--generations", "30")
        assert async_["consistency_violations"] == 0

    def test_json_output(self, capsys):
        sync, _, gr = self._runs(capsys, "--generations", "15")
        assert sync["mode"] == "synchronous"
        assert sync["tolerated_races"] == sync["unbounded_races"] == 0
        assert gr["tolerated_races"] > 0 and gr["unbounded_races"] == 0


class TestReportCommand:
    def test_three_mode_shape_holds(self, capsys):
        rc = race_report(["--generations", "40"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "shape OK" in out
        assert "synchronous" in out and "asynchronous" in out

    def test_report_json(self, capsys):
        rc = race_report(["--generations", "30", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["problems"] == []
        assert len(doc["runs"]) == 3
        # every run's full classifier summary, one document per mode
        assert all(r["consistency_violations"] == 0 for r in doc["runs"])

    def test_negative_age_exits_two(self, capsys):
        assert race_report(["--age", "-1"]) == 2
        assert "must be >= 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--demes", "0"], "--demes"),
            (["--demes", "1"], "--demes"),
            (["--generations", "-1"], "--generations"),
            (["--generations", "0"], "--generations"),
            (["--fid", "99"], "--fid"),
            (["--fid", "0"], "--fid"),
        ],
    )
    def test_bad_arguments_exit_two_naming_the_flag(self, capsys, argv, flag):
        assert race_report(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"error: {flag}")
        assert "PROBLEM" not in out and "Traceback" not in out


class TestSanitizerFixture:
    def test_sanitizer_attaches_when_enabled(self, monkeypatch):
        from repro.analysis.fixtures import sanitizer_enabled

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitizer_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitizer_enabled()

    def test_sanitize_fixture_collects_classifiers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.analysis.fixtures import sanitize_dsm

        gen = sanitize_dsm.__wrapped__()
        attached = next(gen)
        from repro.cluster import Machine, MachineConfig
        from repro.core import Dsm

        dsm = Dsm(Machine(MachineConfig(n_nodes=2, seed=0)).vm)
        # an untraced machine gets a bus; the fixture folds it at teardown
        assert len(attached) == 1
        assert dsm.vm.kernel.obs is attached[0]
        with pytest.raises(StopIteration):
            gen.send(None)

    def test_sanitize_fixture_fails_on_a_violation(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        from repro.analysis.fixtures import sanitize_dsm
        from repro.cluster import Machine, MachineConfig
        from repro.core import Dsm

        gen = sanitize_dsm.__wrapped__()
        next(gen)
        dsm = Dsm(Machine(MachineConfig(n_nodes=2, seed=0)).vm)
        # a read of a value no write produced: a phantom
        dsm.vm.kernel.obs.emit("dsm.read", node=1, locn="x", ret=3)
        with pytest.raises(pytest.fail.Exception, match="no-phantom-values"):
            gen.send(None)


class TestCoherenceCommand:
    """``coherence`` subcommand: happy path and hard error paths."""

    SRC = os.path.join(REPO_ROOT, "src", "repro")

    def test_src_tree_is_clean(self, capsys):
        rc = main(["coherence", self.SRC])
        assert rc == 0
        out = capsys.readouterr().out
        assert "migrants.*" in out and "0 finding(s)" in out

    def test_json_envelope(self, capsys):
        rc = main(["coherence", self.SRC, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-analysis-coherence/1"
        assert doc["summary"]["findings"] == 0
        assert doc["summary"]["locations"] >= 3
        assert doc["digest"]

    def test_out_writes_envelope_file(self, tmp_path, capsys):
        out = tmp_path / "coherence.json"
        rc = main(["coherence", self.SRC, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-analysis-coherence/1"

    def test_missing_trace_dir_exits_two(self, capsys):
        rc = main(
            ["coherence", self.SRC, "--traces", "no/such/dir"]
        )
        assert rc == 2
        assert "no such trace file or directory" in capsys.readouterr().out

    def test_malformed_trace_jsonl_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t": 1, "kind": "gr.hit"}\nnot json at all\n')
        rc = main(["coherence", self.SRC, "--traces", str(bad)])
        assert rc == 2
        assert f"{bad}: invalid trace" in capsys.readouterr().out

    def test_empty_trace_dir_exits_two(self, tmp_path, capsys):
        rc = main(
            ["coherence", self.SRC, "--traces", str(tmp_path)]
        )
        assert rc == 2
        assert "no .jsonl trace files" in capsys.readouterr().out

    def test_unparsable_source_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        rc = main(["coherence", str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        mod = tmp_path / "w.py"
        mod.write_text(
            "def proc(node, task, dsm):\n"
            "    dnode = dsm.node(0)\n"
            "    dnode.write('x', 1, 0, 8)\n"
            "    return dnode.read_local('x')\n"
        )
        assert main(["coherence", str(mod)]) == 1
        assert "RPR101" in capsys.readouterr().out

    def test_invalid_contract_exits_two(self, tmp_path, capsys):
        mod = tmp_path / "w.py"
        mod.write_text(
            "from repro.core import dsm_contract\n"
            "dsm_contract('x', tolerance='bogus', age=-3)\n"
        )
        assert main(["coherence", str(mod)]) == 2
        assert f"{mod}:2: invalid dsm_contract" in capsys.readouterr().out

    def test_contradicting_trace_exits_one(self, tmp_path, capsys):
        # a trace whose Global_Read returned staleness beyond its bound
        # on migrants.* contradicts the static 'tolerated' verdict
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"t": 0.1, "kind": "gr.hit", "node": 0, "locn": "migrants.0", '
            '"curr_iter": 50, "age": 5, "staleness": 40}\n'
            '{"kind": "trace.meta", "events": 1, "events_dropped": 0}\n'
        )
        assert main(["coherence", self.SRC, "--traces", str(trace)]) == 1
        assert "RPR105" in capsys.readouterr().out

    def test_flags_are_json_traces_out(self):
        import argparse

        from repro.analysis.cli import _build_parser

        sub = next(
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert sorted(sub.choices) == ["coherence", "lint"]
        flags = {
            o for a in sub.choices["coherence"]._actions for o in a.option_strings
        }
        assert flags == {"-h", "--help", "--json", "--traces", "--out"}
