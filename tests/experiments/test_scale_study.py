"""scale_study driver: golden pins, sweep rows, skip-path metrics, O(1)."""

import pytest

from repro.experiments.config import Scale
from repro.check import GOLDEN, ga_digest, ga_rows
from repro.experiments.scale_study import (
    format_scale_study,
    run_scale_proof,
    run_scale_study,
    scenario,
)


class TestScenarioBuilder:
    def test_builds_switched_machine_with_requested_knobs(self):
        cfg = scenario(16, "torus", "fat-tree", age=5, radix=4)
        assert cfg.n_demes == 16
        assert cfg.topology == "torus"
        assert cfg.machine.interconnect == "switched"
        assert cfg.machine.switched.fabric == "fat-tree"
        assert cfg.machine.switched.radix == 4
        assert cfg.machine.n_nodes == 16

    def test_bad_topology_or_fabric_rejected(self):
        with pytest.raises(ValueError):
            scenario(8, "mesh", "single", age=5)
        with pytest.raises(ValueError):
            scenario(8, "ring", "crossbar", age=5)

    def test_golden_scenarios_cover_the_pinned_keys(self):
        pinned = ("ring-hierarchical", "torus-fat-tree", "all-single-mcast")
        assert set(pinned) <= set(GOLDEN)
        scenarios = {name: ga_rows()[name] for name in pinned}
        fabrics = {c.machine.switched.fabric for c in scenarios.values()}
        assert fabrics == {"single", "hierarchical", "fat-tree"}
        assert any(c.machine.hw_multicast for c in scenarios.values())

    def test_golden_digest_pinned_serially(self):
        """The serial digest of one golden scenario matches the pin (the
        full shards {1,2,4} sweep runs in tests/test_check.py)."""
        from repro.ga.island import run_island_ga

        cfg = ga_rows()["ring-hierarchical"]
        assert ga_digest(run_island_ga(cfg)) == GOLDEN["ring-hierarchical"]


class TestSweep:
    def test_rows_cover_the_cross_product(self):
        rows = run_scale_study(Scale.smoke(), deme_counts=(4,), jobs=1)
        assert len(rows) == 4 * 3 * len(Scale.smoke().ages)
        assert {r["topology"] for r in rows} == {
            "ring", "torus", "hierarchical", "random"
        }
        assert {r["fabric"] for r in rows} == {"single", "hierarchical", "fat-tree"}
        assert all(r["messages_sent"] > 0 and r["total_time"] > 0 for r in rows)
        assert "scale_study" in format_scale_study(rows)

    def test_scale_proof_completes_a_ring(self):
        record = run_scale_proof(64)
        assert record["n_demes"] == 64
        assert record["messages_sent"] > 0
        assert record["wall_us_per_msg"] > 0

    def test_scale_proof_of_one_deme_sends_nothing(self):
        record = run_scale_proof(1)
        assert record["messages_sent"] == 0
        assert record["wall_us_per_msg"] == 0.0


def test_per_frame_event_count_is_node_count_independent():
    """The O(1) hot-path structure: one kernel event per delivered frame,
    whatever the fabric population.  The host cost per frame is perfbench's
    ``host.network.us_per_frame`` on ``ga_switched_1024``."""
    from repro.network.frame import Frame
    from repro.network.switched import SwitchedConfig, SwitchedNetwork
    from repro.sim import Kernel

    def events_per_frame(n_nodes):
        kernel = Kernel(seed=0)
        net = SwitchedNetwork(kernel, SwitchedConfig(fabric="hierarchical"))
        for i in range(n_nodes):
            net.attach(i, lambda f: None)
        for i in range(n_nodes):
            net.adapters[i].send(Frame(src=i, dst=(i + 1) % n_nodes, size_bytes=64))
        kernel.run()
        return kernel._events_executed / n_nodes

    assert events_per_frame(64) == events_per_frame(1024)


class TestTraceStream:
    """``--trace-stream``: the bounded-memory capture into a gzip sink."""

    def test_streamed_capture_is_complete_bounded_and_digest_equal(
        self, tmp_path, monkeypatch
    ):
        import repro.experiments.scale_study as scale_study
        import repro.obs.bus as bus
        from repro.experiments.scale_study import run_traced_stream
        from repro.ga.island import run_island_ga
        from repro.obs.__main__ import main as obs_main

        # a small rotation size and 128 demes: zlib hands out a deflate
        # block only every ~16 k symbols, about 2.5 k trace lines, so a
        # part cannot close sooner and an 8-deme trace (608 events)
        # always fits in one
        monkeypatch.setattr(bus, "ROTATE_BYTES", 1024)
        monkeypatch.setattr(scale_study, "STREAM_FLUSH_EVERY", 64)
        n_demes = 128
        path = str(tmp_path / "stream.jsonl.gz")
        record = run_traced_stream(n_demes, path)
        assert record["dropped"] == 0
        assert 0 < record["peak_buffered"] <= 64
        assert record["parts"] > 1
        assert len(bus.trace_paths(path)) == record["parts"]
        assert obs_main(["validate", path, "--strict"]) == 0
        assert len(list(bus.read_jsonl(path))) == record["events"]

        # the same config, buffered: same events, same digest
        holder: dict = {}
        cfg = scenario(
            n_demes, "ring", "hierarchical", age=5, n_generations=10, trace=True
        )
        run_island_ga(cfg, instrument=lambda dsm: holder.setdefault("dsm", dsm))
        buffered = holder["dsm"].vm.kernel.obs
        assert buffered.sink is None
        assert len(buffered.events) == record["events"]
        assert record["digest"] == buffered.digest()

    def test_cli_trace_stream_needs_trace_path(self, capsys):
        from repro.experiments.scale_study import main

        with pytest.raises(SystemExit) as exc:
            main(["--trace-stream", "8"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--scale-proof", "0"], "--scale-proof"),
        (["--scale-proof", "-4"], "--scale-proof"),
        (["--demes", "8", "0"], "--demes"),
        (["--trace-stream", "0", "--trace", "t.jsonl.gz"], "--trace-stream"),
    ],
    ids=["scale-proof-0", "scale-proof-negative", "demes-0", "trace-stream-0"],
)
def test_cli_refuses_deme_counts_below_one(argv, flag, tmp_path, monkeypatch, capsys):
    from repro.experiments.scale_study import main

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "must be >= 1" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--metrics", "m.json"], "--metrics"),
        (["--scale-proof", "8", "--metrics", "m.json"], "--metrics"),
        (["--trace", "t.jsonl"], "--trace"),
        (["--scale-proof", "8", "--trace", "t.jsonl"], "--trace"),
        (["--trace-stream", "8", "--trace", "t.jsonl.gz", "--out", "o.json"],
         "--out"),
    ],
    ids=["metrics", "metrics-scale-proof", "trace-without-stream",
         "trace-scale-proof", "out-with-stream"],
)
def test_cli_refuses_flags_it_would_ignore(argv, flag, tmp_path, monkeypatch, capsys):
    """Nothing runs and nothing is written: the refusal comes first."""
    from repro.experiments.scale_study import main

    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
