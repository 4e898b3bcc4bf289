"""Report rendering + the ``python -m repro.obs report`` CLI.

The report is documentation-grade output, so these tests pin section
presence and determinism (same trace → byte-identical text) rather
than exact layout, plus the CLI's exit-code contract.
"""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.report import render_report, report_dict


def test_ga_report_sections(ga_run):
    text = render_report(ga_run.bus.events, metrics=ga_run.metrics)
    assert "Trace report" in text
    assert "Per-node timeline" in text
    assert "Blocking summary (Global_Read)" in text
    assert "Warp per (receiver <- sender) stream" in text
    assert "Metrics — counters" in text
    # the report also answers "where did the simulated time go"
    assert "Wall-time attribution per node" in text
    assert "Critical path" in text
    # a pure-GA trace has no rollback section
    assert "Rollback summary" not in text


def test_bayes_report_has_rollback_and_gvt(bayes_run):
    text = render_report(bayes_run.bus.events, metrics=bayes_run.metrics)
    assert "Rollback summary (Time-Warp)" in text
    assert "cascade depth" in text
    assert "GVT / commits" in text


def test_report_is_deterministic(ga_run):
    a = render_report(ga_run.bus.events, metrics=ga_run.metrics)
    b = render_report(ga_run.bus.events, metrics=ga_run.metrics)
    assert a == b


def test_timeline_marks_blocked_bins(ga_run):
    text = render_report(ga_run.bus.events)
    lines = [ln for ln in text.splitlines() if ln.strip().startswith("node") and "|" in ln]
    assert len(lines) == 2  # one strip per node
    strips = report_dict(ga_run.bus.events)["timeline"]["per_node"]
    assert [ln.split("|")[1] for ln in lines] == list(strips.values())
    assert all(len(s) == 60 and set(s) <= set("#X.") for s in strips.values())


def test_timeline_strips_from_spans():
    """Strips are drawn from the causal spans: blocked beats compute beats idle."""
    from repro.obs.bus import ObsEvent

    events = [
        ObsEvent(0.0, "node.compute", 0, {"cost": 1.5, "op": "evolve"}),
        ObsEvent(1.0, "gr.block", 0, {"locn": "x", "curr_iter": 1, "age": 0}),
        ObsEvent(2.0, "gr.unblock", 0, {"locn": "x", "waited": 1.0}),
        ObsEvent(2.0, "node.compute", 1, {"cost": 0.0, "op": "noop"}),
        ObsEvent(4.0, "proc.done", -1, {"pid": 0, "name": "p"}),
    ]
    rep = report_dict(events, bins=4)
    # node 1 only has a zero-cost compute: no strip, as before the fold
    assert rep["timeline"]["per_node"] == {"0": "#X.."}
    assert rep["blocking"]["totals"]["waited"] == 1.0


def test_per_node_tables_fold_past_node_rows():
    """Past NODE_ROWS nodes a per-node table and the timeline list the
    most-blocked nodes, and the warp table the streams of highest max warp,
    each with one row for the rest; totals and the JSON keep every one."""
    from repro.obs.bus import ObsEvent
    from repro.obs.dashboard import render_dashboard
    from repro.obs.report import NODE_ROWS, tables

    n = NODE_ROWS + 4
    events = []
    for node in range(n):
        waited = 0.25 * (node + 1)
        src = (node + 1) % n
        events += [
            ObsEvent(0.0, "node.compute", node, {"cost": 1.0, "op": "evolve"}),
            ObsEvent(1.0, "gr.block", node, {"locn": "x", "curr_iter": 1, "age": 0}),
            ObsEvent(1.0 + waited, "gr.unblock", node, {"locn": "x", "waited": waited}),
            # one warp sample per stream: (arrival gap) / (send gap) = 1 + node/8
            ObsEvent(0.5, "net.deliver", node, {"frame_kind": "pvm", "src": src, "enq": 0.0}),
            ObsEvent(1.5 + node / 8, "net.deliver", node,
                     {"frame_kind": "pvm", "src": src, "enq": 1.0}),
        ]
    rep = report_dict(events)
    assert len(rep["blocking"]["per_node"]) == len(rep["attribution"]["per_node"]) == n
    assert len(rep["warp"]["streams"]) == len(rep["timeline"]["per_node"]) == n
    sections = {title.split(" (")[0]: rows for title, _, rows in tables(rep)}
    heaviest = [str(node) for node in range(n - 1, 3, -1)]
    blocking = sections["Blocking summary"]
    assert [r[0] for r in blocking] == heaviest + ["4 other nodes", "all"]
    # calls, hits, blocks, blocked time, mean wait, max wait of nodes 0-3
    assert blocking[-2][1:] == [4, 0, 4, 2.5, 0.625, 1.0]
    assert blocking[-1][4] == sum(0.25 * (node + 1) for node in range(n))
    attribution = sections["Wall-time attribution per node"]
    assert [r[0] for r in attribution] == heaviest + ["4 other nodes", "all"]
    assert attribution[-2][2] == 2.5  # their Global_Read blocking, summed
    warp = sections["Warp per"]
    assert [r[0] for r in warp] == [
        f"{node}<-{(node + 1) % n}" for node in range(n - 1, 3, -1)
    ] + ["4 other streams", "all"]
    # samples, weighted mean, blank percentiles, max of the maxima
    assert warp[-2][1:] == [4, pytest.approx(1 + 1.5 / 8), "", "", "", 1 + 3 / 8]
    assert warp[-1][1] == n
    text = render_report(events)
    strips = [ln.split("|")[0].split()[1] for ln in text.splitlines()
              if ln.startswith("  node ")]
    assert strips == [str(node) for node in range(4, n)]
    assert "  … 4 other nodes" in text
    html = render_dashboard(events)
    drawn = [node for node in range(n) if f">node {node}</text>" in html]
    assert drawn == list(range(4, n))


def test_warp_table_matches_meter(ga_run):
    """Warp recomputed from net.deliver events ≈ the run's WarpMeter."""
    text = render_report(ga_run.bus.events)
    warp_table = text[text.index("Warp per (receiver <- sender) stream"):]
    mean = ga_run.metrics["gauges"]["warp.mean"]
    # the meter and the trace see the same deliveries; the recomputed
    # overall mean must land on the metered one
    all_row = next(ln for ln in warp_table.splitlines() if ln.startswith("all"))
    recomputed = float(all_row.split()[2])
    assert abs(recomputed - mean) < 5e-4


def test_cli_renders_and_writes(ga_run, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    metrics = tmp_path / "m.json"
    out = tmp_path / "report.txt"
    ga_run.bus.write_jsonl(str(trace))
    metrics.write_text(json.dumps(ga_run.metrics))

    assert obs_main(["report", str(trace), "--metrics", str(metrics)]) == 0
    shown = capsys.readouterr().out
    assert "Per-node timeline" in shown

    assert (
        obs_main(
            ["report", str(trace), "--metrics", str(metrics), "--out", str(out)]
        )
        == 0
    )
    assert "Per-node timeline" in out.read_text()


def test_cli_missing_file_exit_code(tmp_path):
    assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2


def test_cli_malformed_metrics_exit_2(ga_run, tmp_path, capsys):
    """A --metrics file that is not JSON is exit 2 naming the file, not a traceback."""
    trace = tmp_path / "t.jsonl"
    ga_run.bus.write_jsonl(str(trace))
    bad = tmp_path / "m.json"
    bad.write_text("not json")
    assert obs_main(["report", str(trace), "--metrics", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["report", "diff"])
@pytest.mark.parametrize("bins", ["0", "-2"])
def test_cli_bins_must_be_positive(command, bins, tmp_path):
    ghost = str(tmp_path / "nope.jsonl")
    argv = [command, ghost] + ([ghost] if command == "diff" else [])
    with pytest.raises(SystemExit) as exc:
        obs_main(argv + ["--bins", bins])
    assert exc.value.code == 2


def test_cli_report_reads_the_trace_once(ga_run, tmp_path, monkeypatch, capsys):
    """Events and the trace.meta trailer come out of one pass over the file."""
    import repro.obs.bus as bus

    trace = tmp_path / "t.jsonl"
    ga_run.bus.write_jsonl(str(trace))
    opened = []
    real = bus.iter_trace_lines
    monkeypatch.setattr(
        bus, "iter_trace_lines", lambda p: opened.append(p) or real(p)
    )
    assert obs_main(["report", str(trace), "--json"]) == 0
    assert opened == [str(trace)]
    assert json.loads(capsys.readouterr().out)["events_dropped"] == 0
