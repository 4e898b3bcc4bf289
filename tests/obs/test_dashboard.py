"""HTML report page + the report/diff/validate CLI subcommands.

``report --html`` writes a zero-dependency single HTML file; no browser
runs in CI, so these tests pin the structural contract: self-contained
document, one SVG (the per-node timeline) with its rows and legend,
both colour-scheme scopes, the accessible attribution table, and
properly escaped text.  The CLI tests pin each subcommand's exit-code
and artifact contract end to end, flags a form would ignore included.
"""

import json

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.dashboard import render_dashboard


@pytest.fixture(scope="module")
def html(ga_run):
    return render_dashboard(
        ga_run.bus.events, metrics=ga_run.metrics, title="ga smoke"
    )


def test_dashboard_is_self_contained(html):
    assert html.startswith("<!DOCTYPE html>")
    # no external fetches: everything is inline
    assert "http://" not in html and "https://" not in html
    assert "<script src" not in html and "<link" not in html


def test_dashboard_charts_present(html):
    # one drawing, the timeline; every other number is a table cell
    assert html.count("<svg") == 1
    assert "aria-label='Per-node activity timeline'" in html
    for node in (0, 1):
        assert f">node {node}</text>" in html
    # legend names all four attribution buckets
    for key in ("compute", "Global_Read blocking", "network", "rollback"):
        assert key in html


def test_dashboard_modes_and_table(html):
    assert "prefers-color-scheme: dark" in html
    assert 'data-theme="dark"' in html
    assert "<table>" in html  # accessible twin of the attribution chart
    assert "NaN" not in html


def test_dashboard_escapes_title(ga_run):
    out = render_dashboard(ga_run.bus.events, title="<run> & 'x'")
    assert "<run>" not in out
    assert "&lt;run&gt;" in out


def test_dashboard_empty_trace():
    out = render_dashboard([])
    assert out.startswith("<!DOCTYPE html>")
    assert "No node activity" in out


def _trace(ga_run, tmp_path, name="t.jsonl"):
    path = tmp_path / name
    ga_run.bus.write_jsonl(str(path))
    return path


def test_cli_dashboard_default_out(ga_run, tmp_path, capsys):
    trace = _trace(ga_run, tmp_path)
    assert obs_main(["report", str(trace), "--html", "--title", "smoke"]) == 0
    out = tmp_path / "t.html"
    assert out.exists()
    assert "<svg" in out.read_text()
    assert str(out) in capsys.readouterr().out


def test_cli_critical_path_artifact(ga_run, tmp_path):
    trace = _trace(ga_run, tmp_path)
    out = tmp_path / "cp.json"
    assert obs_main(["report", str(trace), "--json", "--out", str(out)]) == 0
    art = json.loads(out.read_text())
    assert art["schema"] == "repro-obs-report/2"
    assert art["attribution"]["min_attributed_fraction"] >= 0.95
    assert art["critical_path"]["coverage"] == pytest.approx(1.0, rel=1e-9)


def test_cli_diff_text_and_json(ga_run, tmp_path, capsys):
    trace = _trace(ga_run, tmp_path)
    assert obs_main(["diff", str(trace), str(trace)]) == 0
    assert "deltas are B - A" in capsys.readouterr().out
    out = tmp_path / "d.json"
    assert obs_main(["diff", str(trace), str(trace), "--json", "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["schema"] == "repro-obs-diff/1"
    assert d["delta"]["events"] == 0


def test_cli_report_json_envelope(ga_run, tmp_path, capsys):
    trace = _trace(ga_run, tmp_path)
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps(ga_run.metrics))
    assert obs_main(
        ["report", str(trace), "--metrics", str(metrics), "--json"]
    ) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["schema"] == "repro-obs-report/2"
    assert env["events"] == len(ga_run.bus.events)
    assert env["metrics"]["gauges"]["warp.mean"] == ga_run.metrics["gauges"]["warp.mean"]


def test_cli_validate_ok_and_invalid(ga_run, tmp_path, capsys):
    trace = _trace(ga_run, tmp_path)
    assert obs_main(["validate", str(trace), "--strict"]) == 0
    assert "OK" in capsys.readouterr().out
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 1.0, "kind": "dsm.write", "node": 0}\n')
    assert obs_main(["validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_cli_missing_files_exit_2(tmp_path):
    ghost = str(tmp_path / "nope.jsonl")
    for cmd in (["report", ghost, "--json"], ["diff", ghost, ghost],
                ["report", ghost, "--html"], ["validate", ghost]):
        assert obs_main(cmd) == 2


def test_cli_json_with_html_exits_2(ga_run, tmp_path):
    trace = _trace(ga_run, tmp_path)
    with pytest.raises(SystemExit) as exc:
        obs_main(["report", str(trace), "--json", "--html"])
    assert exc.value.code == 2
    assert not (tmp_path / "t.html").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--title", "X"], "--title"),
        (["--json", "--title", "X"], "--title"),
        (["--html", "--bins", "7"], "--bins"),
    ],
)
def test_cli_report_refuses_a_flag_its_form_ignores(ga_run, tmp_path, capsys, flags, named):
    trace = _trace(ga_run, tmp_path)
    with pytest.raises(SystemExit) as exc:
        obs_main(["report", str(trace), *flags])
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {named}:" in errors[0]
    assert not (tmp_path / "t.html").exists()


def test_cli_bins_still_shapes_text_and_json(ga_run, tmp_path, capsys):
    trace = _trace(ga_run, tmp_path)
    assert obs_main(["report", str(trace), "--bins", "7"]) == 0
    assert "7 bins" in capsys.readouterr().out
    assert obs_main(["report", str(trace), "--json", "--bins", "7"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["timeline"]["bins"] == 7
    assert {len(strip) for strip in env["timeline"]["per_node"].values()} == {7}
