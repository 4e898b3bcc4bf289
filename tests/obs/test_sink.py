"""Streaming gzip trace sink: rotation, digest parity, truncation.

The sink mode exists so long runs (256+ deme scale_study sweeps) can
trace without holding the full event list in memory; these tests pin
its two contracts — bit-identical digests versus buffered mode, and
bounded buffer occupancy — plus the reader-side tolerance for traces
truncated by a crashed run.
"""

import gzip
import json
import os

import pytest

from repro.obs.bus import (
    GzipJsonlSink,
    TraceBus,
    iter_trace_lines,
    part_path,
    read_jsonl,
    trace_paths,
)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.001
        return self.t


def _fill(bus: TraceBus, n: int) -> None:
    for i in range(n):
        bus.emit("proc.spawn", node=i % 4, pid=i, name=f"p{i}")


def test_sink_digest_matches_buffered(tmp_path):
    buffered = TraceBus(clock=_Clock())
    _fill(buffered, 5000)
    sink_bus = TraceBus(
        clock=_Clock(),
        sink=GzipJsonlSink(tmp_path / "t.jsonl.gz"),
        flush_every=512,
    )
    _fill(sink_bus, 5000)
    assert sink_bus.digest() == buffered.digest()
    assert sink_bus.dropped == 0
    assert len(sink_bus) == 5000


def test_sink_rotation_and_reader(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.obs.bus.ROTATE_BYTES", 2048)
    base = tmp_path / "t.jsonl.gz"
    bus = TraceBus(
        clock=_Clock(),
        sink=GzipJsonlSink(base),
        flush_every=256,
    )
    _fill(bus, 4000)
    n = bus.write_jsonl()
    assert n == 4000
    parts = trace_paths(base)
    assert len(parts) > 1
    assert parts[0] == os.fspath(base)
    assert part_path(os.fspath(base), 1).endswith(".part001.jsonl.gz")
    meta: dict = {}
    events = list(read_jsonl(base, meta))
    assert len(events) == 4000
    assert meta["events"] == 4000 and meta["events_dropped"] == 0


def test_sink_peak_buffer_is_bounded(tmp_path):
    bus = TraceBus(
        clock=_Clock(),
        sink=GzipJsonlSink(tmp_path / "t.jsonl.gz"),
        flush_every=128,
    )
    _fill(bus, 10_000)
    bus.write_jsonl()
    assert 0 < bus.peak_buffered <= 128


def test_sink_finalize_is_idempotent(tmp_path):
    base = tmp_path / "t.jsonl.gz"
    bus = TraceBus(clock=_Clock(), sink=GzipJsonlSink(base), flush_every=64)
    _fill(bus, 200)
    assert bus.write_jsonl() == 200
    assert bus.write_jsonl() == 200  # second finalize: no-op, same count
    lines = list(iter_trace_lines(base))
    assert sum(1 for l in lines if '"trace.meta"' in l) == 1


def test_buffered_overflow_surfaces_events_dropped(tmp_path):
    bus = TraceBus(clock=_Clock(), max_events=100)
    _fill(bus, 150)
    assert bus.dropped == 50
    path = tmp_path / "t.jsonl"
    bus.write_jsonl(path)
    meta: dict = {}
    assert len(list(read_jsonl(path, meta))) == 100
    assert meta["events_dropped"] == 50
    # ... and the report header calls the truncation out
    from repro.obs.report import render_report

    text = render_report(list(bus.events), meta=meta)
    assert "TRUNCATED CAPTURE" in text and "50" in text


def test_truncated_gzip_tail_tolerated(tmp_path):
    base = tmp_path / "t.jsonl.gz"
    bus = TraceBus(clock=_Clock(), sink=GzipJsonlSink(base), flush_every=64)
    _fill(bus, 2000)
    bus.write_jsonl()
    whole = list(read_jsonl(base))
    # simulate a crashed writer: chop the gzip stream mid-member
    data = (tmp_path / "t.jsonl.gz").read_bytes()
    (tmp_path / "t.jsonl.gz").write_bytes(data[: len(data) // 2])
    truncated = list(read_jsonl(base))
    assert 0 < len(truncated) < len(whole)
    # the causal layer still builds spans from what survived
    from repro.obs.causal import build_spans

    g = build_spans(truncated)
    assert g is not None


def test_sink_trace_validates(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.obs.bus.ROTATE_BYTES", 4096)
    base = tmp_path / "t.jsonl.gz"
    bus = TraceBus(
        clock=_Clock(), sink=GzipJsonlSink(base),
        flush_every=128,
    )
    _fill(bus, 3000)
    bus.write_jsonl()
    from repro.obs.schema import validate_trace

    verdict = validate_trace(os.fspath(base), strict=True)
    assert verdict["ok"], verdict["errors"]
    assert verdict["events"] == 3000


def test_gzip_bytes_are_deterministic(tmp_path):
    def write(path):
        bus = TraceBus(clock=_Clock(), sink=GzipJsonlSink(path), flush_every=64)
        _fill(bus, 500)
        bus.write_jsonl()
        return path.read_bytes()

    assert write(tmp_path / "a.jsonl.gz") == write(tmp_path / "b.jsonl.gz")


def test_part_path_plain_suffix():
    assert part_path("trace.log", 2) == "trace.log.part002"


def test_buffered_write_requires_path():
    bus = TraceBus(clock=_Clock())
    _fill(bus, 3)
    with pytest.raises(ValueError):
        bus.write_jsonl()
