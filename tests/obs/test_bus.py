"""TraceBus unit behaviour + deterministic event emission.

The bus itself is trivial on purpose (append to a list); what these
tests pin is the contract the rest of the repo relies on: bounded
growth with an explicit drop counter, canonical JSONL round-trips, and
— via two identical-seed traced runs — that the *emitted event
sequence* is a pure function of the seed.
"""

import hashlib
import json
import pickle
from collections import Counter

import pytest

from repro.obs.bus import GzipJsonlSink, ObsEvent, TraceBus, read_jsonl, shape
from tests.obs.conftest import two_deme_ga_run


def _clock_factory():
    state = {"t": 0.0}

    def clock():
        state["t"] += 0.5
        return state["t"]

    return clock


def test_emit_stamps_clock_and_orders_events():
    bus = TraceBus(clock=_clock_factory())
    bus.emit("a", node=1, x=1)
    bus.emit("b", node=2, y="s")
    assert [e.kind for e in bus.events] == ["a", "b"]
    assert [e.time for e in bus.events] == [0.5, 1.0]
    assert bus.events[0].keys == ("x",) and bus.events[0].get("x") == 1
    assert bus.events[0].get("y") is None and bus.events[1].get("y") == "s"
    assert Counter(e.kind for e in bus.events) == {"a": 1, "b": 1}


def test_bounded_buffer_counts_drops():
    bus = TraceBus(clock=lambda: 0.0, max_events=3)
    for i in range(10):
        bus.emit("e", node=i)
    assert len(bus.events) == 3
    assert bus.dropped == 7
    # the *first* events are kept: the bound truncates the tail, so the
    # run's causal prefix stays intact
    assert [e.node for e in bus.events] == [0, 1, 2]


def test_as_dict_shape():
    e = ObsEvent(time=1.25, kind="gr.hit", node=3, fields={"ret": 2, "locn": "x"})
    assert e.as_dict() == {"t": 1.25, "kind": "gr.hit", "node": 3, "locn": "x", "ret": 2}
    # a record is one flat tuple, keys sorted: no payload dict, no __dict__
    assert e == (1.25, "gr.hit", 3, ("locn", "ret"), "x", 2)
    assert not hasattr(e, "__dict__")
    back = pickle.loads(pickle.dumps(e))
    assert back == e and type(back) is ObsEvent and back.keys is e.keys


def test_emit_and_append_build_the_same_record():
    a = TraceBus(clock=_clock_factory())
    b = TraceBus(clock=_clock_factory())
    a.emit("net.deliver", node=2, src=1, enq=0.25)
    b.append((b.clock(), "net.deliver", 2, shape("enq", "src"), 0.25, 1))
    assert a.events == b.events and type(b.events[0]) is ObsEvent
    # every record of a shape shares one key tuple
    assert a.events[0].keys is b.events[0].keys
    with pytest.raises(ValueError, match="sorted"):
        shape("src", "enq")


def test_bus_refuses_unusable_capacities():
    for field, bad in (("max_events", 0), ("max_events", -1), ("flush_every", 0)):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            TraceBus(clock=lambda: 0.0, **{field: bad})
    assert TraceBus(clock=lambda: 0.0, max_events=1, flush_every=1).max_events == 1


@pytest.mark.parametrize("line", ['{"kind": "gr.hit", "node": 0}', '[1.0, "gr.hit"]'])
def test_read_jsonl_refuses_a_line_that_is_not_an_event(tmp_path, line):
    path = tmp_path / "t.jsonl"
    path.write_text('{"kind": "a", "node": 0, "t": 0.5}\n' + line + "\n")
    with pytest.raises(ValueError, match=r"t\.jsonl: line 2: not a trace event"):
        list(read_jsonl(path))


def test_read_jsonl_ends_quietly_at_a_torn_final_line(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"kind": "a", "node": 0, "t": 0.5}\n{"kind": "b", "no')
    assert [e.kind for e in read_jsonl(path)] == ["a"]


def test_jsonl_roundtrip(tmp_path):
    bus = TraceBus(clock=_clock_factory())
    bus.emit("a", node=0, k=1)
    bus.emit("b", node=1, s="txt")
    path = tmp_path / "trace.jsonl"
    bus.write_jsonl(path)
    lines = path.read_text().splitlines()
    # trailer carries the bus accounting
    meta = json.loads(lines[-1])
    assert meta["kind"] == "trace.meta"
    assert meta["events"] == 2
    assert meta["events_dropped"] == 0
    back = list(read_jsonl(path))
    assert [e.kind for e in back] == ["a", "b"]
    assert back[1].get("s") == "txt"
    assert [e.time for e in back] == [e.time for e in bus.events]


def test_digest_is_content_addressed(tmp_path):
    a = TraceBus(clock=_clock_factory())
    b = TraceBus(clock=_clock_factory())
    for bus in (a, b):
        bus.emit("x", node=0, v=1)
        bus.emit("y", node=1, v=2)
    assert a.digest() == b.digest()
    b.emit("z", node=2)
    assert a.digest() != b.digest()


def test_identical_seeds_emit_identical_event_sequences():
    """The trace is a pure function of the seed (ordering included)."""
    runs = [two_deme_ga_run(3, ga_generations=25) for _ in range(2)]
    assert runs[0].bus.events == runs[1].bus.events
    assert runs[0].bus.digest() == runs[1].bus.digest()
    # and the trace is non-trivial: the taxonomy's GA kinds all fired
    kinds = set(Counter(e.kind for e in runs[0].bus.events))
    assert {"proc.spawn", "node.compute", "net.deliver", "dsm.write",
            "gr.hit", "proc.done"} <= kinds


def test_tiny_buffer_trailer_accounting(tmp_path):
    """The trailer reports kept vs dropped exactly for a tiny buffer."""
    bus = TraceBus(clock=_clock_factory(), max_events=4)
    for i in range(11):
        bus.emit("e", node=i)
    path = tmp_path / "tiny.jsonl"
    bus.write_jsonl(path)
    lines = path.read_text().splitlines()
    meta = json.loads(lines[-1])
    assert meta["events"] == 4 == len(lines) - 1
    assert meta["events_dropped"] == 7
    # the kept causal prefix round-trips intact
    back = list(read_jsonl(path))
    assert [e.node for e in back] == [0, 1, 2, 3]


@pytest.fixture(params=["ga_run", "bayes_run"])
def traced(request):
    """Each traced application run of the package fixtures in turn."""
    return request.getfixturevalue(request.param)


def test_jsonl_roundtrips_to_the_bus_events(traced, tmp_path):
    """The written trace reads back to exactly the records the bus holds."""
    path = tmp_path / "t.jsonl"
    traced.bus.write_jsonl(path)
    assert list(read_jsonl(path)) == traced.bus.events


def test_digest_is_sha256_of_the_written_lines(traced, tmp_path):
    path = tmp_path / "t.jsonl"
    traced.bus.write_jsonl(path)
    lines = path.read_bytes().splitlines(keepends=True)
    assert b'"trace.meta"' in lines[-1]
    assert traced.bus.digest() == hashlib.sha256(b"".join(lines[:-1])).hexdigest()


def test_sink_replay_matches_buffered_digest(traced, tmp_path):
    """The run's tuple records streamed through the gzip sink keep the
    buffered digest and read back unchanged."""
    events = traced.bus.events
    base = tmp_path / "t.jsonl.gz"
    sink_bus = TraceBus(clock=lambda: 0.0, sink=GzipJsonlSink(base), flush_every=512)
    for e in events:
        sink_bus.append(e)
    assert sink_bus.digest() == traced.bus.digest()
    assert sink_bus.write_jsonl() == len(events)
    assert list(read_jsonl(base)) == events
