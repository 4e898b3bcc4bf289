"""Byte pins on three traced runs: what a trace says may not move.

How the bus holds a record in memory is free to change; the run's
:meth:`~repro.obs.bus.TraceBus.digest` and the bytes
:meth:`~repro.obs.bus.TraceBus.write_jsonl` writes are not.  The three
runs between them emit every record shape the hot emitters build:

* a short 16-deme Ethernet GA with a 1 Mbps loader — ``net.deliver``
  with and without a lineage ``ref``, ``gr.hit``/``gr.block``/
  ``gr.unblock`` and ``node.compute`` with its ``op``;
* a NON_STRICT ``golden_bayes`` run — ``rb.*``, ``bn.commit`` and
  ``gvt.advance``;
* a 4-deme GA streamed through the gzip sink (its pin is the sha256 of
  the decompressed stream, so it does not depend on the zlib build).

Each also checks reader/writer parity: every record
:func:`~repro.obs.bus.read_jsonl` yields re-serialises to its own line.
"""

import gzip
import hashlib
import json
from dataclasses import replace

import pytest

from repro.bayes.parallel import run_parallel_logic_sampling
from repro.check import golden_bayes, golden_ga
from repro.ga.island import run_island_ga
from repro.obs.bus import read_jsonl

#: run name -> (TraceBus.digest(), sha256 of the written JSONL)
PINS = {
    "bayes-non-strict": (
        "886f5d5b1fab2702de3ab410f5ac882a688cd64bfc121a5c6b64655bfc58c193",
        "41bddb5cf765ce36eb8cc21afbbb5742747a8a39248465b6da5dba8adf1aae82",
    ),
    "ga-ethernet-16-loaded": (
        "fd2026d5acbd9d7a612a718afd020984d57b4efc03c3d45a71c6808dd4732af8",
        "d08ba0e5abda237c69c8f0d0d18f20cfa7bb7103c171794249fb4931dd13227f",
    ),
    "ga-gzip-sink": (
        "5a5352d18ead32c008b84bc16d155c5a2f6d9e68e3c46e4c5f582686e642ee83",
        "e22ab9b825a4912ca11f3532118333cc78ebda84a74001d440e5e98a3b54cca2",
    ),
}


def _bus(run, cfg):
    hook: dict = {}
    run(cfg, instrument=lambda dsm: hook.setdefault("dsm", dsm))
    return hook["dsm"].vm.kernel.obs


def _traced(name: str, directory) -> tuple:
    """Run ``name``; return its bus, digest and the written JSONL bytes."""
    if name == "bayes-non-strict":
        cfg = golden_bayes(max_iterations=2000)
        cfg = replace(cfg, machine=replace(cfg.machine, trace=True))
        bus = _bus(run_parallel_logic_sampling, cfg)
    elif name == "ga-gzip-sink":
        cfg = golden_ga(n_demes=4, n_generations=10, load_bps=1e6, trace=True)
        sink = str(directory / "trace.jsonl.gz")
        cfg = replace(cfg, machine=replace(
            cfg.machine, trace_sink=sink, trace_flush_every=128,
        ))
        bus = _bus(run_island_ga, cfg)
        digest = bus.digest()
        bus.write_jsonl()
        with gzip.open(sink, "rb") as fh:
            return sink, digest, fh.read()
    else:
        bus = _bus(run_island_ga, golden_ga(
            n_demes=16, n_generations=6, load_bps=1e6, trace=True,
        ))
    path = directory / "trace.jsonl"
    digest = bus.digest()
    bus.write_jsonl(path)
    return path, digest, path.read_bytes()


@pytest.fixture(scope="module", params=sorted(PINS))
def traced(request, tmp_path_factory):
    """(name, trace path, digest, JSONL bytes) of each pinned run."""
    name = request.param
    return (name, *_traced(name, tmp_path_factory.mktemp(name)))


def test_trace_bytes_match_their_pins(traced):
    name, _path, digest, data = traced
    assert (digest, hashlib.sha256(data).hexdigest()) == PINS[name]


def test_every_read_record_reserialises_to_its_line(traced):
    _name, path, _digest, data = traced
    lines = data.decode().splitlines()
    assert json.loads(lines[-1])["kind"] == "trace.meta"
    records = list(read_jsonl(path))
    assert [json.dumps(e.as_dict(), sort_keys=True) for e in records] == lines[:-1]


def test_the_pinned_runs_cover_every_hot_record_shape(traced):
    name, path, _digest, _data = traced
    shapes = {(e.kind, *sorted(e.as_dict())) for e in read_jsonl(path)}
    kinds = {s[0] for s in shapes}
    if name == "bayes-non-strict":
        assert {"rb.begin", "rb.end", "bn.commit", "gvt.advance"} <= kinds
    elif name == "ga-gzip-sink":
        # the stream crossed several flushes of the 128-record buffer
        assert sum(1 for _ in read_jsonl(path)) > 3 * 128
    else:
        deliver = [s for s in shapes if s[0] == "net.deliver"]
        assert any("ref" in s for s in deliver)
        assert any("ref" not in s for s in deliver)
        assert {"gr.hit", "gr.block", "gr.unblock", "dsm.write"} <= kinds
        assert any(s[0] == "node.compute" and "op" in s for s in shapes)
