"""Loader offered-load accuracy and warp metric behaviour."""

import pytest

from repro.network import (
    EthernetNetwork,
    Frame,
    LoaderConfig,
    NetworkLoader,
    WarpMeter,
)
from repro.obs.bus import TraceBus
from repro.obs.report import warp_streams
from repro.sim import Kernel


def test_loader_offered_load_close_to_target():
    kernel = Kernel(seed=5)
    net = EthernetNetwork(kernel)
    loader = NetworkLoader(
        kernel, net, LoaderConfig(offered_load_bps=1e6, frame_payload_bytes=1024),
        src_node=98, dst_node=99,
    )
    loader.start()
    horizon = 5.0
    kernel.run(stop_when=lambda: kernel.now >= horizon)
    offered = loader.frames_injected * 1024 * 8 / kernel.now
    assert offered == pytest.approx(1e6, rel=0.15)


@pytest.mark.parametrize("bad", [0, -1024])
def test_loader_frame_payload_must_be_positive(bad):
    with pytest.raises(ValueError):
        LoaderConfig(frame_payload_bytes=bad)


def test_loader_zero_load_rejected():
    kernel = Kernel()
    net = EthernetNetwork(kernel)
    with pytest.raises(ValueError):
        NetworkLoader(
            kernel, net, LoaderConfig(offered_load_bps=0.0), src_node=0, dst_node=1
        )


def test_loader_double_start_rejected():
    kernel = Kernel(seed=5)
    net = EthernetNetwork(kernel)
    loader = NetworkLoader(
        kernel, net, LoaderConfig(offered_load_bps=1e5),
        src_node=0, dst_node=1,
    )
    loader.start()
    with pytest.raises(RuntimeError):
        loader.start()


def _paced_sender(kernel, net, gap, n, size=200):
    """Inject n frames 0->1 spaced `gap` seconds apart."""

    def inject(i):
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=size, kind="pvm"))
        if i + 1 < n:
            kernel.schedule(gap, inject, i + 1)

    kernel.schedule(0.0, inject, 0)


def test_warp_is_one_on_stable_network():
    kernel = Kernel(seed=1)
    net = EthernetNetwork(kernel)
    net.attach(0, lambda f: None)
    net.attach(1, lambda f: None)
    meter = WarpMeter().attach(net)
    _paced_sender(kernel, net, gap=0.01, n=20)
    kernel.run()
    assert meter.overall.count == 19
    assert meter.mean_warp == pytest.approx(1.0, abs=0.01)


def test_warp_exceeds_one_when_load_ramps_up():
    """Start a heavy loader midway; arrival gaps stretch -> warp > 1."""
    kernel = Kernel(seed=2)
    net = EthernetNetwork(kernel)
    net.attach(0, lambda f: None)
    net.attach(1, lambda f: None)
    kernel.obs = TraceBus(clock=lambda: kernel.now)
    meter = WarpMeter(kinds={"pvm"}).attach(net)
    _paced_sender(kernel, net, gap=0.002, n=100, size=1000)
    for i, load in enumerate([9e6, 9e6]):
        loader = NetworkLoader(
            kernel,
            net,
            LoaderConfig(offered_load_bps=load, frame_payload_bytes=1500),
            src_node=8 + 2 * i,
            dst_node=9 + 2 * i,
            name=f"loader{i}",
        )
        loader.start(delay=0.05)
    kernel.run(stop_when=lambda: meter.overall.count >= 99)
    assert meter.max_warp > 1.5
    # sustained warp above 1 over the loaded portion, not just a transient;
    # the raw samples are the trace's, recomputed from net.deliver
    samples = [w for _, w in warp_streams(kernel.obs.events)[(1, 0)]]
    assert len(samples) == meter.overall.count
    assert sum(samples[-30:]) / 30 > 1.2


def test_warp_filters_kinds():
    kernel = Kernel(seed=3)
    net = EthernetNetwork(kernel)
    net.attach(0, lambda f: None)
    net.attach(1, lambda f: None)
    meter = WarpMeter(kinds={"pvm"}).attach(net)
    for _ in range(5):
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=64, kind="load"))
    kernel.run()
    assert meter.overall.count == 0


def test_warp_per_stream_keys():
    kernel = Kernel(seed=4)
    net = EthernetNetwork(kernel)
    for i in range(3):
        net.attach(i, lambda f: None)
    meter = WarpMeter().attach(net)

    def inject(i):
        net.adapters[0].send(Frame(src=0, dst=1, size_bytes=100))
        net.adapters[2].send(Frame(src=2, dst=1, size_bytes=100))
        if i < 4:
            kernel.schedule(0.01, inject, i + 1)

    kernel.schedule(0.0, inject, 0)
    kernel.run()
    # consecutive frames pair up within each (receiver, sender) stream:
    # five frames per stream, four warp samples each
    assert meter.overall.count == 8
