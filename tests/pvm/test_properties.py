"""Property-based tests for the messaging layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import SP2_SWITCH, EthernetNetwork, SwitchedNetwork
from repro.pvm import VirtualMachine
from repro.sim import Kernel


@settings(max_examples=30, deadline=None)
@given(
    n_doubles=st.integers(min_value=0, max_value=4000),
    n_ints=st.integers(min_value=0, max_value=1000),
    text=st.text(max_size=64),
    switch=st.booleans(),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_any_message_roundtrips_across_either_network(
    n_doubles, n_ints, text, switch, seed
):
    """Arbitrary payloads of arbitrary wire size survive fragmentation,
    transmission and reassembly intact on both link models."""
    kernel = Kernel(seed=seed)
    net = SwitchedNetwork(kernel, SP2_SWITCH) if switch else EthernetNetwork(kernel)
    vm = VirtualMachine(kernel, net)
    t0, t1 = vm.add_task(0), vm.add_task(1)

    doubles = np.arange(n_doubles, dtype=np.float64) * 0.5
    ints = np.arange(n_ints, dtype=np.int64) - 7
    # the C encoding: 8-byte doubles, 4-byte ints, a NUL-terminated string
    nbytes = 8 * n_doubles + 4 * n_ints + len(text.encode("utf-8")) + 1
    got = {}

    def sender():
        yield from t0.send(1, tag=5, payload=(doubles, ints, text), nbytes=nbytes)

    def receiver():
        msg = yield from t1.recv(src=0, tag=5)
        got["doubles"], got["ints"], got["text"] = msg.payload
        got["nbytes"] = msg.nbytes

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert np.array_equal(got["doubles"], doubles)
    assert np.array_equal(got["ints"], ints)
    assert got["text"] == text
    assert got["nbytes"] == nbytes


@settings(max_examples=20, deadline=None)
@given(
    n_msgs=st.integers(min_value=1, max_value=30),
    sizes=st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=30),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_pairwise_fifo_under_mixed_sizes(n_msgs, sizes, seed):
    """Messages of wildly different sizes from one sender arrive in send
    order (fragments of a big message never let a later small one pass)."""
    kernel = Kernel(seed=seed)
    net = EthernetNetwork(kernel)
    vm = VirtualMachine(kernel, net)
    t0, t1 = vm.add_task(0), vm.add_task(1)
    n = min(n_msgs, len(sizes))
    got = []

    def sender():
        for i in range(n):
            yield from t0.send(1, tag=1, payload=(i,), nbytes=sizes[i % len(sizes)])

    def receiver():
        for _ in range(n):
            msg = yield from t1.recv()
            got.append(msg.payload[0])

    kernel.spawn(sender())
    kernel.spawn(receiver())
    kernel.run()
    assert got == list(range(n))
