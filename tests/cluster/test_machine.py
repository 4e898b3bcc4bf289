"""Machine assembly: spawning, loaders, warp, completion-time measurement."""

import pytest

from repro.cluster import Machine, MachineConfig
from repro.faults.plan import FaultPlan
from repro.network import SP2_SWITCH, SwitchedNetwork
from repro.sim import Compute


def test_machine_builds_nodes_and_tasks():
    m = Machine(MachineConfig(n_nodes=4))
    assert len(m.nodes) == 4
    assert len(m.tasks) == 4
    assert m.tasks[2].tid == 2


def test_ping_pong_between_nodes():
    m = Machine(MachineConfig(n_nodes=2, seed=1))
    log = []

    def ping(node, task):
        yield from task.send(1, tag=1, payload=1, nbytes=4)
        msg = yield from task.recv(src=1)
        log.append(("pong-received", m.kernel.now))

    def pong(node, task):
        msg = yield from task.recv(src=0)
        yield from task.send(0, tag=2, payload=2, nbytes=4)

    m.spawn_on(0, ping)
    m.spawn_on(1, pong)
    t = m.run_to_completion()
    assert log and t > 0


def test_run_to_completion_returns_last_finish_time():
    m = Machine(MachineConfig(n_nodes=2))

    def worker(duration):
        def proc(node, task):
            yield Compute(duration)

        return proc

    m.spawn_on(0, worker(1.0))
    m.spawn_on(1, worker(3.0))
    assert m.run_to_completion() == pytest.approx(3.0)


def test_run_without_processes_rejected():
    m = Machine(MachineConfig(n_nodes=1))
    with pytest.raises(RuntimeError):
        m.run_to_completion()


def test_loader_occupies_extra_node_ids():
    m = Machine(MachineConfig(n_nodes=2, loader_bps=(1e6,)))
    # nodes 0,1 are application; 2,3 the loader pair
    assert set(m.network.adapters) == {0, 1, 2, 3}
    assert len(m.loaders) == 1


def test_loader_slows_application_traffic():
    def comm_time(load):
        cfg = MachineConfig(n_nodes=2, seed=5).with_load(load)
        m = Machine(cfg)

        def sender(node, task):
            for _ in range(50):
                yield from task.send(1, tag=1, payload=[1.0] * 100, nbytes=800)

        def receiver(node, task):
            for _ in range(50):
                yield from task.recv()

        m.spawn_on(0, sender)
        m.spawn_on(1, receiver)
        return m.run_to_completion()

    assert comm_time(8e6) > comm_time(0.0) * 1.2


def test_warp_meter_optional():
    m = Machine(MachineConfig(n_nodes=2, measure_warp=True))
    assert m.warp is not None
    m2 = Machine(MachineConfig(n_nodes=2))
    assert m2.warp is None


def test_heterogeneous_speed_factors():
    m = Machine(MachineConfig(n_nodes=2, speed_factors=(1.0, 0.5)))
    assert m.nodes[1].cost(1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        MachineConfig(n_nodes=3, speed_factors=(1.0, 2.0))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_nodes": 2, "speed_factors": (1.0, float("nan"))}, r"speed_factors\[1\] must be finite"),
        ({"n_nodes": 2, "speed_factors": (float("inf"), 1.0)}, r"speed_factors\[0\] must be finite"),
        ({"n_nodes": 2, "speed_factors": (1.0, 0.0)}, r"speed_factors\[1\] must be finite"),
        ({"loader_bps": (float("nan"),)}, r"loader_bps\[0\] must be finite"),
        ({"loader_bps": (1e6, float("inf"))}, r"loader_bps\[1\] must be finite"),
        ({"loader_bps": (0.0,)}, r"loader_bps\[0\] must be finite"),
        ({"loader_frame_bytes": 99999}, "loader_frame_bytes 99999 exceeds the ethernet max_payload 1500"),
        ({"loader_frame_bytes": 1501, "interconnect": "switched"}, "exceeds the switched max_payload"),
    ],
)
def test_unrunnable_machine_inputs_are_refused_naming_the_field(kwargs, message):
    with pytest.raises(ValueError, match=message):
        MachineConfig(**kwargs)


def test_loader_frame_fits_the_chosen_interconnect():
    # the SP2 switch's MTU is far above Ethernet's: the bound follows the fabric
    MachineConfig(interconnect="switched", switched=SP2_SWITCH, loader_frame_bytes=9000)


def test_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(n_nodes=0)
    with pytest.raises(ValueError):
        MachineConfig(interconnect="token-ring")


@pytest.mark.parametrize(
    "knobs",
    [
        {"trace_sink": "t.jsonl.gz"},  # a sink with tracing off records nothing
        {"trace": True, "trace_max_events": 0},  # would drop every event
        {"trace": True, "trace_sink": "t.jsonl.gz", "trace_flush_every": 0},
    ],
)
def test_trace_knobs_refused_not_silently_ignored(knobs):
    with pytest.raises(ValueError, match="trace"):
        MachineConfig(n_nodes=2, **knobs)


@pytest.mark.parametrize("spec", ["pause=7:0:1", "crash=2:0.5:1", "slow=2:0:1:3"])
def test_node_faults_on_nodes_that_do_not_exist_are_refused(spec):
    # only compute nodes 0..n_nodes-1 carry a fault model: a fault on any
    # other id would leave the run silently healthy
    with pytest.raises(ValueError, match=r"on node \d, but the machine has n_nodes=2"):
        MachineConfig(n_nodes=2, faults=FaultPlan.parse(spec))


def test_switch_interconnect_selectable():
    m = Machine(MachineConfig(n_nodes=2, interconnect="switched", switched=SP2_SWITCH))
    assert isinstance(m.network, SwitchedNetwork)
    assert m.network.config is SP2_SWITCH


def test_the_crossbar_interconnect_is_refused_naming_the_valid_ones():
    with pytest.raises(ValueError, match="interconnect must be one of 'ethernet', 'switched'"):
        MachineConfig(interconnect="switch")


def test_with_load_zero_means_no_loader():
    cfg = MachineConfig(n_nodes=2).with_load(0.0)
    assert cfg.loader_bps == ()
