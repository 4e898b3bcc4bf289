"""Machine assembly: kernel + network + PVM + nodes in one object.

:class:`Machine` is the entry point applications and experiments use: it
wires a simulation kernel, the chosen interconnect, the PVM layer and the
per-node compute models together, and exposes convenience methods for
spawning application processes on nodes, attaching background loaders
(Figure 4) and measuring warp (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Generator

from repro.cluster.node import Node, NodeSpec
from repro.faults.injectors import FaultInjector, install_faults
from repro.faults.plan import FaultPlan
from repro.inputs import at_least, check_fields, one_of, positive
from repro.network.ethernet import EthernetNetwork
from repro.network.loader import LoaderConfig, NetworkLoader
from repro.network.switched import SwitchedConfig, SwitchedNetwork
from repro.network.warp import WarpMeter
from repro.obs.bus import TraceBus
from repro.pvm.vm import PvmOverheads, Task, VirtualMachine
from repro.sim.kernel import CompletionCounter, Kernel
from repro.sim.process import ProcessHandle

#: the interconnects a machine can be built on (the SP2 switch is the
#: ``switched`` fabric's SP2_SWITCH preset)
INTERCONNECTS = ("ethernet", "switched")

#: payload of each background-loader frame (within the Ethernet MTU; a
#: switched config's MTU is checked against it)
LOADER_FRAME_BYTES = 1024


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build a reproducible machine."""

    n_nodes: int = at_least(1, default=4)
    seed: int = at_least(0, default=0)
    interconnect: str = one_of(INTERCONNECTS, default="ethernet")
    switched: SwitchedConfig = field(default_factory=SwitchedConfig)
    #: let Task.mcast use the fabric's multicast tree (one BROADCAST frame
    #: replicated in-tree) when the destination set is every other task;
    #: off by default — the paper's PVM multicasts per destination
    hw_multicast: bool = False
    pvm_overheads: PvmOverheads = field(default_factory=PvmOverheads)
    node_spec: NodeSpec = field(default_factory=NodeSpec)
    #: per-node speed factors (len == n_nodes) overriding node_spec's;
    #: empty = homogeneous
    speed_factors: tuple[float, ...] = positive(default=(), each=True)
    #: offered background loads in bps; each gets its own loader node pair
    loader_bps: tuple[float, ...] = positive(default=(), each=True)
    measure_warp: bool = False
    #: optional fault-injection schedule; None = healthy machine
    faults: FaultPlan | None = None
    #: attach a repro.obs trace bus to the kernel (determinism-neutral:
    #: the run is bit-identical with tracing on or off — pinned by
    #: tests/obs); also makes the warp meter keep raw samples so the
    #: metrics snapshot can report per-stream percentiles
    trace: bool = False
    #: trace-bus capacity; overflow increments TraceBus.dropped
    trace_max_events: int = at_least(1, default=500_000)
    #: stream the trace to a rotating gzip sink at this path instead of
    #: buffering it: peak trace memory becomes O(trace_flush_every)
    #: regardless of run length and no event is ever dropped (the
    #: long-run path; finalize with ``obs.write_jsonl()``)
    trace_sink: str | None = None
    #: events buffered between sink flushes when trace_sink is set
    trace_flush_every: int = at_least(1, default=5_000)

    def __post_init__(self) -> None:
        check_fields(self)
        for fault in self.faults.node_faults if self.faults is not None else ():
            # only compute nodes get a fault model: any other id is a no-op
            if fault.node >= self.n_nodes:
                raise ValueError(
                    f"{fault.kind} fault on node {fault.node}, but the machine "
                    f"has n_nodes={self.n_nodes} (ids 0..{self.n_nodes - 1})"
                )
        if self.hw_multicast and self.interconnect != "switched":
            raise ValueError("hw_multicast requires the 'switched' interconnect")
        if self.speed_factors and len(self.speed_factors) != self.n_nodes:
            raise ValueError("speed_factors length must equal n_nodes")
        mtu = self.switched.max_payload
        if self.interconnect == "switched" and LOADER_FRAME_BYTES > mtu:
            raise ValueError(
                f"the loader's {LOADER_FRAME_BYTES}-byte frames exceed the "
                f"switched max_payload {mtu}"
            )
        if self.trace_sink and not self.trace:
            raise ValueError("trace_sink needs trace=True (nothing would be recorded)")

    def with_load(self, bps: float) -> "MachineConfig":
        """Copy of this config with one background loader at ``bps``."""
        return replace(self, loader_bps=(bps,) if bps > 0 else ())


class Machine:
    """A simulated multicomputer ready to run application processes."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.kernel = Kernel(seed=config.seed)
        self.obs: TraceBus | None = None
        if config.trace:
            # installed before any other component so every subsystem's
            # `kernel.obs` lookup (dynamic or cached at construction)
            # sees the bus
            sink = None
            if config.trace_sink:
                from repro.obs.bus import GzipJsonlSink

                sink = GzipJsonlSink(config.trace_sink)
            self.obs = TraceBus(
                # reads kernel.now without a Python frame per record
                clock=partial(getattr, self.kernel, "now"),
                max_events=config.trace_max_events,
                sink=sink,
                flush_every=config.trace_flush_every,
            )
            self.kernel.obs = self.obs
        if config.interconnect == "ethernet":
            self.network = EthernetNetwork(self.kernel)
        else:
            self.network = SwitchedNetwork(self.kernel, config.switched)
        self.vm = VirtualMachine(
            self.kernel,
            self.network,
            config.pvm_overheads,
            hw_multicast=config.hw_multicast,
        )
        self.nodes: list[Node] = []
        self.tasks: list[Task] = []
        for i in range(config.n_nodes):
            spec = config.node_spec
            if config.speed_factors:
                spec = replace(spec, speed_factor=config.speed_factors[i])
            self.nodes.append(Node(self.kernel, i, spec))
            self.tasks.append(self.vm.add_task(i))
        # Loader nodes occupy ids above the application nodes, mirroring
        # the paper's "two other nodes" running the loader program.
        self.loaders: list[NetworkLoader] = []
        next_id = config.n_nodes
        for k, bps in enumerate(config.loader_bps):
            loader = NetworkLoader(
                self.kernel,
                self.network,
                LoaderConfig(
                    offered_load_bps=bps,
                    frame_payload_bytes=LOADER_FRAME_BYTES,
                ),
                src_node=next_id,
                dst_node=next_id + 1,
                name=f"loader{k}",
            )
            next_id += 2
            loader.start()
            self.loaders.append(loader)
        self.warp: WarpMeter | None = None
        if config.measure_warp:
            self.warp = WarpMeter(kinds={"pvm"}).attach(self.network)
        # Faults install *last* so the message injector wraps the final
        # network._deliver (warp and observers see post-fault deliveries
        # only — a dropped frame truly never arrives anywhere).
        self.faults: FaultInjector | None = None
        if config.faults is not None and not config.faults.is_noop:
            self.faults = install_faults(
                self.kernel, self.network, self.nodes, config.faults
            )
        self._handles: list[ProcessHandle] = []

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of compute nodes in this machine."""
        return self.config.n_nodes

    def spawn_on(
        self,
        node_id: int,
        make_proc: Callable[[Node, Task], Generator],
        name: str | None = None,
    ) -> ProcessHandle:
        """Spawn ``make_proc(node, task)`` as the process on ``node_id``."""
        node = self.nodes[node_id]
        task = self.tasks[node_id]
        handle = self.kernel.spawn(
            make_proc(node, task), name=name or f"node{node_id}"
        )
        self._handles.append(handle)
        return handle

    def run_to_completion(self) -> float:
        """Run until every spawned application process finishes.

        Returns the completion time (simulated seconds) — the paper's
        primary metric.  The loaders keep injecting, so we stop on process
        completion rather than queue drain.
        """
        if not self._handles:
            raise RuntimeError("no application processes spawned")
        counter = CompletionCounter(self._handles)
        self.kernel.run(stop_when=counter.all_done)
        for h in self._handles:
            if h.error is not None:  # surfaced via ProcessFailure normally
                raise h.error
            if not h.done:
                from repro.sim.errors import DeadlockError

                raise DeadlockError(
                    [p.describe_block() for p in self._handles if not p.done]
                )
        return self.kernel.now

    def results(self) -> list:
        """Per-node results collected by :meth:`run_program`, in node order."""
        return [h.result for h in self._handles]
