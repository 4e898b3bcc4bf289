"""Multicomputer model: nodes and machine assembly.

Models the paper's platform (§4.1): an IBM SP2 whose nodes hold one
application process each, connected by a 10 Mbps Ethernet (default) or the
SP2 high-speed switch.  The paper ran under LoadLeveler only to get
dedicated nodes; here every node runs exactly one process, so there is no
allocator to model.
"""

from repro.cluster.node import Node, NodeSpec
from repro.cluster.machine import Machine, MachineConfig

__all__ = [
    "Node",
    "NodeSpec",
    "Machine",
    "MachineConfig",
]
