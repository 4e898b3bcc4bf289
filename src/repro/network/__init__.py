"""Network substrate: link-level models under the PVM messaging layer.

The paper's platform was an IBM SP2 whose nodes were connected both by a
10 Mbps shared Ethernet (used for all reported results) and by the SP2's
high-performance switch.  This package models both (the switch as the
``SP2_SWITCH`` preset of the switched fabrics), plus the background
network-loader used in the paper's loaded-network experiments (Figure 4)
and the *warp* network-load metric of Heddaya et al. used in §4.3.

Models transport :class:`~repro.network.frame.Frame` objects only; message
fragmentation/reassembly above the MTU is the job of :mod:`repro.pvm`.
"""

from repro.network.frame import BROADCAST, Frame
from repro.network.stats import LinkStats
from repro.network.base import Adapter, Network
from repro.network.ethernet import EthernetNetwork
from repro.network.switched import FABRICS, SP2_SWITCH, SwitchedConfig, SwitchedNetwork
from repro.network.loader import NetworkLoader, LoaderConfig
from repro.network.warp import WarpMeter

__all__ = [
    "BROADCAST",
    "Frame",
    "LinkStats",
    "Adapter",
    "Network",
    "EthernetNetwork",
    "FABRICS",
    "SP2_SWITCH",
    "SwitchedConfig",
    "SwitchedNetwork",
    "NetworkLoader",
    "LoaderConfig",
    "WarpMeter",
]
