"""PVM-style message-passing layer (after Geist et al., *PVM 3*).

The paper runs everything "on a multicomputer orchestrated by the PVM
message passing library" with a thin shared-memory layer on top (§4.1).
This package reproduces the PVM facilities that layer needs:

* tagged, reliable, ordered point-to-point messages with wildcard
  receives (``recv``/``nrecv_all``/``probe``), each carrying a Python
  payload and the byte size its C encoding would have on the wire,
* multicast to a task list (``mcast`` — unicast fan-out, as real PVM
  implements it over UDP),
* group barrier (``barrier`` — coordinator-based, as in PVM groups),
* per-message software overheads charged as simulated CPU time,
  calibrated by :mod:`repro.cluster`.

Blocking calls are generators: application processes invoke them as
``msg = yield from task.recv(...)``.
"""

from repro.pvm.message import Message, ANY_SOURCE, ANY_TAG
from repro.pvm.vm import PvmOverheads, Task, VirtualMachine

__all__ = [
    "Message",
    "ANY_SOURCE",
    "ANY_TAG",
    "PvmOverheads",
    "Task",
    "VirtualMachine",
]
