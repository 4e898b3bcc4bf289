"""The paper's contribution: non-strict cache coherence via ``Global_Read``.

A thin software-DSM abstraction is layered over PVM exactly as in §4.1 of
the paper: shared-location readers are known at compile time, so writes
become direct sends to the reader set, and each reader keeps a local
user-level buffer with the latest copy (and *age*) of every location it
reads.  On top of that buffer:

* ``read_local``  — slow-memory read: whatever copy is present, never
  blocks (the fully *asynchronous* programs);
* ``global_read(locn, curr_iter, age)`` — **the primitive under study**: a
  blocking read guaranteed to return a value generated no earlier than
  iteration ``curr_iter - age`` of the producer (the *partially
  asynchronous* programs);
* ``global_read`` with ``age=0`` + no barrier — isolates the benefit of
  removing barrier synchronisation (§5's "age = 0" bars);
* write + ``barrier`` + ``global_read(age=0)`` — the *synchronous*
  programs.

Two implementations of the blocking path exist (§2): ``WAIT`` (default —
wait for the producer's normal update, fewer messages; the one the paper
evaluates) and ``REQUEST`` (ask the producer explicitly; served by a
per-node DSM daemon).  Both are provided; the REQUEST variant is examined
in an ablation benchmark.
"""

from repro.core.location import SharedLocationSpec, VersionedValue
from repro.core.agebuffer import AgeBuffer
from repro.core.global_read import (
    GlobalReadMode,
    GlobalReadStats,
    satisfies_age_bound,
)
from repro.core.coherence import CoherenceMode, UpdatePolicy
from repro.core.dsm import Dsm, DsmNode
from repro.core.consistency import Violation, consistency_violations
from repro.core.contract import StalenessContract, dsm_contract

__all__ = [
    "SharedLocationSpec",
    "VersionedValue",
    "AgeBuffer",
    "GlobalReadMode",
    "GlobalReadStats",
    "satisfies_age_bound",
    "CoherenceMode",
    "UpdatePolicy",
    "Dsm",
    "DsmNode",
    "Violation",
    "consistency_violations",
    "StalenessContract",
    "dsm_contract",
]
