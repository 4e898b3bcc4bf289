"""Coherence modes and update-propagation policies.

:class:`CoherenceMode` names the three program organisations the paper
compares (§5); the applications select behaviour by it.  The mapping onto
DSM operations is:

=================  =====================================================
SYNCHRONOUS        write → group barrier → ``global_read(age=0)``
ASYNCHRONOUS       write → ``read_local`` (slow-memory semantics; never
                   blocks, tolerates arbitrarily stale copies)
NON_STRICT         write → ``global_read(age=k)`` (partially
                   asynchronous; k chosen by the programmer)
=================  =====================================================

:class:`UpdatePolicy` controls how writes propagate:

* ``EAGER`` — every write sends immediately, one message per reader.
  This is the paper's actual setup ("a simple layer of software on top of
  PVM ... without the optimizations inherent in a real DSM
  implementation"), and is what lets fully asynchronous programs flood
  the network.
* ``COALESCE`` — Mermera-style buffering [18]: when the sender's egress
  queue is backlogged past a threshold, a write only refreshes a per-
  location outbox slot (newest value wins) and is flushed by a later
  write once the queue drains.  Legal under slow-memory semantics, and
  exactly the sender-side adaptation §1 credits to asynchronous DSMs;
  offered as an ablation against receiver-side Global_Read control.
"""

from __future__ import annotations

import enum


class CoherenceMode(enum.Enum):
    """The three program organisations compared in the paper's §5."""

    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"
    NON_STRICT = "non_strict"


class UpdatePolicy(enum.Enum):
    """Sender-side propagation policy for shared-location writes."""

    EAGER = "eager"
    COALESCE = "coalesce"
