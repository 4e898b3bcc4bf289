"""repro — reproduction of *Non-Strict Cache Coherence: Exploiting
Data-Race Tolerance in Emerging Applications* (Tambat & Vajapeyam, ICPP 2000).

The package implements, from scratch, every layer the paper's evaluation
rests on:

* :mod:`repro.sim` — a deterministic discrete-event simulation kernel on
  which all "parallel" execution runs (see DESIGN.md for why simulation
  replaces the paper's IBM SP2).
* :mod:`repro.network` — a 10 Mbps shared-Ethernet contention model, a
  high-speed switch model, a background-traffic loader and the *warp*
  network-load metric.
* :mod:`repro.pvm` — a PVM-style message-passing layer (send / recv /
  mcast / barrier with byte-accurate message sizes).
* :mod:`repro.cluster` — the multicomputer model: calibrated per-node
  compute costs, one dedicated process per node.
* :mod:`repro.core` — **the paper's contribution**: a software-DSM
  abstraction with versioned shared locations and the blocking
  ``Global_Read`` bounded-staleness primitive.
* :mod:`repro.ga` — DeJong-class genetic algorithms, the eight-function
  test bed (Table 1) and island-model parallel GAs.
* :mod:`repro.bayes` — Bayesian belief networks, logic-sampling inference
  (Table 2) and parallel logic sampling with rollback.
* :mod:`repro.partition` — a METIS-class graph partitioner
  (greedy growth + Kernighan–Lin + multilevel).
* :mod:`repro.experiments` — runners that regenerate every table and
  figure of the paper's evaluation section.
* :mod:`repro.faults` — deterministic, seed-driven fault injection and
  the chaos plans.
* :mod:`repro.obs` — structured tracing, metrics snapshots and run
  reports (off by default; determinism-neutral when on).
* :mod:`repro.analysis` — determinism lint and the happens-before race
  classifier behind the paper's race-tolerance argument.
* :mod:`repro.bench` — the three host-time numbers perfbench does not
  measure yet: the bare-kernel loop, the 4,096-deme ring and the
  figure-3 wall.
* :mod:`repro.check` — the golden table of determinism digests CI pins
  every run against, and the one checker that reruns it.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
