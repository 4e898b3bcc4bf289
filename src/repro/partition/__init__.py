"""Graph partitioning (the paper's METIS substitute).

§4.2.2 partitions the belief networks with METIS [11] and reports the
2-way edge-cut (Table 2).  This package implements the same class of
algorithm from scratch:

* :func:`~repro.partition.greedy.greedy_bisection` — BFS region growth
  from a pseudo-peripheral seed;
* :func:`~repro.partition.kl.kl_refine` — Kernighan–Lin pairwise-swap
  refinement;
* :func:`~repro.partition.multilevel.multilevel_bisection` — heavy-edge
  matching coarsening, coarsest-level greedy + KL, refinement during
  uncoarsening (the METIS recipe);
* :func:`~repro.partition.multilevel.partition` — k-way by recursive
  bisection.

Graphs are :class:`~repro.partition.graph.Graph` instances: dict
adjacency holding each edge's weight (default 1), iterated in insertion
order so every partition is a pure function of the graph and the seed.
"""

from repro.partition.graph import Graph
from repro.partition.metrics import edge_cut, balance, validate_partition
from repro.partition.greedy import greedy_bisection
from repro.partition.kl import kl_refine
from repro.partition.multilevel import multilevel_bisection, partition

__all__ = [
    "Graph",
    "edge_cut",
    "balance",
    "validate_partition",
    "greedy_bisection",
    "kl_refine",
    "multilevel_bisection",
    "partition",
]
