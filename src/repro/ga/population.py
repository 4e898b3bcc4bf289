"""Population container: chromosomes + fitness with the operations the
serial and island GAs share (best/worst queries, migrant extraction,
worst-replacement incorporation)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Population:
    """``genomes``: (N, L) uint8 bits; ``fitness``: (N,) objective values
    (minimisation — smaller is fitter)."""

    genomes: np.ndarray
    fitness: np.ndarray

    def __post_init__(self) -> None:
        # built per generation on the event path: inline checks, not repro.inputs
        self.genomes = np.ascontiguousarray(self.genomes, dtype=np.uint8)
        self.fitness = np.asarray(self.fitness, dtype=np.float64)
        if self.genomes.ndim != 2:
            raise ValueError("genomes must be a 2-D bit array")
        if self.fitness.shape != (self.genomes.shape[0],):
            raise ValueError(
                f"fitness shape {self.fitness.shape} does not match "
                f"{self.genomes.shape[0]} individuals"
            )

    @property
    def size(self) -> int:
        """Number of individuals."""
        return self.genomes.shape[0]

    @property
    def best_fitness(self) -> float:
        """Fitness of the fittest individual."""
        return float(self.fitness.min())

    @property
    def mean_fitness(self) -> float:
        """Mean fitness over the population."""
        # what ndarray.mean computes, without its Python wrapper
        return float(self.fitness.sum() / self.fitness.size)

    def best_individuals(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` fittest (genomes, fitness), fittest first.

        This is what a deme emigrates: "the best fit N/2 individuals found
        in each generation" (§4.2.1).
        """
        if not 0 < k <= self.size:
            raise ValueError(f"k must be in 1..{self.size}, got {k}")
        idx = self.fitness.argsort(kind="stable")[:k]
        return self.genomes[idx], self.fitness[idx]

    def replace_worst(self, genomes: np.ndarray, fitness: np.ndarray) -> int:
        """Replace the worst individuals with the incoming migrants.

        "Each processor then replaces the worst individuals in its
        subpopulation with these migrants" (§4.2.1).  Two guards keep
        incorporation sane: a migrant only displaces a strictly worse
        resident, and a migrant identical to a resident chromosome is
        skipped (installing clones of the global elite every generation
        would collapse deme diversity — the standard island-GA duplicate
        check).  Returns the number actually installed.

        Migrants are visited best first and the worst-resident cursor
        moves only on an install, so the first migrant that cannot
        displace it ends the pass, duplicate or not: fitness is tested
        first and the resident keys are built only once a migrant passes
        (DESIGN.md §8).
        """
        genomes = np.atleast_2d(genomes)
        fitness = np.asarray(fitness, dtype=np.float64)
        if genomes.shape[0] != fitness.shape[0]:
            raise ValueError("migrant genomes/fitness length mismatch")
        k = min(genomes.shape[0], self.size)
        order = fitness.argsort(kind="stable")[:k]  # best migrants first
        worst = self.fitness.argsort(kind="stable")[::-1].tolist()  # worst residents first
        migrant_f = fitness.tolist()
        resident_f = self.fitness.tolist()
        resident_keys: set[bytes] | None = None
        installed = 0  # also the cursor into `worst`: k <= size bounds it
        for m in order.tolist():
            w = worst[installed]
            if migrant_f[m] >= resident_f[w]:
                break  # no strictly-worse resident left to displace
            if resident_keys is None:
                resident_keys = set(row_keys(self.genomes))
                migrant_keys = row_keys(genomes)
            key = migrant_keys[m]
            if key in resident_keys:
                continue  # duplicate of a resident: skip
            self.genomes[w] = genomes[m]
            self.fitness[w] = migrant_f[m]
            resident_keys.add(key)
            installed += 1
        return installed


def row_keys(rows: np.ndarray) -> list[bytes]:
    """``row.tobytes()`` of every row of a 2-D array, in one pass."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}")[:, 0].tolist()
