"""Software fitness caching ([19], §5).

"For the sequential GA programs, we developed a software caching technique
to reduce the recomputation of fitness values of surviving individuals."

Generational GAs re-create many chromosomes verbatim (clones selected
without crossover/mutation, the elitist copy, migrants already seen).  The
cache maps chromosome bytes to fitness so only genuinely new chromosomes
are evaluated — both the serial baseline and the demes use it, keeping the
serial/parallel comparison fair.  Hit statistics feed the compute-cost
model: simulated evaluation time is charged per *miss*.

Noisy functions (F4) must not be cached — a cached noisy value would
freeze one noise draw forever — so the cache can be constructed disabled
and then behaves as a transparent pass-through.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np


class FitnessCache:
    """Memoising wrapper around a population evaluator.

    LRU-bounded (default 100k entries) so long runs cannot grow without
    limit; the hit/miss counters expose the effective evaluation count.
    """

    def __init__(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        enabled: bool = True,
        max_entries: int = 100_000,
    ) -> None:
        self._evaluate = evaluate
        self.enabled = enabled
        self.max_entries = max_entries
        self._store: OrderedDict[bytes, float] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __call__(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(genomes)
        n = genomes.shape[0]
        if not self.enabled:
            self.misses += n
            return self._evaluate(genomes)

        out = np.empty(n, dtype=np.float64)
        # one C-order copy sliced per row: the same bytes as row.tobytes()
        buf = genomes.tobytes()
        width = genomes.shape[1] * genomes.itemsize
        keys: list[bytes] = [buf[i * width:(i + 1) * width] for i in range(n)]
        # first occurrence of each unknown chromosome in this batch
        unique_miss: dict[bytes, int] = {}
        dup_rows: list[int] = []
        for i, key in enumerate(keys):
            val = self._store.get(key)
            if val is not None:
                self._store.move_to_end(key)
                out[i] = val
                self.hits += 1
            elif key in unique_miss:
                dup_rows.append(i)  # duplicate within the batch: one eval
                self.hits += 1
            else:
                unique_miss[key] = i
        if unique_miss:
            rows = list(unique_miss.values())
            self.misses += len(rows)
            vals = self._evaluate(genomes[rows])
            for i, v in zip(rows, vals):
                out[i] = v
                self._store[keys[i]] = float(v)
            for i in dup_rows:
                out[i] = self._store[keys[i]]
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return out

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._store)
