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

The LRU lives in a plain ``dict``'s insertion order (a hit re-inserts
its key at the end; eviction deletes the first): every deme holds one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ga.population import row_keys

#: LRU bound, so long runs cannot grow without limit
MAX_ENTRIES = 100_000


class FitnessCache:
    """Memoising wrapper around a population evaluator.

    LRU-bounded (:data:`MAX_ENTRIES`); the hit/miss counters expose the
    effective evaluation count.
    """

    def __init__(self, evaluate: Callable[[np.ndarray], np.ndarray], enabled: bool = True) -> None:
        self._evaluate = evaluate
        self.enabled = enabled
        self._store: dict[bytes, float] = {}
        self.hits = 0
        self.misses = 0

    def __call__(self, genomes: np.ndarray) -> np.ndarray:
        genomes = np.atleast_2d(genomes)
        n = genomes.shape[0]
        if not self.enabled:
            self.misses += n
            return self._evaluate(genomes)

        store = self._store
        keys = row_keys(genomes)
        vals = list(map(store.get, keys))
        for key, val in zip(keys, vals):
            if val is not None:
                store[key] = store.pop(key)  # to the most-recent end
        if None not in vals:
            self.hits += n
            return np.array(vals, dtype=np.float64)
        missing = [i for i, val in enumerate(vals) if val is None]
        # first occurrence of each unknown chromosome in this batch; a
        # later one is a hit on it (one evaluation)
        first: dict[bytes, int] = {}
        for i in missing:
            first.setdefault(keys[i], i)
        rows = list(first.values())
        self.misses += len(rows)
        self.hits += n - len(rows)
        for key, v in zip(first, self._evaluate(genomes[rows]).tolist()):
            store[key] = v
        for i in missing:
            vals[i] = store[keys[i]]
        while len(store) > MAX_ENTRIES:
            del store[next(iter(store))]
        return np.array(vals, dtype=np.float64)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._store)
