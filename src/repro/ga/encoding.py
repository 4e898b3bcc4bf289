"""Binary chromosome encoding.

DeJong-style GAs represent each variable as a fixed-width binary field
concatenated into one chromosome.  Decoding maps the unsigned integer of
each field linearly onto ``[lower, upper]``: plain binary, as in DeJong's
parameter study the paper bases its settings on.

All operations are vectorised over whole populations: chromosomes are
``(n, L)`` uint8 arrays of 0/1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ga.functions import TestFunction
from repro.inputs import at_least, check_fields, unconstrained


@dataclass(frozen=True)
class BinaryEncoding:
    """Fixed-point binary encoding for ``n_vars`` variables."""

    n_vars: int = at_least(1)
    #: more than 30 bits overflows the int decode
    bits_per_var: int = at_least(1, at_most=30)
    lower: float = unconstrained("any finite bound; lower < upper is checked below")
    upper: float = unconstrained("any finite bound; lower < upper is checked below")
    #: decode weight of each bit of a field (MSB first), derived once
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_fields(self)
        if not -math.inf < self.lower < self.upper < math.inf:
            raise ValueError(f"need finite lower < upper, got [{self.lower}, {self.upper}]")
        weights = 1 << np.arange(self.bits_per_var - 1, -1, -1, dtype=np.int64)
        object.__setattr__(self, "_weights", weights)

    @classmethod
    def for_function(cls, fn: TestFunction) -> "BinaryEncoding":
        """The encoding matching ``fn``'s bit width, bounds and dimensionality."""
        return cls(fn.n_vars, fn.bits_per_var, fn.lower, fn.upper)

    @property
    def length(self) -> int:
        """Chromosome length L in bits."""
        return self.n_vars * self.bits_per_var

    @property
    def nbytes(self) -> int:
        """Packed wire size of one chromosome (what migration messages pay)."""
        return -(-self.length // 8)

    def random_population(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random ``(n, L)`` chromosome array."""
        return rng.integers(0, 2, size=(n, self.length), dtype=np.uint8)

    def decode(self, chromosomes: np.ndarray) -> np.ndarray:
        """Map ``(n, L)`` bits to ``(n, n_vars)`` real points (vectorised)."""
        chroms = np.atleast_2d(chromosomes)
        if chroms.shape[1] != self.length:
            raise ValueError(
                f"chromosome length {chroms.shape[1]} != encoding length {self.length}"
            )
        fields = chroms.reshape(chroms.shape[0], self.n_vars, self.bits_per_var)
        ints = fields.astype(np.int64) @ self._weights
        span = (1 << self.bits_per_var) - 1
        return self.lower + (self.upper - self.lower) * ints / span
