"""Binary chromosome encoding.

DeJong-style GAs represent each variable as a fixed-width binary field
concatenated into one chromosome.  Decoding maps the unsigned integer of
each field linearly onto ``[lower, upper]``.  An optional Gray-code mode
is provided (Mühlenbein's study used Gray coding; DeJong's original used
plain binary — plain binary is the default here, matching DeJong's
parameter study the paper bases its settings on).

All operations are vectorised over whole populations: chromosomes are
``(n, L)`` uint8 arrays of 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ga.functions import TestFunction


@dataclass(frozen=True)
class BinaryEncoding:
    """Fixed-point binary encoding for ``n_vars`` variables."""

    n_vars: int
    bits_per_var: int
    lower: float
    upper: float
    gray: bool = False
    #: decode weight of each bit of a field (MSB first), derived once
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_vars < 1 or self.bits_per_var < 1:
            raise ValueError("n_vars and bits_per_var must be >= 1")
        if not self.upper > self.lower:
            raise ValueError("upper must exceed lower")
        if self.bits_per_var > 30:
            raise ValueError("bits_per_var > 30 overflows the int decode")
        weights = 1 << np.arange(self.bits_per_var - 1, -1, -1, dtype=np.int64)
        object.__setattr__(self, "_weights", weights)

    @classmethod
    def for_function(cls, fn: TestFunction, gray: bool = False) -> "BinaryEncoding":
        """The encoding matching ``fn``'s bit width, bounds and dimensionality."""
        return cls(fn.n_vars, fn.bits_per_var, fn.lower, fn.upper, gray=gray)

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
        if self.gray:
            # Gray -> binary: b_i = g_0 xor ... xor g_i (prefix xor)
            fields = np.bitwise_xor.accumulate(fields, axis=2)
        ints = fields.astype(np.int64) @ self._weights
        span = (1 << self.bits_per_var) - 1
        return self.lower + (self.upper - self.lower) * ints / span
