"""The eight-function GA test bed (Table 1).

Functions 1–5 are DeJong's classic F1–F5 [Goldberg 1989]; 6–8 are the
Rastrigin, Schwefel and Griewank functions from Mühlenbein, Schomisch &
Born's parallel-GA study [13].  All are *minimisation* problems evaluated
on binary-encoded chromosomes.

Every function is vectorised: ``f(X)`` takes an ``(n_points, n_vars)``
array and returns ``(n_points,)`` values.  ``optimum_threshold`` is the
"global optimum found" criterion used for the solution-quality metric
(§4.3): close enough to the known minimum that only the true basin
qualifies.

Notes on fidelity
-----------------
* F3 (step function): DeJong's original is ``sum(floor(x_i))`` with
  minimum −30; Table 1 lists the minimum as 0, i.e. the common shifted
  form ``30 + sum(floor(x_i))``.  We implement the shifted form so our
  Table 1 row matches the paper's.
* F4 (quartic with noise) adds Gauss(0,1) per evaluation; Table 1 lists
  ``min ≤ −2.5`` because the noise can push values below 0.  A
  deterministic ``noiseless`` variant is provided for tests.
* F5 (Shekel's foxholes) is the reciprocal form with minimum ≈ 0.998004
  (Table 1's 0.99804).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class TestFunction:
    """One row of Table 1."""

    fid: int
    name: str
    n_vars: int
    lower: float
    upper: float
    f: Callable[[np.ndarray], np.ndarray]
    min_value: float
    #: "global optimum found" if best fitness <= this (solution quality)
    optimum_threshold: float
    bits_per_var: int = 10
    #: whether evaluations are stochastic (F4's additive noise)
    noisy: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.n_vars:
            raise ValueError(
                f"f{self.fid} expects {self.n_vars} variables, got {x.shape[1]}"
            )
        # written so that a NaN coordinate fails the test too
        if x.size and not (
            x.min() >= self.lower - 1e-9 and x.max() <= self.upper + 1e-9
        ):
            raise ValueError(f"f{self.fid}: point outside [{self.lower}, {self.upper}]")
        return self.f(x)


def _f1_sphere(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=1)


def _f2_rosenbrock(x: np.ndarray) -> np.ndarray:
    return 100.0 * (x[:, 0] ** 2 - x[:, 1]) ** 2 + (1.0 - x[:, 0]) ** 2


def _f3_step(x: np.ndarray) -> np.ndarray:
    return 30.0 + np.sum(np.floor(x), axis=1)


# F4's noise draws from a module-level generator that experiments reseed
# via `reseed_f4`; per-evaluation noise is part of DeJong's definition.
_f4_rng = np.random.default_rng(0)


def reseed_f4(seed: int) -> None:
    """Reseed F4's evaluation noise (call once per experiment run)."""
    global _f4_rng
    _f4_rng = np.random.default_rng(seed)


def _f4_quartic(x: np.ndarray) -> np.ndarray:
    i = np.arange(1, x.shape[1] + 1, dtype=np.float64)
    return np.sum(i * x**4, axis=1) + _f4_rng.standard_normal(x.shape[0])


def f4_noiseless(x: np.ndarray) -> np.ndarray:
    """Deterministic F4 (for tests and quality thresholds)."""
    x = np.atleast_2d(x)
    i = np.arange(1, x.shape[1] + 1, dtype=np.float64)
    return np.sum(i * x**4, axis=1)


# DeJong F5's 5x5 grid of foxhole centres.
_F5_A1 = np.tile(np.array([-32.0, -16.0, 0.0, 16.0, 32.0]), 5)
_F5_A2 = np.repeat(np.array([-32.0, -16.0, 0.0, 16.0, 32.0]), 5)


def _f5_foxholes(x: np.ndarray) -> np.ndarray:
    j = np.arange(1, 26, dtype=np.float64)
    d = (x[:, 0:1] - _F5_A1) ** 6 + (x[:, 1:2] - _F5_A2) ** 6
    inner = np.sum(1.0 / (j + d), axis=1)
    return 1.0 / (0.002 + inner)


def _f6_rastrigin(x: np.ndarray) -> np.ndarray:
    a = 10.0
    return a * x.shape[1] + np.sum(x * x - a * np.cos(2.0 * np.pi * x), axis=1)


def _f7_schwefel(x: np.ndarray) -> np.ndarray:
    return np.sum(-x * np.sin(np.sqrt(np.abs(x))), axis=1)


def _f8_griewank(x: np.ndarray) -> np.ndarray:
    i = np.arange(1, x.shape[1] + 1, dtype=np.float64)
    return (
        np.sum(x * x, axis=1) / 4000.0
        - np.prod(np.cos(x / np.sqrt(i)), axis=1)
        + 1.0
    )


TEST_FUNCTIONS: tuple[TestFunction, ...] = (
    TestFunction(1, "sphere", 3, -5.12, 5.12, _f1_sphere, 0.0, 0.01, bits_per_var=10),
    TestFunction(2, "rosenbrock", 2, -2.048, 2.048, _f2_rosenbrock, 0.0, 0.01, bits_per_var=12),
    TestFunction(3, "step", 5, -5.12, 5.12, _f3_step, 0.0, 0.5, bits_per_var=10),
    TestFunction(4, "quartic-noise", 30, -1.28, 1.28, _f4_quartic, -2.5, 1.0, bits_per_var=8, noisy=True),
    TestFunction(5, "foxholes", 2, -65.536, 65.536, _f5_foxholes, 0.998004, 1.01, bits_per_var=17),
    TestFunction(6, "rastrigin", 20, -5.12, 5.12, _f6_rastrigin, 0.0, 5.0, bits_per_var=10),
    TestFunction(7, "schwefel", 10, -500.0, 500.0, _f7_schwefel, -4189.83, -4000.0, bits_per_var=10),
    TestFunction(8, "griewank", 10, -600.0, 600.0, _f8_griewank, 0.0, 0.5, bits_per_var=10),
)


def get_function(fid: int) -> TestFunction:
    """Look up a Table 1 function by its number (1-8)."""
    for fn in TEST_FUNCTIONS:
        if fn.fid == fid:
            return fn
    raise KeyError(f"no test function {fid}; valid ids are 1..8")
