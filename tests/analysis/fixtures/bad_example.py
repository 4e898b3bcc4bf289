"""Deliberately broken module: every RPR0xx rule must fire on this file.

This fixture is excluded from the default lint walk (see
``repro.analysis.lint.DEFAULT_EXCLUDES``) and is never imported; CI
lints it *explicitly* and asserts a non-zero exit.
"""

import random
import time

import numpy as np


def unseeded_randomness():
    a = random.random()                  # RPR001: stdlib global RNG
    b = np.random.rand(4)                # RPR001: numpy global RNG
    np.random.seed(0)                    # RPR001: mutates global state
    return a, b


def wall_clock():
    start = time.time()                  # RPR002: host clock
    return time.perf_counter() - start   # RPR002: host clock


def iteration_order(streams):
    names = []
    for s in {"mutate", "select", "migrate"}:    # RPR003: set iteration
        names.append(s)
    totals = [n for n in set(streams)]           # RPR003: set(...) in comp
    return names, totals

