"""The ledger fold on hand-built ``pstats`` tables with known answers."""

import pytest

import ledger
from layers import HARNESS, LAYERS
from metrics import PER_LAYER

SRC = "/repo/src/repro/"
RUN = ("/repo/perfbench/child.py", 1, "execute")
STEP = (SRC + "sim/kernel.py", 10, "step")
RESUME = (SRC + "sim/process.py", 20, "resume")
EVOLVE = (SRC + "ga/island.py", 30, "evolve")
PROC = (SRC + "ga/island.py", 40, "proc")
NP_SORT = ("/site-packages/numpy/sorting.py", 5, "sort")
C_SORT = ("~", 0, "<method 'sort' of 'numpy.ndarray' objects>")
C_SEND = ("~", 0, "<method 'send' of 'generator' objects>")
ORPHAN = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")


def key_of(filename):
    if filename.startswith(SRC):
        return filename[len(SRC):]
    if filename.startswith("/repo/perfbench/"):
        return HARNESS
    return None


def known_stats():
    """func -> (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})."""
    return {
        RUN: (1, 1, 0.05, 6.12, {}),
        STEP: (10, 10, 1.0, 6.07, {RUN: (10, 10, 1.0, 6.07)}),
        RESUME: (7, 7, 0.3, 1.07, {STEP: (7, 7, 0.3, 1.07)}),
        # the kernel resumes a GA process through the generator's C method
        C_SEND: (7, 7, 0.07, 0.77, {RESUME: (7, 7, 0.07, 0.77)}),
        PROC: (7, 7, 0.7, 0.7, {C_SEND: (7, 7, 0.7, 0.7)}),
        EVOLVE: (5, 5, 2.0, 3.6, {STEP: (5, 5, 2.0, 3.6)}),
        # an external wrapper called from two layers, 80 % / 20 % by
        # cumulative time, around an external C function
        NP_SORT: (5, 5, 0.5, 2.0, {EVOLVE: (4, 4, 0.4, 1.6), STEP: (1, 1, 0.1, 0.4)}),
        C_SORT: (5, 5, 1.5, 1.5, {NP_SORT: (5, 5, 1.5, 1.5)}),
        ORPHAN: (1, 1, 0.02, 0.02, {}),
    }


def test_fold_charges_external_time_to_the_calling_file():
    folded = ledger.fold(known_stats(), key_of)
    assert folded.self_s["ga/island.py"] == pytest.approx(2.0 + 0.7 + 0.4 + 0.8 * 1.5)
    assert folded.self_s["sim/kernel.py"] == pytest.approx(1.0 + 0.1 + 0.2 * 1.5)
    assert folded.self_s["sim/process.py"] == pytest.approx(0.3 + 0.07)
    assert folded.self_s[HARNESS] == pytest.approx(0.05)
    assert folded.unattributed_s == pytest.approx(0.02)
    assert folded.total_s == pytest.approx(sum(v[2] for v in known_stats().values()))


def test_fold_counts_calls_through_external_functions():
    folded = ledger.fold(known_stats(), key_of)
    assert folded.calls[(HARNESS, "sim/kernel.py")] == 10
    assert folded.calls[("sim/kernel.py", "ga/island.py")] == 5
    # proc is entered from the C send method, which sim/process.py called
    assert folded.calls[("sim/process.py", "ga/island.py")] == 7
    assert folded.calls[("sim/kernel.py", "sim/process.py")] == 7


def test_host_metrics_names_and_sums():
    host = ledger.host_metrics(ledger.fold(known_stats(), key_of))
    registered = {m.name for m in PER_LAYER}
    assert set(host) <= registered
    assert host["host.sum_s"] == pytest.approx(6.14)
    assert host["host.attributed_fraction"] == pytest.approx(1 - 0.02 / 6.14)
    assert sum(host[f"host.{layer}.self_s"] for layer in LAYERS) == pytest.approx(6.12)
    assert host["host.ga.self_s"] == pytest.approx(4.3)
    assert host["host.sim.kernel.self_s"] == pytest.approx(1.4)
    assert host["host.other.self_s"] == pytest.approx(0.05)  # the harness
    # boundary calls: same-layer calls (kernel -> process) do not count
    assert host["host.sim.calls_in"] == 10
    assert host["host.ga.calls_in"] == 12
    assert host["host.bayes.calls_in"] == 0


def test_recursion_among_external_functions_loses_no_time():
    a = ("/lib/json/encoder.py", 1, "a")
    b = ("/lib/json/encoder.py", 2, "b")
    stats = {
        STEP: (1, 1, 1.0, 3.0, {}),
        a: (3, 3, 1.2, 2.0, {STEP: (1, 1, 0.4, 2.0), b: (2, 2, 0.8, 1.0)}),
        b: (2, 2, 0.8, 1.5, {a: (2, 2, 0.8, 1.5)}),
    }
    folded = ledger.fold(stats, key_of)
    assert folded.total_s == pytest.approx(3.0)
    assert folded.self_s["sim/kernel.py"] + folded.unattributed_s == pytest.approx(3.0)
    assert folded.self_s["sim/kernel.py"] >= 1.4
