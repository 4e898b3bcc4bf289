"""W1 — the warp network-load measurements (§4.3).

Shape expectations: warp = 1 on a stable network; ramping background
load pushes the peak warp monotonically above 1.
"""

from benchmarks.conftest import run_once
from repro.experiments.warp_study import format_warp_study, run_warp_study


def test_warp_study(benchmark, scale, save_result):
    res = run_once(benchmark, run_warp_study, scale)
    save_result("warp_study", format_warp_study(res), data=res)
    probe = res["probe"]
    assert abs(probe[0]["mean_warp"] - 1.0) < 0.02
    assert abs(probe[0]["max_warp"] - 1.0) < 0.02
    maxes = [r["max_warp"] for r in probe]
    # warp spikes above 1 under every ramping load, and the heaviest ramp
    # produces the largest spike (adjacent levels may fluctuate)
    assert all(m > 1.2 for m in maxes[1:])
    assert maxes[-1] == max(maxes)
    assert maxes[-1] > 1.5
