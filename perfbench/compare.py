"""Compare two sets of perfbench results (``run.py --out``).

    python perfbench/compare.py A B

A and B are each a result file, or a directory of result files taken on
one commit.  On a shared host one run cannot resolve a tenth (two
back-to-back runs of one commit read 20 % apart in a busy half hour), so
take several runs per side, alternating the sides, and compare the sets:
a side's value is then the median of its runs' values and its spread is
taken over the runs.  With one file per side the spread is taken over
that run's repetitions.

Per (workload, end-to-end metric) prints both values, the relative
difference, the bound and a verdict:

``same``        B is within the bound of A
``better``      B is better than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the spread of either side is wider than the bound, and
                the samples of the two sides overlap

Then lists every exact count that differs, every layer share that moved
by more than three points, and exits non-zero when anything is
``worse``.  Two sets from one commit should read ``same`` throughout
with no count listed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from layers import LAYERS
from metrics import END_TO_END, PER_LAYER

#: a layer's share of the traced repetition may drift this far unlisted
SHARE_POINTS = 0.03


def spread(summary: dict) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    range with four samples or more, else the full range."""
    samples = summary["samples"]
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        width = q3 - q1
    else:
        width = max(samples) - min(samples)
    return width / abs(summary["value"]) if summary["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(relative difference of B against A, verdict) for one metric."""
    rel = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * rel
    if max(spread(a), spread(b)) > bound:
        a_s = [sign * x for x in a["samples"]]
        b_s = [sign * x for x in b["samples"]]
        if worse_by > bound and min(b_s) > max(a_s):
            return rel, "worse"
        if worse_by < -bound and max(b_s) < min(a_s):
            return rel, "better"
        return rel, "unresolved"
    if worse_by > bound:
        return rel, "worse"
    if worse_by < -bound:
        return rel, "better"
    return rel, "same"


def load_side(path: Path) -> list[dict]:
    """The result documents of one side: a file, or every file in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"{path}: no result files")
    return [json.loads(f.read_text()) for f in files]


def side_summary(runs: list[dict], name: str, metric: str) -> dict | None:
    """One side's value and samples for one (workload, metric)."""
    found = [
        r["workloads"][name]["end_to_end"][metric]
        for r in runs
        if metric in r["workloads"].get(name, {}).get("end_to_end", {})
    ]
    if not found:
        return None
    if len(found) == 1:
        return found[0]
    values = [s["value"] for s in found]
    return {"value": statistics.median(values), "samples": values}


def compare(runs_a: list[dict], runs_b: list[dict]) -> tuple[list[str], bool]:
    """(report lines, whether anything is worse)."""
    lines = []
    any_worse = False
    # counts and layer shares are read from the first run of each side
    doc_a, doc_b = runs_a[0], runs_b[0]
    same_seed = doc_a["seed"] == doc_b["seed"]
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            lines.append(f"{name}: only in A")
            continue
        for m in END_TO_END:
            sa, sb = side_summary(runs_a, name, m.name), side_summary(runs_b, name, m.name)
            if sa is None or sb is None:
                continue
            rel, word = verdict(sa, sb, m.better, m.bound)
            any_worse |= word == "worse"
            lines.append(
                f"{name} {m.name} A={sa['value']:.6g} B={sb['value']:.6g} {m.unit} "
                f"diff={100 * rel:+.2f}% bound={100 * m.bound:g}% {word}"
            )
            if same_seed and m.name == "sim_completion_s" and sa["value"] != sb["value"]:
                lines.append(f"{name} sim_completion_s DIFFERS at one seed: the model changed")
        fa = sum(r["workloads"][name]["failed"] for r in runs_a if name in r["workloads"])
        fb = sum(r["workloads"][name]["failed"] for r in runs_b if name in r["workloads"])
        word = "worse" if fb > fa else "better" if fb < fa else "same"
        any_worse |= word == "worse"
        lines.append(f"{name} failed A={fa} B={fb} count {word}")
        la, lb = a["per_layer"], b["per_layer"]
        for m in PER_LAYER:
            if same_seed and m.exact and m.name in la and m.name in lb and la[m.name] != lb[m.name]:
                lines.append(f"{name} {m.name} DIFFERS A={la[m.name]!r} B={lb[m.name]!r} {m.unit}")
        for layer in LAYERS:
            key = f"host.{layer}.share"
            if key in la and key in lb and abs(la[key] - lb[key]) > SHARE_POINTS:
                lines.append(f"{name} {key} MOVED A={la[key]:.3f} B={lb[key]:.3f}")
    return lines, any_worse


def main(argv=None) -> int:
    """Print the comparison; exit 1 when any metric is worse."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    runs_a, runs_b = load_side(args.a), load_side(args.b)
    for label, runs in (("A", runs_a), ("B", runs_b)):
        host = runs[0]["host"]
        print(
            f"# {label}: {len(runs)} run(s) of {host['git_head']} seed={runs[0]['seed']} "
            f"nproc={host['nproc']} {host['cpu_model']} "
            f"noisy_host={any(r['host']['noisy_host'] for r in runs)}"
        )
    lines, any_worse = compare(runs_a, runs_b)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
