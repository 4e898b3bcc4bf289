"""The one table from source path to ledger layer.

A layer is a package under ``src/repro``; ``sim/parallel`` is its own
layer (``par``) because nothing but the sharded workload runs it.  The
packages that ROADMAP items 2-3 intend to reshape, and that the
benchmark never imports, land in ``other`` together with the
benchmark's own harness code.

``python perfbench/layers.py`` runs :func:`self_test` over the source
tree and exits non-zero on any problem.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: ledger columns, in report order
LAYERS = (
    "sim", "par", "network", "pvm", "core", "cluster",
    "ga", "bayes", "partition", "obs", "faults", "other",
)

#: package directory (relative to src/repro) -> layer; the longest
#: matching directory wins, so ``sim/parallel`` shadows ``sim``
PACKAGE_LAYER = {
    "sim": "sim",
    "sim/parallel": "par",
    "network": "network",
    "pvm": "pvm",
    "core": "core",
    "cluster": "cluster",
    "ga": "ga",
    "bayes": "bayes",
    "partition": "partition",
    "obs": "obs",
    "faults": "faults",
    "analysis": "other",
    "bench": "other",
    "experiments": "other",
    "util": "other",
}

#: the only top-level packages allowed to land in ``other``
OTHER_PACKAGES = frozenset({"analysis", "bench", "experiments", "util"})

#: ledger key of the benchmark's own files (charged to ``other``)
HARNESS = "<perfbench>"

#: hot modules reported on their own as ``host.<layer>.<module>.self_s``
HOT_MODULES = (
    "sim/kernel.py", "sim/events.py", "sim/process.py",
    "network/ethernet.py", "network/switched.py", "network/base.py",
    "pvm/vm.py", "core/dsm.py", "ga/operators.py", "ga/island.py",
    "bayes/rollback.py", "bayes/parallel.py", "obs/bus.py",
)


def layer_of(relpath: str) -> str:
    """Layer of a file given its path relative to ``src/repro``.

    Raises :class:`KeyError` for a file in a package the table does not
    name, so a new package cannot fall off the ledger unnoticed.
    """
    if relpath == HARNESS:
        return "other"
    parts = relpath.split("/")[:-1]
    if not parts:
        return "other"  # src/repro/__init__.py
    for depth in range(len(parts), 0, -1):
        layer = PACKAGE_LAYER.get("/".join(parts[:depth]))
        if layer is not None:
            return layer
    raise KeyError(f"{relpath}: package {parts[0]!r} is not in the layer table")


def hot_metric(relpath: str) -> str:
    """Metric name of one hot module, e.g. ``host.sim.kernel.self_s``."""
    return f"host.{layer_of(relpath)}.{Path(relpath).stem}.self_s"


def self_test(src_repro: Path) -> list[str]:
    """Problems with the table against the tree under ``src_repro``.

    Every ``*.py`` must resolve to a layer, only :data:`OTHER_PACKAGES`
    may resolve to ``other``, every table row must match a directory and
    every hot module must exist.
    """
    problems = []
    for path in sorted(src_repro.rglob("*.py")):
        rel = path.relative_to(src_repro).as_posix()
        try:
            layer = layer_of(rel)
        except KeyError as exc:
            problems.append(str(exc.args[0]))
            continue
        top = rel.split("/")[0]
        if layer == "other" and "/" in rel and top not in OTHER_PACKAGES:
            problems.append(f"{rel}: lands in 'other' but {top!r} is not an 'other' package")
    for package in PACKAGE_LAYER:
        if not (src_repro / package).is_dir():
            problems.append(f"table row {package!r} matches no directory")
    for rel in HOT_MODULES:
        if not (src_repro / rel).is_file():
            problems.append(f"hot module {rel} does not exist")
    return problems


if __name__ == "__main__":
    found = self_test(Path(__file__).resolve().parent.parent / "src" / "repro")
    for problem in found:
        print(problem)
    sys.exit(1 if found else 0)
