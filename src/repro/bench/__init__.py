"""The older bench: the three numbers perfbench does not measure yet.

Run with ``python -m repro.bench --scale smoke --out BENCH_ci.json``.
Each run times the bare-kernel loop (:mod:`repro.bench.micro`), the
4,096-deme ring (:func:`repro.experiments.scale_study.run_scale_proof`)
and the figure-3 sweep, and writes one ``repro-bench/1`` JSON document
(see :mod:`repro.bench.harness` for the schema) whose ``determinism``
block is the report of :func:`repro.check.run_checks`; it exits
non-zero if any row of it mismatches.  Every other host-time number is
a perfbench metric (``perfbench/run.py``).
"""
