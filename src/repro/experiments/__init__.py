"""Experiment drivers: one module per table/figure of the paper's §4–§5.

Every driver is a cell list over :func:`repro.experiments.runner.run_cells`,
a reducer returning plain data (lists of row dicts) and a ``format_*``
companion producing the text table the benchmarks print; its command
line is one :class:`repro.experiments.cli.Driver`.  Scale (number of
runs, generations, processor counts) comes from
:class:`~repro.experiments.config.Scale`; the default is sized for a
laptop, ``Scale.full()`` approaches the paper's 25-run protocol, and the
``REPRO_SCALE`` environment variable (``smoke`` / ``default`` / ``full``)
overrides the choice in the benchmark harness.

The package imports none of its modules: name the one you need
(``from repro.experiments.table1 import run_table1``), so that
``python -m repro.experiments.<driver>`` runs a module nothing has
imported yet.
"""
