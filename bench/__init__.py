"""The seeded end-to-end and per-layer benchmark of the LCMM compiler.

See ``bench/README.md`` for the workloads, the metrics and how to run,
trace and compare them; ``python -m bench --help`` for the options.
"""
