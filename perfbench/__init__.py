"""The repository's benchmark: workloads, output checks and per-layer tracing.

Run it with ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
