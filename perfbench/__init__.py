"""The repository benchmark: three workloads driven through the public API.

See ``perfbench/run.py`` for the command and ``BENCHMARK.json`` at the
repository root for the workloads and metrics.
"""
