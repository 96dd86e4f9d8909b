"""End-to-end figure benchmark with per-layer attribution (see README.md).

Run from the repository root: ``python -m perf [--workload NAME] [--seed 7]``.
"""
