"""Workloads, oracles and tracer of the capsim benchmark (benchmarks/run.py)."""
