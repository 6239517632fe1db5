"""Benchmark for the contextuality toolkit: seeded workloads with closed-form
answers, a correctness gate, and a tracer for per-layer timings.

Run it with ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""
