"""The cf-forge benchmark: seeded workloads, exactness checks and a traced
per-layer run.  Entry point: ``python3 perfbench/run.py --help``."""
