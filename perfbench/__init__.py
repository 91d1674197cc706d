"""The repository benchmark: three closed-loop workloads over the library.

Run one workload with ``python3 perfbench/run.py --workload <name>``; see
``perfbench/README.md`` for the workloads, metrics and sizing.
"""
