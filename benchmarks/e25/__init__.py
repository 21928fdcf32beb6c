"""E25: the repo's end-to-end, layer-attributed benchmark.

Four dashboard workloads driven as a closed loop with one client, every
answer checked against an all-off oracle, and a per-layer table measured
from outside the program with benchmark-owned spans. See README.md.

Run it as ``python3 -m benchmarks.e25 --workload <name> --seed <n>``.
"""
