"""The repo's one benchmark: four workloads, end-to-end + per-layer metrics.

See ``perfbench/README.md`` for the glossary and ``BENCHMARK.json`` (repo
root) for the names, units, directions and regression bounds.
"""
