"""End-to-end, layer-attributed benchmark of whole mining queries.

Run it as ``python3 -m benchmarks.e2e`` from the repository root (what
``BENCHMARK.json`` names); see ``README.md`` here.
"""
