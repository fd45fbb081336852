"""Benchmark for bandvie: fixed `bandvie study` workloads timed end to end
and per layer.  Run it with ``python3 bench/run.py --help``; see
``bench/README.md`` for the workloads and metrics.
"""
