"""dais-bench: the repository's benchmark.

Seven closed-loop workloads against a DAIS server in its own
subprocess, six bounded end-to-end metrics, and an in-process layer
walk that times the calls into each layer's public functions.  See
``bench/README.md`` for the tables and ``BENCHMARK.json`` for the
contract the driver checks.
"""
