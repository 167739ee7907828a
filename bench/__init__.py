"""Host-cost benchmark of the simulator: workloads, outside-in tracer,
golden-output check, and result comparison.  See ``bench/README.md``."""
