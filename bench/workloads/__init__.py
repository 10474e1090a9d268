"""One module per workload; each exposes ``run(seed, seconds, traced)``."""
