"""The repository's benchmark: three workloads over the scaled
ogbn-products graph, end-to-end metrics from untraced runs and a
per-layer breakdown from a separate traced run. ``run.py`` is the
command; ``catalog.py`` lists the workloads and metrics."""
