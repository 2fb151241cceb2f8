"""lionsweep benchmark: seeded workloads, output checks and per-layer tracing."""
