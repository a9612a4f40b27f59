"""Benchmark harness: workloads, measurement loop and tracing."""
