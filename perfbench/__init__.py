"""Benchmark harness for the scpa-host runtime; see README.md."""
