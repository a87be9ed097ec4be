"""Benchmark of growtrain's staged training; see README.md."""
