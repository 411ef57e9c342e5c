"""Benchmark of the pbm command line; see README.md."""
