"""Benchmark of the PRACLeak/TPRAC simulator; see README.md."""
