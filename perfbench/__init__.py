"""A steady frame / fleet / serve benchmark with a traced per-layer breakdown.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
