"""Benchmark for commwalker; run it with `python3 perfbench/run.py`."""
