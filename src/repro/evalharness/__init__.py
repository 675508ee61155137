"""Evaluation harness: regenerates every table and figure of the paper.

Each ``figN``/``tableN`` module produces the corresponding artifact as
plain data (dicts/rows) plus an ASCII rendering; the benchmark suite under
``benchmarks/`` drives them through pytest-benchmark.
"""

from repro.evalharness.memmodel import MemoryModel
from repro.passes.cost import CostModel

__all__ = ["CostModel", "MemoryModel"]
