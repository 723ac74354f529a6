"""Deterministic chunked execution of replicated simulations.

Replicas are split into fixed-size chunks; chunk c always draws from RNG
stream c regardless of how many workers run, and results are reduced in
chunk order.  Worker count therefore affects wall time only, never output.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

# Fixed chunk granularity.  Do not derive this from the worker count or
# results would depend on it.
CHUNK_REPLICAS = 8192


def chunk_sizes(total: int, chunk: int = CHUNK_REPLICAS):
    """Sizes of the consecutive chunks covering `total` replicas."""
    if total <= 0:
        raise ValueError("replica count must be positive")
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def run_chunked(fn, total: int, workers: int = 1, chunk: int = CHUNK_REPLICAS):
    """Run fn(chunk_index, size) over all chunks, returning results in chunk order.

    Workers are threads, so chunks overlap only where they run in numpy
    code that releases the GIL (batch sampling, lockstep steps, stationary
    solves).  Lattice walks and the scalar tail of cylinder walks are pure
    Python and hold it; the benchmark's `replicas_per_s_w2` and
    `parallel.speedup_w2` measure how much `workers=2` gains per workload.
    """
    sizes = chunk_sizes(total, chunk)
    if workers <= 1 or len(sizes) == 1:
        return [fn(i, s) for i, s in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, i, s) for i, s in enumerate(sizes)]
        return [f.result() for f in futures]


def bernoulli_se(hits: int, n: int) -> float:
    """Standard error of a hit frequency (sample sd over sqrt n)."""
    if n <= 1:
        return 0.0
    p = hits / n
    return math.sqrt(p * (1.0 - p) * n / (n - 1.0) / n)


class MeanAccumulator:
    """Ordered fold of per-chunk (sum, sum of squares, count) triples."""

    def __init__(self):
        self.total = 0.0
        self.total_sq = 0.0
        self.n = 0

    def add(self, s: float, sq: float, n: int):
        self.total += float(s)
        self.total_sq += float(sq)
        self.n += int(n)

    def mean(self) -> float:
        return self.total / self.n

    def standard_error(self) -> float:
        if self.n <= 1:
            return 0.0
        m = self.mean()
        var = (self.total_sq - self.n * m * m) / (self.n - 1)
        if var < 0.0:
            var = 0.0
        return math.sqrt(var / self.n)
