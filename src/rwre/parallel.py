"""Deterministic chunked execution of replicated simulations.

Replicas are split into fixed-size chunks; chunk c always draws from RNG
stream c regardless of how many workers run, and results are reduced in
chunk order.  Worker count therefore affects wall time only, never output.

Every Monte Carlo mean and standard error comes from one reduction: each
chunk keeps the count, sum and sum of squared deviations (n, sum, M2) of its
own replicas, and chunks are pooled in chunk order with the merge of Chan,
Golub & LeVeque (1979, "Algorithms for computing the sample variance").
Sums are still added chunk by chunk, so estimates are bit-identical to a
plain ordered fold of chunk sums; standard errors come from the pooled M2,
which has no sum-of-squares cancellation, and may differ from a
sum-of-squares formula in the last bits.

Within a chunk, `Moments.of` reduces a Fortran-ordered matrix (one
contiguous column per quantity, as `reverse-check` builds its path
products) a few columns at a time, so its temporaries stay in cache, and
any other layout whole, because only in Fortran order does a column block
keep numpy's order of adds.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Fixed chunk granularity.  Do not derive this from the worker count or
# results would depend on it.
CHUNK_REPLICAS = 8192

# Columns per block of `Moments.of` on a Fortran-ordered matrix: 8 columns
# of a full chunk are 512 KB.
_COLUMN_BLOCK = 8


def chunk_sizes(total: int, chunk: int = CHUNK_REPLICAS):
    """Sizes of the consecutive chunks covering `total` replicas."""
    if total <= 0:
        raise PreconditionError("at least one replica required")
    sizes = [chunk] * (total // chunk)
    if total % chunk:
        sizes.append(total % chunk)
    return sizes


def run_chunked(fn, total: int, rng, workers: int = 1, chunk: int = CHUNK_REPLICAS):
    """Run fn(gen, size) over all chunks, returning results in chunk order.

    `gen` is a fresh generator of stream c of `rng` (an `RngStream`) for
    chunk c, so which draws a replica sees never depends on `workers`.

    Workers are threads, so chunks overlap only where they run in numpy
    code that releases the GIL (batch sampling, lockstep steps, stationary
    solves).  Lattice walks and the scalar tail of cylinder walks are pure
    Python and hold it; the benchmark's `replicas_per_s_w2` and
    `parallel.speedup_w2` measure how much `workers=2` gains per workload.
    """
    sizes = chunk_sizes(total, chunk)
    gens = [rng.with_stream(c).generator() for c in range(len(sizes))]
    if workers <= 1 or len(sizes) == 1:
        return [fn(gen, size) for gen, size in zip(gens, sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, gen, size) for gen, size in zip(gens, sizes)]
        return [f.result() for f in futures]


def _sum_squared_deviations(values: np.ndarray, mean) -> np.ndarray:
    """Column sums of (values - mean)**2, squared in place in one temporary."""
    dev = values - mean
    np.square(dev, out=dev)
    return dev.sum(axis=0)


@dataclass(frozen=True, eq=False)
class Moments:
    """Replica count `n`, sum `total` and sum of squared deviations from the
    mean `m2` of per-replica values, per column.

    `Moments()` holds no replicas; `a + b` pools two disjoint sets.
    """

    n: int = 0
    total: np.ndarray = 0.0
    m2: np.ndarray = 0.0

    @classmethod
    def of(cls, values) -> "Moments":
        """Moments of one chunk's values, one replica per row (a 1-D array
        gives scalar columns).

        The result is bit-identical to `total = values.sum(axis=0)` and
        `np.square(values - total / n).sum(axis=0)`.  A Fortran-ordered
        matrix is reduced `_COLUMN_BLOCK` columns at a time, squaring the
        deviations in place, so the temporaries stay in cache rather than
        being two copies of the whole chunk; numpy sums each contiguous
        column pairwise whether or not it is a block of a wider matrix.
        Any other layout is reduced whole: numpy sums a C-ordered matrix
        row by row, and a one-column block of it would be summed pairwise
        instead, which rounds differently.
        """
        values = np.asarray(values, dtype=np.float64)
        n = values.shape[0]
        if values.ndim != 2 or not values.flags.f_contiguous or n == 0:
            total = values.sum(axis=0)
            return cls(n, total, _sum_squared_deviations(values, total / n) if n else total)
        total = np.empty(values.shape[1])
        m2 = np.empty(values.shape[1])
        for lo in range(0, values.shape[1], _COLUMN_BLOCK):
            block = values[:, lo:lo + _COLUMN_BLOCK]
            total[lo:lo + _COLUMN_BLOCK] = block.sum(axis=0)
            m2[lo:lo + _COLUMN_BLOCK] = _sum_squared_deviations(
                block, total[lo:lo + _COLUMN_BLOCK] / n)
        return cls(n, total, m2)

    def __add__(self, other: "Moments") -> "Moments":
        if other.n == 0:
            return self
        if self.n == 0:
            return other
        n = self.n + other.n
        delta = other.total / other.n - self.total / self.n
        return Moments(n, self.total + other.total,
                       self.m2 + other.m2 + delta * delta * (self.n * other.n / n))

    @property
    def mean(self):
        """Sample mean per column; NaN without replicas."""
        return self.total / self.n if self.n else self.total * np.nan

    @property
    def standard_error(self):
        """Sample standard deviation over sqrt(n) per column; 0 below two
        replicas."""
        if self.n < 2:
            return np.zeros_like(self.total)
        return np.sqrt(self.m2 / (self.n - 1) / self.n)
