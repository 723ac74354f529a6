"""Reproducible random-number streams built on the counter-based Philox generator.

A stream is addressed by ``(seed, stream)``; accessing stream k never requires
fast-forwarding through streams 0..k-1.  Every experiment draws from one
stream per chunk of replicas, so the worker count never enters the
addressing.  Sub-keyed generators hang off a stream without consuming state
from it; no experiment uses them.  Walks take their uniforms one at a time
from `block_uniforms`, which draws them in blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

_FIRST_BLOCK = 64
_UNIFORM_BLOCK = 1024


@dataclass(frozen=True)
class RngStream:
    """Address of an independent random stream: ``(seed, stream)`` determines all draws."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise PreconditionError("seed and stream index must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream; repeated calls restart the stream."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))

    def with_stream(self, stream: int) -> "RngStream":
        return RngStream(self.seed, stream)

    def keyed_generator(self, *key: int) -> np.random.Generator:
        """Generator for a sub-key of this stream (key elements must be nonnegative).

        Distinct keys give independent draws; the spawn-key tuple length keeps
        sub-keyed generators disjoint from ``generator()`` itself.
        """
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream, *key))
        return np.random.Generator(np.random.Philox(seq))


def block_uniforms(gen: np.random.Generator):
    """Endless iterator over `gen`'s uniforms, drawn in blocks that start at
    `_FIRST_BLOCK` and double up to `_UNIFORM_BLOCK`, so a walk of a few steps
    draws few; successive walks may share one iterator.  The block sizes do
    not change the sequence: on Philox, uniforms drawn over several calls
    equal those of one call of the summed size."""

    def blocks():
        size = _FIRST_BLOCK
        while True:
            yield gen.random(size).tolist()
            size = min(2 * size, _UNIFORM_BLOCK)

    return itertools.chain.from_iterable(blocks())
