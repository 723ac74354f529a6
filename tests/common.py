"""Shared helpers for the tests: tiny fixture graphs, random path makers, and
the chunk functions of the worker-pool tests (kept here, not in a test
module, so that a worker process loads them without importing pytest)."""

import os
import time

import numpy as np

from rwre import DirectedGraph, PreconditionError, Trajectory, WeightAssignment


def random_path(g, rng, length, start=None):
    """Uniform-step random path of the given length."""
    v = int(rng.integers(g.n_vertices)) if start is None else int(start)
    vs = [v]
    eids = []
    for _ in range(length):
        out = g.out_edges(v)
        eid = int(out[rng.integers(out.size)])
        eids.append(eid)
        v = int(g.heads[eid])
        vs.append(v)
    return Trajectory(vs, eids)


def random_cycle(g, rng, max_len):
    """Uniform-step walk restarted until it returns to its start within max_len."""
    while True:
        start = int(rng.integers(g.n_vertices))
        vs = [start]
        eids = []
        v = start
        for _ in range(max_len):
            out = g.out_edges(v)
            eid = int(out[rng.integers(out.size)])
            eids.append(eid)
            v = int(g.heads[eid])
            vs.append(v)
            if v == start:
                return Trajectory(vs, eids)


def divergent_two_vertex():
    """Two vertices with nonzero weight divergence: div = (+1, -1).

    Edges: 0->1 weight 2, 0->0 weight 1, 1->0 weight 1, 1->1 weight 3.
    """
    g = DirectedGraph(2, [(0, 1), (0, 0), (1, 0), (1, 1)])
    w = WeightAssignment([2.0, 1.0, 1.0, 3.0], g)
    return g, w


def two_state_chain():
    """Self-loop chain with p(a,a)=1/2, p(a,b)=1/2, p(b,a)=1/4, p(b,b)=3/4."""
    g = DirectedGraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    return g, np.array([0.5, 0.5, 0.25, 0.75])


def draw(gen, size):
    return size, float(gen.random())


def slow_draw(gen, size):
    time.sleep(0.01)
    return draw(gen, size)


def pid(gen, size):
    return os.getpid()


def refuse_one(gen, size):
    if size == 1:
        raise PreconditionError("chunk of 1 refused")
    return size


def reciprocal(gen, size):
    """1 / (size - 1): numpy warns of a division by zero on a chunk of one."""
    return float(np.float64(1.0) / np.float64(size - 1))
