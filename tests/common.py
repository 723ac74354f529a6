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


def walk_by_choices(g, start, choices):
    """The path from `start` whose step i takes out-edge choices[i] modulo
    the out-degree, in `out_edges` order."""
    vs, eids = [int(start)], []
    for c in choices:
        out = g.out_edge_lists[vs[-1]]
        eids.append(out[c % len(out)])
        vs.append(g.head_list[eids[-1]])
    return Trajectory(vs, eids)


def tree_edge_lists(tree):
    """The edge ids of every path of an `enumerate_paths` tree, as lists in
    the tree's order; a parent precedes its children."""
    paths = []
    for parent, eid in tree:
        paths.append((paths[parent] if parent >= 0 else []) + [eid])
    return paths


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


def shuffled_edges(g, w, seed):
    """The graph and weights of (g, w) with their edge ids permuted, so that
    `out_edge_ids` and `in_edge_ids` are not the identity."""
    perm = np.random.default_rng(seed).permutation(g.n_edges)
    shuffled = DirectedGraph(g.n_vertices, np.column_stack((g.tails[perm], g.heads[perm])))
    return shuffled, WeightAssignment(w.values[perm], shuffled)


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
