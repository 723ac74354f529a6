"""Shared helpers for the tests: tiny fixture graphs, random path makers, an
exact oracle over the reinforced walk's states, and the chunk functions of
the worker-pool tests (kept here, not in a test module, so that a worker
process loads them without importing pytest)."""

import math
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


def urn_state_masses(w, start, absorbing, steps):
    """Forward dynamic program over the states of the oriented-edge linearly
    reinforced walk on the graph of `w`, whose path law is the annealed law:
    from v it takes out-edge e with probability (w_e + N_e) / sum_f (w_f +
    N_f) over v's out-edges f, where N counts earlier crossings.  A state is
    (vertex, tuple of crossing counts per edge id), and the paths that reach
    one state merge.  The walk starts at `start` and stops on stepping onto
    a vertex where `absorbing` is True.

    Returns (states, exits) after `steps` steps: `states` maps the state of
    each walk still going to its mass, and `exits[e]` lists the masses that
    stepped onto an absorbing vertex by edge e, one entry per state left."""
    g = w.graph
    out, heads, values = g.out_edge_lists, g.head_list, w.value_list
    stops = [bool(b) for b in absorbing]
    states = {(int(start), (0,) * g.n_edges): 1.0}
    exits = {}
    for _ in range(steps):
        nxt = {}
        for (v, counts), mass in states.items():
            row = [values[e] + counts[e] for e in out[v]]
            total = sum(row)
            for e, a in zip(out[v], row):
                m = mass * (a / total)
                if stops[heads[e]]:
                    exits.setdefault(e, []).append(m)
                else:
                    c = list(counts)
                    c[e] += 1
                    key = (heads[e], tuple(c))
                    nxt[key] = nxt.get(key, 0.0) + m
        states = nxt
    return states, exits


def urn_exit_bracket(w, start, absorbing, right, steps):
    """Bounds (lo, hi) with lo <= P(right) <= hi, no seed involved, where
    P(right) is the probability that the walk of `urn_state_masses` first
    steps onto an absorbing vertex by an edge e with `right[e]` True.

    After `steps` steps, R has so stepped and L has stepped on by another
    edge, so R <= P(right) <= 1 - L.  Every mass is a sum of positive
    products, so each rounding scales a term by some 1 + delta with
    |delta| <= u, the unit roundoff (Higham 2002, *Accuracy and Stability of
    Numerical Algorithms*, ch. 3-4).  A step's factor takes deg + 2
    roundings (the counts added to each weight of the row, their sum, the
    quotient), its product with the mass one, and a state merges at most
    in-degree terms, so each step adds at most c = max out-degree + max
    in-degree + 2 roundings to every term.  R and L are summed with
    `math.fsum`, and both widen by gamma_n = n u / (1 - n u) relative with
    n = c (steps + 1), which also covers the roundings of R's widening; the
    upper bound then moves one ulp up for the rounding of 1 - L.
    """
    g = w.graph
    _, exits = urn_state_masses(w, start, absorbing, steps)
    r = math.fsum(m for e, ms in exits.items() if right[e] for m in ms)
    left = math.fsum(m for e, ms in exits.items() if not right[e] for m in ms)
    n = (steps + 1) * (int(g.out_degrees.max()) + int(np.bincount(g.heads).max()) + 2)
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
    return r * (1 - gamma), math.nextafter(1 - left * (1 - gamma), math.inf)


def beta_cdf(x, a, b):
    """The regularized incomplete beta function I_x(a, b), the Beta(a, b)
    distribution function, at each x in [0, 1].

    It evaluates the continued fraction of I_x(a, b) by the modified Lentz
    method (Press et al., *Numerical Recipes*, 3rd ed., 6.4), for x below
    (a + 1) / (a + b + 2), where it converges fast, and through I_x(a, b) =
    1 - I_{1-x}(b, a) above it.  numpy only."""
    x = np.asarray(x, dtype=np.float64)
    flip = x > (a + 1) / (a + b + 2)
    y = np.where(flip, 1.0 - x, x)
    p, q = np.where(flip, b, a), np.where(flip, a, b)
    with np.errstate(divide="ignore"):
        front = np.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                       + p * np.log(y) + q * np.log1p(-y)) / p
    tiny = 1e-300

    def nonzero(v):
        return np.where(np.abs(v) < tiny, tiny, v)

    c = np.ones_like(y)
    d = 1.0 / nonzero(1.0 - (p + q) * y / (p + 1.0))
    h = d
    for m in range(1, 1000):
        for coef in (m * (q - m) * y / ((p + 2 * m - 1) * (p + 2 * m)),
                     -(p + m) * (p + q + m) * y / ((p + 2 * m) * (p + 2 * m + 1))):
            d = 1.0 / nonzero(1.0 + coef * d)
            c = nonzero(1.0 + coef / c)
            h = h * (d * c)
        if np.all(np.abs(d * c - 1.0) < 1e-15):
            break
    cdf = front * h
    return np.where(flip, 1.0 - cdf, cdf)


def ks_statistic(sample, cdf):
    """sqrt(n) times the one-sample Kolmogorov-Smirnov distance between the
    empirical distribution of `sample` and the continuous distribution
    function `cdf`; under the null its law tends to Kolmogorov's, whose
    0.999 quantile is 1.9495."""
    u = cdf(np.sort(np.asarray(sample, dtype=np.float64)))
    n = u.size
    i = np.arange(1, n + 1)
    return math.sqrt(n) * float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


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
