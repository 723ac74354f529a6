"""Exact annealed path probabilities and the equivalent linearly reinforced walk.

Averaging the quenched path probability over a Dirichlet environment gives a
closed form: a ratio of rising factorials of the edge weights over rising
factorials of the vertex weight sums, driven by how often the path crosses
each edge and departs each vertex.  The same counts drive an oriented-edge
linearly reinforced walk whose trajectory law equals the annealed law, which
this module implements as an independent simulation route.

Per-vertex counts are departure counts (the first n-1 positions of an
n-vertex path), the only reading under which they match the edge counts
vertex by vertex.

The formula has one kernel, a pure-Python loop over paths given as edge-id
lists; the single-path and batch functions both call it, so batch values
equal single-path values bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .environment import Trajectory, sample_rows, walk_until_stopped
from .errors import PreconditionError
from .graph import DirectedGraph, WeightAssignment
from .parallel import Moments, run_chunked
from .rng import RngStream
from .stopping import StoppingRule


def log_rising_factorial(a: float, n: int) -> float:
    """log of a(a+1)...(a+n-1) as the exactly rounded sum (math.fsum) of the
    n logs.  It keeps full relative accuracy at any weight, where a
    log-Gamma difference cancels when a is large (at a = 1e9 and n = 2000
    its error is 3.3e-6 in log)."""
    if n < 0:
        raise ValueError("count must be nonnegative")
    a = float(a)
    return math.fsum(math.log(a + k) for k in range(n))


def _log_paths(w: WeightAssignment, paths) -> list:
    """The exact formula's kernel: log E[p] for each path of `paths`, each a
    sequence of edge ids; a negative id raises ValueError.

    A path's edge counts are tallied in a dict, and its departure counts from
    them, so only nonzero counts enter.  Its terms are added from 0.0 in
    ascending edge (vertex) id order.  Each distinct (weight, count) pair of
    a call is summed once: lattice-derived graphs have few distinct weights
    and small counts, so the paths of a call repeat the same pairs many
    times.  The counts of a path sum to twice its length, so the cost stays
    linear in the path.
    """
    tails, values, sums = w.graph.tail_list, w.value_list, w.vertex_sum_list
    table = {}

    def log_rising(base, counts):
        """Sum of log rising factorials of base[key] by key counts."""
        total = 0.0
        for key in sorted(counts):
            pair = (base[key], counts[key])
            term = table.get(pair)
            if term is None:
                term = table[pair] = log_rising_factorial(*pair)
            total += term
        return total

    logs = []
    for path in paths:
        crossed, departed = {}, {}
        for eid in path:
            crossed[eid] = crossed.get(eid, 0) + 1
        if crossed and min(crossed) < 0:
            raise ValueError(f"negative edge id {min(crossed)} in a path")
        for eid, count in crossed.items():
            v = tails[eid]
            departed[v] = departed.get(v, 0) + count
        logs.append(log_rising(values, crossed) - log_rising(sums, departed))
    return logs


def annealed_log_path_probability(w: WeightAssignment, traj: Trajectory) -> float:
    """log E[p(path)] under the Dirichlet law with parameters `w`."""
    return _log_paths(w, [traj.edges])[0]


def annealed_path_probability_exact(w: WeightAssignment, traj: Trajectory) -> float:
    """E[p(path)]: rising factorials of edge weights over rising factorials of
    vertex weight sums, evaluated in log space."""
    return math.exp(annealed_log_path_probability(w, traj))


def annealed_log_paths_batch(w: WeightAssignment, paths) -> np.ndarray:
    """Exact log-probabilities of many paths, each a sequence of edge ids,
    equal to the single-path values bit for bit.  Intended for enumeration
    suites; a negative edge id raises ValueError."""
    return np.array(_log_paths(w, paths), dtype=np.float64)


class _UrnRows(dict):
    """Per vertex v, the urn row of the lattice walk (`experiments._UrnWalk`),
    built on the first lookup of v: the weights of v's out-edges in
    `out_edge_lists` order, then `w.vertex_sums[v]`.  Crossing the row's
    j-th edge adds 1.0 to row[j] and to row[-1], so row[j] / row[-1] is the
    urn's step probability."""

    def __init__(self, w: WeightAssignment):
        super().__init__()
        self.w = w

    def __missing__(self, v):
        w = self.w
        values = w.value_list
        row = self[v] = [values[eid] for eid in w.graph.out_edge_lists[v]]
        row.append(w.vertex_sum_list[v])
        return row


def _urn_along(w: WeightAssignment, traj: Trajectory):
    """Per step of `traj`, the urn row at its tail and its edge's slot in
    that row, as the urn stands before the step; the step is crossed once
    the caller asks for the next one.  Raises ValueError unless `traj`
    follows its edges."""
    traj.check_consistent(w.graph)
    rows = _UrnRows(w)
    out = w.graph.out_edge_lists
    for v, eid in zip(traj.vertices, traj.edges):
        row = rows[v]
        j = out[v].index(eid)
        yield row, j
        row[j] += 1.0
        row[-1] += 1.0


def urn_path_probability(w: WeightAssignment, traj: Trajectory) -> float:
    """Probability that the reinforced walk traces the path, as the product of
    urn step probabilities (the incremental route; compare with the exact formula)."""
    logp = 0.0
    for row, j in _urn_along(w, traj):
        logp += math.log(row[j] / row[-1])
    return math.exp(logp)


def reinforced_walk(w: WeightAssignment, start: int, stop: StoppingRule, rng: RngStream):
    """Sample the oriented-edge linearly reinforced walk; its trajectory law is
    the annealed law of the Dirichlet environment with the same weights.

    Each step picks as the lattice urn does: t = u * row[-1], then the first
    slot k whose weight exceeds what is left of t after subtracting the
    weights before it (the last slot if none does).
    """
    rows = _UrnRows(w)

    def choose(v, u):
        row = rows[v]
        t = u * row[-1]
        k, last = 0, len(row) - 2
        while k < last and t >= row[k]:
            t -= row[k]
            k += 1
        row[k] += 1.0
        row[-1] += 1.0
        return k

    return walk_until_stopped(w.graph, start, stop, rng, choose)


def _trace_chunk(lows, highs, gen, size):
    """`reinforced_trace_frequency` on one chunk of `size` replicas drawn from `gen`."""
    us = gen.random((size, lows.size))
    return Moments.of(np.all((us >= lows) & (us < highs), axis=1))


def reinforced_trace_frequency(w: WeightAssignment, traj: Trajectory, replicas: int,
                               rng: RngStream, workers: int = 1):
    """Fraction of reinforced walks of len(traj) steps that trace the path exactly.

    Along the forced path the urn's conditional step distributions are
    deterministic, so each step's target edge occupies a fixed sub-interval
    of [0, 1): its low end is the running sum of the step probabilities
    before it in out-edge order.  A walk traces the path exactly when all of
    its step uniforms land in their intervals.  Walks that deviate are
    abandoned at the deviating step; their remaining steps cannot affect the
    indicator.  Replicas are split into fixed-size chunks, one RNG stream per
    chunk.
    """
    lows = np.empty(len(traj))
    highs = np.empty(len(traj))
    for s, (row, j) in enumerate(_urn_along(w, traj)):
        low = 0.0
        for x in row[:j]:
            low += x / row[-1]
        lows[s] = low
        highs[s] = low + row[j] / row[-1]
    run_chunk = functools.partial(_trace_chunk, lows, highs)
    hits = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    return float(hits.mean), float(hits.standard_error)


def _mc_chunk(g, w, edge_ids, gen, size):
    """`annealed_path_probability_mc` on one chunk of `size` replicas drawn from `gen`."""
    eids, probs = sample_rows(g, w, gen, size, g.tails[edge_ids])
    return Moments.of(probs[:, np.searchsorted(eids, edge_ids)].prod(axis=1))


def annealed_path_probability_mc(g: DirectedGraph, w: WeightAssignment, traj: Trajectory,
                                 replicas: int, rng: RngStream, workers: int = 1):
    """Monte Carlo mean of the quenched path probability over fresh environments.

    Independent oracle for the exact formula.  Returns (estimate, standard error).
    The quenched product reads only the rows of the vertices the path
    departs, and Dirichlet rows are independent, so only those rows are
    sampled (`sample_rows`).  The law and variance are those of full
    environments; a path that departs every vertex draws the same bitstream
    as full environments, one that skips a vertex draws fewer Gammas and so
    a different bitstream.
    """
    if replicas < 100:
        raise PreconditionError("at least 100 replicas required")
    edge_ids = np.asarray(traj.edges, dtype=np.int64)
    run_chunk = functools.partial(_mc_chunk, g, w, edge_ids)
    vals = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    return float(vals.mean), float(vals.standard_error)


# -- path literals --------------------------------------------------------


def parse_path_literal(g: DirectedGraph, text: str, origin: int = 0) -> Trajectory:
    """Parse a path literal into a trajectory.

    Three token forms, not mixed: vertex ids `0,1,0,1`; signed axis steps
    `+1,-1,+2` walked from `origin` (graphs with direction labels only);
    edge ids `e0,e5` for multigraphs where vertex ids are ambiguous.  A
    malformed literal, or one that leaves the graph, raises PreconditionError.
    """
    try:
        traj = _parse_path_tokens(g, [t.strip() for t in text.split(",") if t.strip()], origin)
    except ValueError as exc:
        raise PreconditionError(f"path literal {text!r}: {exc}") from None
    bad = [v for v in traj.vertices if not 0 <= v < g.n_vertices]
    if bad:
        raise PreconditionError(
            f"path literal {text!r}: vertices {bad} out of range 0..{g.n_vertices - 1}")
    return traj


def _parse_path_tokens(g: DirectedGraph, tokens: list, origin: int) -> Trajectory:
    if not tokens:
        return Trajectory([origin], [])
    if all(t.startswith("e") for t in tokens):
        eids = [int(t[1:]) for t in tokens]
        bad = [eid for eid in eids if not 0 <= eid < g.n_edges]
        if bad:
            raise ValueError(f"edge ids {bad} out of range 0..{g.n_edges - 1}")
        vs = [int(g.tails[eids[0]])]
        for eid in eids:
            if g.tails[eid] != vs[-1]:
                raise ValueError(f"edge {eid} does not continue the path")
            vs.append(int(g.heads[eid]))
        return Trajectory(vs, eids)
    if all(t[0] in "+-" for t in tokens):
        if g.directions is None:
            raise ValueError("step-letter literals need a lattice-derived graph")
        steps = [int(t) for t in tokens]
        by_vertex = {}
        for eid, (axis, sign) in enumerate(g.directions):
            by_vertex[(int(g.tails[eid]), axis * (1 if sign > 0 else -1))] = eid
        vs = [origin]
        eids = []
        for s in steps:
            key = (vs[-1], s)
            if key not in by_vertex:
                raise ValueError(f"no {s:+d} step out of vertex {vs[-1]}")
            eid = by_vertex[key]
            eids.append(eid)
            vs.append(int(g.heads[eid]))
        return Trajectory(vs, eids)
    vertices = [int(t) for t in tokens]
    return Trajectory.from_vertices(g, vertices)


def format_path_literal(g: DirectedGraph, traj: Trajectory) -> str:
    """Vertex-id literal when unambiguous, else edge-id literal.  `traj`
    must follow its edges; its vertices determine them unless one of them
    has a parallel twin."""
    twin = g.has_parallel_twin
    if any(twin[eid] for eid in traj.edges):
        return ",".join(f"e{eid}" for eid in traj.edges)
    return ",".join(map(str, traj.vertices))
