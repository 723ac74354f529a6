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

The formula has one batched implementation; the single-path functions run
it on a batch of one, so batch values equal single-path values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import Trajectory, sample_environment_batch, walk_until_stopped
from .errors import PreconditionError
from .graph import DirectedGraph, WeightAssignment
from .parallel import Moments, run_chunked
from .rng import RngStream
from .stopping import StoppingRule

# switch point between the exactly rounded sum of logs (math.fsum) and
# log-Gamma differences, which are cheaper once counts get large
_DIRECT_TERMS = 1024


@dataclass
class CrossingProfile:
    """Edge-crossing and vertex-departure counts of a path."""

    edge_counts: np.ndarray
    departure_counts: np.ndarray

    def check_conservation(self, g: DirectedGraph):
        """Out-edge counts must sum to the departure count at every vertex."""
        sums = np.zeros(g.n_vertices, dtype=np.int64)
        np.add.at(sums, g.tails, self.edge_counts)
        if not np.array_equal(sums, self.departure_counts):
            raise ValueError("edge crossings inconsistent with vertex departures")


def crossing_profile(g: DirectedGraph, traj: Trajectory) -> CrossingProfile:
    edge_counts = np.zeros(g.n_edges, dtype=np.int64)
    np.add.at(edge_counts, traj.edges, 1)
    departures = np.zeros(g.n_vertices, dtype=np.int64)
    if len(traj) > 0:
        np.add.at(departures, traj.vertices[:-1], 1)
    return CrossingProfile(edge_counts, departures)


def log_rising_factorial(a: float, n: int) -> float:
    """log of a(a+1)...(a+n-1); exact summation for small n, lgamma beyond."""
    if n < 0:
        raise ValueError("count must be nonnegative")
    return float(_log_rising(np.array([a], dtype=np.float64), np.array([n]))[0])


def _log_rising(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """log a(a+1)...(a+n-1) entrywise: the exactly rounded sum of the n logs
    up to _DIRECT_TERMS factors, a log-Gamma difference beyond.  Summing the
    logs keeps full relative accuracy at any weight; a log-Gamma difference
    cancels when a is large (at a = 1e9 its error is ~1e-5 in log)."""
    return np.array([math.fsum(math.log(ai + k) for k in range(ni)) if ni <= _DIRECT_TERMS
                     else math.lgamma(ai + ni) - math.lgamma(ai)
                     for ai, ni in zip(a.tolist(), n.tolist())], dtype=np.float64)


def _log_paths(w: WeightAssignment, path: np.ndarray, eids: np.ndarray,
               n_paths: int) -> np.ndarray:
    """The exact formula's kernel: log E[p] for each of `n_paths` paths whose
    steps are the edges `eids`, step i belonging to path `path[i]`.

    Per-path edge and departure counts are the multiplicities of the
    (path, edge) and (path, tail vertex) pairs, so only nonzero counts enter
    and nothing of size n_paths x n_edges is allocated.  Each path's terms
    are added in ascending edge (vertex) id order, starting from 0.
    """
    g = w.graph

    def log_rising(keys, width, base):
        """Per path, sum of log rising factorials of base[key] by key counts."""
        pairs, n = np.unique(path * width + keys, return_counts=True)
        return np.bincount(pairs // width, _log_rising(base[pairs % width], n),
                           minlength=n_paths)

    return (log_rising(eids, g.n_edges, w.values)
            - log_rising(g.tails[eids], g.n_vertices, w.vertex_sums()))


def annealed_log_path_probability(w: WeightAssignment, traj: Trajectory) -> float:
    """log E[p(path)] under the Dirichlet law with parameters `w`."""
    eids = np.asarray(traj.edges, dtype=np.int64)
    return float(_log_paths(w, np.zeros(eids.size, dtype=np.int64), eids, 1)[0])


def annealed_path_probability_exact(w: WeightAssignment, traj: Trajectory) -> float:
    """E[p(path)]: rising factorials of edge weights over rising factorials of
    vertex weight sums, evaluated in log space."""
    return math.exp(annealed_log_path_probability(w, traj))


def annealed_log_paths_batch(w: WeightAssignment, edge_index_matrix: np.ndarray) -> np.ndarray:
    """Exact log-probabilities of many paths, equal to the single-path values.

    `edge_index_matrix` is (n_paths, max_len) of edge ids with -1 padding.
    Intended for enumeration suites.
    """
    path, col = np.nonzero(edge_index_matrix >= 0)
    return _log_paths(w, path, edge_index_matrix[path, col], edge_index_matrix.shape[0])


class UrnState:
    """Oriented-edge reinforcement state: weights grow by one per crossing."""

    def __init__(self, w: WeightAssignment, start: int):
        self.w = w
        self.graph = w.graph
        self.vertex = int(start)
        self.edge_counts = np.zeros(w.graph.n_edges, dtype=np.int64)
        self.departure_counts = np.zeros(w.graph.n_vertices, dtype=np.int64)
        self._vertex_sums = w.vertex_sums()

    def step_weights(self) -> tuple:
        """(out edge ids, probabilities) for the next step from the current vertex."""
        eids = self.graph.out_edges(self.vertex)
        num = self.w.values[eids] + self.edge_counts[eids]
        den = self._vertex_sums[self.vertex] + self.departure_counts[self.vertex]
        return eids, num / den

    def step_probability(self, edge_id: int) -> float:
        num = self.w.values[edge_id] + self.edge_counts[edge_id]
        den = self._vertex_sums[self.vertex] + self.departure_counts[self.vertex]
        return float(num / den)

    def advance(self, edge_id: int):
        if self.graph.tails[edge_id] != self.vertex:
            raise ValueError("edge does not leave the current vertex")
        self.edge_counts[edge_id] += 1
        self.departure_counts[self.vertex] += 1
        self.vertex = int(self.graph.heads[edge_id])


def urn_path_probability(w: WeightAssignment, traj: Trajectory) -> float:
    """Probability that the reinforced walk traces the path, as the product of
    urn step probabilities (the incremental route; compare with the exact formula)."""
    urn = UrnState(w, traj.start)
    logp = 0.0
    for eid in traj.edges:
        logp += math.log(urn.step_probability(eid))
        urn.advance(eid)
    return math.exp(logp)


def reinforced_walk(w: WeightAssignment, start: int, stop: StoppingRule, rng: RngStream):
    """Sample the oriented-edge linearly reinforced walk; its trajectory law is
    the annealed law of the Dirichlet environment with the same weights."""
    urn = UrnState(w, start)

    def choose_edge(_v, u):
        eids, probs = urn.step_weights()
        k = min(int(np.searchsorted(np.cumsum(probs), u, side="right")), len(eids) - 1)
        urn.advance(int(eids[k]))
        return int(eids[k])

    return walk_until_stopped(w.graph, start, stop, rng, choose_edge)


def reinforced_trace_frequency(w: WeightAssignment, traj: Trajectory, replicas: int,
                               rng: RngStream, workers: int = 1):
    """Fraction of reinforced walks of len(traj) steps that trace the path exactly.

    Along the forced path the urn's conditional step distributions are
    deterministic, so each step's target edge occupies a fixed sub-interval
    of [0, 1) and a walk traces the path exactly when all of its step
    uniforms land in their intervals.  Walks that deviate are abandoned at
    the deviating step; their remaining steps cannot affect the indicator.
    Replicas are split into fixed-size chunks, one RNG stream per chunk.
    """
    traj.check_consistent(w.graph)
    urn = UrnState(w, traj.start)
    lows = np.empty(len(traj))
    highs = np.empty(len(traj))
    for s, eid in enumerate(traj.edges):
        eids, probs = urn.step_weights()
        cum = np.cumsum(probs)
        j = int(np.flatnonzero(eids == eid)[0])
        lows[s] = cum[j - 1] if j > 0 else 0.0
        highs[s] = cum[j]
        urn.advance(eid)

    def run_chunk(gen: np.random.Generator, size: int):
        us = gen.random((size, len(traj)))
        return Moments.of(np.all((us >= lows) & (us < highs), axis=1))

    hits = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    return float(hits.mean), float(hits.standard_error)


def annealed_path_probability_mc(g: DirectedGraph, w: WeightAssignment, traj: Trajectory,
                                 replicas: int, rng: RngStream, workers: int = 1):
    """Monte Carlo mean of the quenched path probability over fresh environments.

    Independent oracle for the exact formula.  Returns (estimate, standard error).
    """
    if replicas < 100:
        raise PreconditionError("at least 100 replicas required")
    edge_ids = np.asarray(traj.edges, dtype=np.int64)

    def run_chunk(gen: np.random.Generator, size: int):
        probs = sample_environment_batch(g, w, gen, size)
        return Moments.of(probs[:, edge_ids].prod(axis=1))

    vals = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    return float(vals.mean), float(vals.standard_error)


# -- path literals --------------------------------------------------------


def parse_path_literal(g: DirectedGraph, text: str, origin: int = 0) -> Trajectory:
    """Parse a path literal into a trajectory.

    Three token forms, not mixed: vertex ids `0,1,0,1`; signed axis steps
    `+1,-1,+2` walked from `origin` (graphs with direction labels only);
    edge ids `e0,e5` for multigraphs where vertex ids are ambiguous.
    """
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        return Trajectory([origin], [])
    if all(t.startswith("e") for t in tokens):
        eids = [int(t[1:]) for t in tokens]
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
    """Vertex-id literal when unambiguous, else edge-id literal."""
    try:
        rt = Trajectory.from_vertices(g, traj.vertices)
        if rt.edges == list(traj.edges):
            return ",".join(str(v) for v in traj.vertices)
    except ValueError:
        pass
    return ",".join(f"e{eid}" for eid in traj.edges)
