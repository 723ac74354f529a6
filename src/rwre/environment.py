"""Dirichlet environments on weighted graphs, quenched walks, and the
empirical environment of a trajectory.

An environment assigns each vertex a probability vector over its out-edges.
Dirichlet sampling draws an independent Gamma(alpha_e, 1) per edge and
normalizes within each vertex, which is valid for all positive shapes
including the shape < 1 trap regime.  No flooring is applied to components;
only the floating-point format bounds them away from 0 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import GraphFormatError, PreconditionError
from .graph import DirectedGraph, WeightAssignment
from .rng import RngStream
from .stopping import CAP, StoppingReport, StoppingRule

ROW_SUM_TOL = 1e-12


class Environment:
    """Per-edge transition probabilities, row-stochastic at every vertex."""

    def __init__(self, graph: DirectedGraph, probabilities, validate: bool = True):
        p = np.asarray(probabilities, dtype=np.float64)
        if p.shape != (graph.n_edges,):
            raise ValueError("one probability per edge required")
        self.graph = graph
        self.probabilities = p
        if validate:
            self.validate()

    def validate(self, tol: float = ROW_SUM_TOL):
        """Every row must sum to 1 within `tol`; a NaN row fails too (a
        sampled row is NaN when all of its Gamma draws underflow to 0)."""
        sums = np.zeros(self.graph.n_vertices)
        np.add.at(sums, self.graph.tails, self.probabilities)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= tol))
        if bad.size:
            raise PreconditionError(f"rows do not sum to 1 at vertices {bad.tolist()}")

    def probability(self, edge_id: int) -> float:
        return float(self.probabilities[edge_id])


def cumulative_rows(g: DirectedGraph, probs: np.ndarray):
    """(cumulative table, padded heads, degrees) for fast stepping.

    `probs` holds one probability per edge on its last axis, with any leading
    batch axes (one per environment); the table has shape
    (*batch, n_vertices, max out-degree), zero-filled past each degree.
    """
    pad_eid, pad_head, deg = g.padded_out_tables()
    live = np.arange(pad_eid.shape[1])[None, :] < deg[:, None]
    return np.cumsum(np.where(live, probs[..., pad_eid], 0.0), axis=-1), pad_head, deg


@dataclass
class Trajectory:
    """Vertex sequence plus the edge ids of the steps taken."""

    vertices: list
    edges: list

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("vertex count must be edge count + 1")

    def __len__(self):
        return len(self.edges)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def check_consistent(self, g: DirectedGraph):
        for i, eid in enumerate(self.edges):
            if g.tails[eid] != self.vertices[i] or g.heads[eid] != self.vertices[i + 1]:
                raise ValueError(f"step {i} does not follow edge {eid}")

    @classmethod
    def from_vertices(cls, g: DirectedGraph, vertices) -> "Trajectory":
        """Resolve a vertex sequence to edges; fails on ambiguous parallel steps."""
        vs = [int(v) for v in vertices]
        eids = [g.find_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]
        return cls(vs, eids)

    def reversed(self) -> "Trajectory":
        """Same steps walked backwards; valid on the reversed graph (ids shared)."""
        return Trajectory(list(reversed(self.vertices)), list(reversed(self.edges)))


def sample_environment(g: DirectedGraph, w: WeightAssignment, rng: RngStream) -> Environment:
    """One Dirichlet environment: vertex rows are independent Dirichlet(out-weights)."""
    gen = rng.generator()
    gammas = gen.standard_gamma(w.values)
    return Environment(g, _normalize_rows(g, gammas))


def sample_environment_batch(g: DirectedGraph, w: WeightAssignment,
                             gen: np.random.Generator, count: int) -> np.ndarray:
    """(count, n_edges) matrix of independent environments, rows normalized per vertex."""
    gammas = gen.standard_gamma(w.values, size=(count, g.n_edges))
    return _normalize_rows(g, gammas)


def _normalize_rows(g: DirectedGraph, gammas: np.ndarray) -> np.ndarray:
    """Divide each edge's Gamma draw by the sum over its tail's out-edges,
    which are summed in `out_edge_ids` order (0/0 gives a NaN row)."""
    sums = np.add.reduceat(gammas[..., g.out_edge_ids], g.out_offsets[:-1], axis=-1)
    return gammas / sums[..., g.tails]


def log_path_probability(env: Environment, traj: Trajectory) -> float:
    """Sum of log transition probabilities along the path; empty path gives 0."""
    if len(traj) == 0:
        return 0.0
    return float(np.sum(np.log(env.probabilities[traj.edges])))


def path_probability(env: Environment, traj: Trajectory) -> float:
    """Product of transition probabilities along the path; empty path gives 1."""
    return float(np.exp(log_path_probability(env, traj)))


def walk_until_stopped(g: DirectedGraph, start: int, stop: StoppingRule, rng: RngStream,
                       choose_edge):
    """Scalar walk loop shared by the quenched and the reinforced walk.

    From `start`, draw one buffered uniform u per step from `rng` and follow
    edge `choose_edge(v, u)` out of the current vertex v, until `stop` fires
    or its step cap hits.  Returns (trajectory, report); hitting the cap is
    reported as a truncation, not an error.
    """
    coords = g.coords
    if stop.needs_coords() and coords is None:
        raise ValueError("stopping rule needs coordinates but the graph has none")
    heads = g.heads
    gen = rng.generator()
    v = int(start)
    vertices = [v]
    edge_ids = []
    reason = stop.check(v, coords[v] if coords is not None else None, 0)
    step = 0
    buf = gen.random(256)
    buf_i = 0
    while reason is None:
        if step >= stop.max_steps:
            reason = CAP
            break
        if buf_i == len(buf):
            buf = gen.random(256)
            buf_i = 0
        eid = choose_edge(v, buf[buf_i])
        buf_i += 1
        v = int(heads[eid])
        edge_ids.append(eid)
        vertices.append(v)
        step += 1
        reason = stop.check(v, coords[v] if coords is not None else None, step)
    return Trajectory(vertices, edge_ids), StoppingReport(reason, step, v)


def quenched_walk(env: Environment, start: int, stop: StoppingRule, rng: RngStream):
    """Sample the Markov chain of `env` from `start` until `stop` fires.

    Returns (trajectory, report); hitting the step cap is reported as a
    truncation, not an error.  Coordinate rules require the graph to carry
    vertex coordinates.
    """
    g = env.graph
    cum, _, deg = cumulative_rows(g, env.probabilities)
    pad_eid = g.padded_out_tables()[0]

    def choose_edge(v, u):
        k = min(int(np.searchsorted(cum[v], u, side="right")), deg[v] - 1)
        return int(pad_eid[v, k])

    return walk_until_stopped(g, start, stop, rng, choose_edge)


@dataclass
class EmpiricalEnvironment:
    """Edge-crossing frequencies of a trajectory; defined only at departed vertices."""

    graph: DirectedGraph
    edge_counts: np.ndarray
    departure_counts: np.ndarray

    def visited(self, v: int) -> bool:
        return self.departure_counts[v] > 0

    def probability(self, edge_id: int) -> Fraction:
        """Exact crossing frequency n_e / n_x; raises at undeparted vertices."""
        x = int(self.graph.tails[edge_id])
        if self.departure_counts[x] == 0:
            raise ValueError(f"vertex {x} was never departed from")
        return Fraction(int(self.edge_counts[edge_id]), int(self.departure_counts[x]))

    def row(self, v: int) -> dict:
        if not self.visited(v):
            raise ValueError(f"vertex {v} was never departed from")
        return {int(e): self.probability(int(e)) for e in self.graph.out_edges(v)}

    def as_probabilities(self) -> np.ndarray:
        """Float frequencies per edge; NaN where the tail vertex was never departed."""
        tails = self.graph.tails
        with np.errstate(invalid="ignore", divide="ignore"):
            p = self.edge_counts / self.departure_counts[tails]
        p[self.departure_counts[tails] == 0] = np.nan
        return p


def empirical_environment(g: DirectedGraph, traj: Trajectory) -> EmpiricalEnvironment:
    """Sample environment of a trajectory: crossing counts over departure counts."""
    if len(traj.vertices) == 0:
        raise ValueError("trajectory must be nonempty")
    edge_counts = np.zeros(g.n_edges, dtype=np.int64)
    np.add.at(edge_counts, traj.edges, 1)
    departures = np.zeros(g.n_vertices, dtype=np.int64)
    np.add.at(departures, traj.vertices[:-1], 1)
    return EmpiricalEnvironment(g, edge_counts, departures)


# -- environment dump format ---------------------------------------------


def write_environment(env: Environment, fh):
    """Lines `env <vertex> <edge-id> <probability>` with 17 significant digits."""
    g = env.graph
    for v in range(g.n_vertices):
        for eid in g.out_edges(v):
            fh.write(f"env {v} {eid} {env.probabilities[eid]:.17g}\n")


def read_environment(g: DirectedGraph, fh) -> Environment:
    """Parse the lines written by write_environment into an environment on `g`."""
    p = np.full(g.n_edges, np.nan)
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "env" or len(parts) != 4:
            raise GraphFormatError(f"line {lineno}: expected `env <vertex> <edge-id> <probability>`")
        try:
            v, eid, prob = int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed number in {line!r}") from None
        if not 0 <= eid < g.n_edges:
            raise GraphFormatError(f"line {lineno}: edge id {eid} out of range 0..{g.n_edges - 1}")
        if v != g.tails[eid]:
            raise GraphFormatError(f"line {lineno}: edge {eid} leaves vertex {g.tails[eid]}, not {v}")
        p[eid] = prob
    if np.isnan(p).any():
        raise GraphFormatError("environment file does not cover every edge")
    return Environment(g, p)
