"""Dirichlet environments on weighted graphs and quenched walks.

An environment assigns each vertex a probability vector over its out-edges.
Dirichlet sampling draws an independent Gamma(alpha_e, 1) per edge and
normalizes within each vertex, which is valid for all positive shapes
including the shape < 1 trap regime.  No flooring is applied to components;
only the floating-point format bounds them away from 0 and 1.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GraphFormatError, PreconditionError
from .graph import DirectedGraph, WeightAssignment
from .rng import RngStream, block_uniforms
from .stopping import CAP, TARGET, StoppingReport, StoppingRule

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
    return Environment(g, sample_environment_batch(g, w, rng.generator(), 1)[0])


def sample_environment_batch(g: DirectedGraph, w: WeightAssignment,
                             gen: np.random.Generator, count: int) -> np.ndarray:
    """(count, n_edges) matrix of independent environments: `sample_rows` at
    every vertex, so its columns are all edges in id order."""
    return sample_rows(g, w, gen, count, np.arange(g.n_vertices))[1]


def sample_rows(g: DirectedGraph, w: WeightAssignment, gen: np.random.Generator,
                count: int, vertices) -> tuple:
    """Dirichlet rows of `vertices` only, in `count` independent environments.

    Returns (eids, probs): the out-edges of those vertices in ascending id
    order, and the (count, len(eids)) matrix of their probabilities.  Vertex
    rows are independent, so no other row is drawn.  One Gamma(w_e, 1) is
    drawn per environment and listed edge, in that order, and divided by the
    sum over its tail's out-edges, summed in `out_edge_ids` order.  A row
    whose draws all underflow to 0 is left NaN (0/0), with a RuntimeWarning
    unless numpy's error state ignores invalid values.

    The matrix is C-ordered: the draws are divided in place, and every
    gather runs along the last axis with `take`, whose output is C-ordered
    too (fancy indexing on that axis gives Fortran-ordered temporaries,
    which the reduction and the divide walk several times slower).  When
    the listed edges already come grouped by tail, as on every graph the
    builders make, the draws are summed where they are, without a regrouped
    copy.
    """
    listed = np.zeros(g.n_vertices, dtype=bool)
    listed[vertices] = True
    row = np.cumsum(listed) - 1           # a listed vertex's row in the sums
    eids = np.flatnonzero(listed[g.tails])
    # the columns of eids in `out_edge_ids` order, each tail's edges adjacent
    grouped = np.searchsorted(eids, g.out_edge_ids[listed[g.tails[g.out_edge_ids]]])
    deg = g.out_degrees[listed]
    starts = np.cumsum(deg) - deg
    gammas = gen.standard_gamma(w.values[eids], size=(count, eids.size))
    if np.any(grouped != np.arange(grouped.size)):
        sums = np.add.reduceat(gammas.take(grouped, axis=-1), starts, axis=-1)
    else:
        sums = np.add.reduceat(gammas, starts, axis=-1)
    if not sums.all() and np.geterr()["invalid"] != "ignore":
        warnings.warn("a sampled Dirichlet row is NaN: every Gamma draw of the row "
                      "underflowed to 0", RuntimeWarning)
    with np.errstate(invalid="ignore"):
        np.divide(gammas, sums.take(row[g.tails[eids]], axis=-1), out=gammas)
    return eids, gammas


def log_path_probability(env: Environment, traj: Trajectory) -> float:
    """Sum of log transition probabilities along the path; empty path gives 0."""
    if len(traj) == 0:
        return 0.0
    return float(np.sum(np.log(env.probabilities[traj.edges])))


def path_probability(env: Environment, traj: Trajectory) -> float:
    """Product of transition probabilities along the path; empty path gives 1."""
    return float(np.exp(log_path_probability(env, traj)))


def walk_until_stopped(g: DirectedGraph, start: int, stop: StoppingRule, rng: RngStream,
                       choose):
    """Scalar walk loop shared by the quenched and the reinforced walk.

    From `start`, take one uniform u per step from `block_uniforms` on
    `rng`'s generator, as lattice walks do, and follow the out-edge of the
    current vertex v in slot `choose(v, u)` of `g.out_edge_lists[v]`,
    until the walk hits `stop.target` or takes `stop.max_steps` steps.
    Returns (trajectory, report); hitting the cap is reported as a
    truncation, not an error.
    """
    v = int(start)
    if not 0 <= v < g.n_vertices:
        raise PreconditionError(f"start vertex {v} out of range 0..{g.n_vertices - 1}")
    out = g.out_edge_lists
    heads = g.head_list
    vertices = [v]
    edge_ids = []
    reason = CAP
    for u in itertools.islice(block_uniforms(rng.generator()), stop.max_steps):
        eid = out[v][choose(v, u)]
        v = heads[eid]
        edge_ids.append(eid)
        vertices.append(v)
        if v == stop.target:
            reason = TARGET
            break
    return Trajectory(vertices, edge_ids), StoppingReport(reason, len(edge_ids), v)


def quenched_walk(env: Environment, start: int, stop: StoppingRule, rng: RngStream):
    """Sample the Markov chain of `env` from `start` until `stop` fires.

    A step takes the first out-edge whose cumulative probability exceeds
    its uniform, or the last out-edge if none does.  A vertex's cumulative
    row is summed in out-edge order on its first visit, so a walk never
    touches the rows of vertices it does not visit.  Returns (trajectory,
    report); hitting the step cap is reported as a truncation, not an error.
    """
    g, probs = env.graph, env.probabilities
    rows = {}

    def choose(v, u):
        row = rows.get(v)
        if row is None:
            row = rows[v] = list(itertools.accumulate(probs[g.out_edges(v)].tolist()))
        k, last = 0, len(row) - 1
        while k < last and u >= row[k]:
            k += 1
        return k

    return walk_until_stopped(g, start, stop, rng, choose)


# -- environment dump format ---------------------------------------------


def write_environment(env: Environment, fh):
    """Lines `env <vertex> <edge-id> <probability>` with 17 significant digits."""
    g = env.graph
    for v in range(g.n_vertices):
        for eid in g.out_edges(v):
            fh.write(f"env {v} {eid} {env.probabilities[eid]:.17g}\n")


def read_environment(g: DirectedGraph, fh) -> Environment:
    """Parse the lines written by write_environment into an environment on `g`."""
    p = np.zeros(g.n_edges)
    covered = np.zeros(g.n_edges, dtype=bool)
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
        if covered[eid]:
            raise GraphFormatError(f"line {lineno}: repeated env line for edge {eid}")
        if not np.isfinite(prob):
            raise GraphFormatError(f"line {lineno}: probability {prob!r} is not finite")
        p[eid] = prob
        covered[eid] = True
    if not covered.all():
        raise GraphFormatError("environment file does not cover every edge")
    return Environment(g, p)
