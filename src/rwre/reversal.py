"""Time reversal of finite-graph walks in Dirichlet environments.

The reversed chain runs the walk backwards through its stationary
distribution.  Edge ids are shared between a graph and its reversal, so a
path read edgewise in reverse is a path of the reversed chain; cycles keep
their probability, and a general path picks up the ratio of stationary
masses of its endpoints.  When the weight divergence vanishes everywhere,
averaging commutes with reversal: the reversed environment of a Dirichlet
draw is again Dirichlet, with the same weights on the reversed edges.  That
is the statement verified here, by comparing Monte Carlo averages of
reversed-path probabilities against the exact annealed formula on the
reversed graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .annealed import (
    annealed_log_paths_batch,
    annealed_path_probability_exact,
    format_path_literal,
)
from .environment import Environment, Trajectory, path_probability, sample_environment_batch
from .errors import PreconditionError
from .graph import DirectedGraph, WeightAssignment, divergence, reverse_graph, reverse_weights
from .parallel import run_chunked
from .rng import RngStream

RESIDUAL_TOL = 1e-10
POWER_TOL = 1e-13
DIVERGENCE_TOL = 1e-9
PATH_GUARD = 10_000


def stationary_distribution(env: Environment, g: DirectedGraph = None) -> np.ndarray:
    """Unique invariant probability of the environment's chain.

    Solved directly from the linear system with a normalization row; if that
    is ill-conditioned the lazy chain (half identity, half P, same invariant
    vector) is power-iterated to tolerance 1e-13.
    """
    if g is None:
        g = env.graph
    if not g.is_strongly_connected():
        raise PreconditionError("stationary distribution needs a strongly connected graph")
    P = env.transition_matrix()
    n = g.n_vertices
    pi = None
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        cand = np.linalg.solve(A, b)
        if np.all(np.isfinite(cand)) and cand.min() > 0.0:
            pi = cand
    except np.linalg.LinAlgError:
        pi = None
    if pi is None or _residual(pi, P) > RESIDUAL_TOL:
        pi = _power_iteration(P)
    pi = pi / pi.sum()
    res = _residual(pi, P)
    if res > RESIDUAL_TOL:
        raise ValueError(f"stationary solve did not converge (residual {res:.3e})")
    return pi


def _residual(pi: np.ndarray, P: np.ndarray) -> float:
    return float(np.max(np.abs(pi @ P - pi)))


def _power_iteration(P: np.ndarray, max_iters: int = 1_000_000) -> np.ndarray:
    n = P.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = 0.5 * pi + 0.5 * (pi @ P)
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) <= POWER_TOL:
            return nxt
        pi = nxt
    raise ValueError("power iteration did not converge")


def reverse_environment(env: Environment, pi: np.ndarray,
                        g: DirectedGraph = None) -> Environment:
    """Environment of the reversed chain on the reversed graph.

    Each edge keeps its id; its probability becomes (pi_tail / pi_head) p_e
    with tail and head read on the original graph.  Row sums of the result
    equal 1 exactly when pi is stationary, so a row-sum failure beyond 1e-9
    reports pi as non-stationary.
    """
    if g is None:
        g = env.graph
    gr = reverse_graph(g)
    vals = env.probabilities * pi[g.tails] / pi[g.heads]
    sums = np.zeros(g.n_vertices)
    np.add.at(sums, gr.tails, vals)
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-9)
    if bad.size:
        raise PreconditionError(
            f"pi is not stationary: reversed rows off at vertices {bad.tolist()}"
        )
    return Environment(gr, vals, validate=False)


def reversed_path_ratio(env: Environment, pi: np.ndarray, traj: Trajectory) -> float:
    """Probability of the reversed path under the reversed chain.

    Computed directly on the reversed environment and checked against the
    stationary-ratio identity: it must equal (pi_start / pi_end) times the
    forward path probability to 1e-10 relative.
    """
    traj.check_consistent(env.graph)
    rev = reverse_environment(env, pi)
    backward = path_probability(rev, traj.reversed())
    forward = path_probability(env, traj)
    expected = (pi[traj.start] / pi[traj.end]) * forward
    scale = max(abs(backward), abs(expected), 1e-300)
    if abs(backward - expected) / scale > 1e-10:
        raise AssertionError(
            f"reversed path probability {backward!r} != ratio form {expected!r}"
        )
    return backward


@dataclass
class CycleReversalReport:
    """Both sides of the annealed cycle identity and their relative gap."""

    forward: float
    backward: float

    @property
    def rel_diff(self) -> float:
        scale = max(abs(self.forward), abs(self.backward), 1e-300)
        return abs(self.forward - self.backward) / scale

    def ok(self, tol: float = 1e-10) -> bool:
        return self.rel_diff <= tol


def require_null_divergence(w: WeightAssignment, tol: float = DIVERGENCE_TOL):
    div = divergence(w)
    bad = np.flatnonzero(np.abs(div) > tol)
    if bad.size:
        raise PreconditionError(
            f"weights have nonzero divergence at vertices {bad.tolist()}"
        )


def check_cycle_reversal(w: WeightAssignment, cycle: Trajectory) -> CycleReversalReport:
    """Annealed probability of a cycle equals that of the reversed cycle under
    the reversed weights.  Exact rising-factorial evaluation on both sides;
    requires null divergence, the identity's standing hypothesis.
    """
    if cycle.start != cycle.end:
        raise PreconditionError("cycle must end where it starts")
    require_null_divergence(w)
    cycle.check_consistent(w.graph)
    forward = annealed_path_probability_exact(w, cycle)
    gr = reverse_graph(w.graph)
    wr = reverse_weights(w, gr)
    backward = annealed_path_probability_exact(wr, cycle.reversed())
    return CycleReversalReport(forward, backward)


def enumerate_paths(g: DirectedGraph, root: int, max_len: int,
                    guard: int = PATH_GUARD) -> list:
    """All edge-id paths from `root` of length 1..max_len, in generation order."""
    paths = []
    frontier = [((), int(root))]
    for _ in range(max_len):
        nxt = []
        for prefix, v in frontier:
            for eid in g.out_edges(v):
                path = prefix + (int(eid),)
                paths.append(path)
                if len(paths) > guard:
                    raise PreconditionError(
                        f"path enumeration exceeds the {guard}-path guard"
                    )
                nxt.append((path, int(g.heads[eid])))
        frontier = nxt
    return paths


@dataclass
class ReversalReport:
    """Per-path comparison of Monte Carlo reversed-path means vs the exact
    annealed values on the reversed graph."""

    literals: list
    exact: np.ndarray
    mc: np.ndarray
    se: np.ndarray
    z: np.ndarray
    replicas: int
    allowed_outliers: int = field(default=0)

    def __post_init__(self):
        if self.allowed_outliers == 0:
            self.allowed_outliers = max(1, len(self.literals) // 100)

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z))) if len(self.z) else 0.0

    def outliers(self, threshold: float = 3.0) -> int:
        return int(np.sum(np.abs(self.z) > threshold))

    def policy_ok(self) -> bool:
        """Multiple-testing policy: a small number of |z| > 3 is expected at
        this many simultaneous comparisons, but nothing may pass |z| = 6."""
        return self.outliers(3.0) <= self.allowed_outliers and self.max_abs_z <= 6.0

    def lines(self) -> list:
        out = []
        for i, lit in enumerate(self.literals):
            out.append(
                f"path {lit} exact {self.exact[i]:.12g} mc {self.mc[i]:.12g} "
                f"se {self.se[i]:.12g} z {self.z[i]:.3f}"
            )
        return out

    def summary(self) -> str:
        return (
            f"{len(self.literals)} paths, {self.replicas} replicas, "
            f"max |z| {self.max_abs_z:.3f}, {self.outliers(3.0)} beyond 3 "
            f"(allowed {self.allowed_outliers}), policy "
            + ("pass" if self.policy_ok() else "FAIL")
        )


def stationary_batch(probs: np.ndarray, g: DirectedGraph) -> np.ndarray:
    """Stationary distributions of many environments at once.

    `probs` is (count, n_edges); returns (count, n_vertices).  Direct batched
    solve; intended for sampled Dirichlet environments, which are aperiodic
    and well-conditioned with overwhelming probability.
    """
    count = probs.shape[0]
    n = g.n_vertices
    P = np.zeros((count, n, n))
    np.add.at(P, (np.arange(count)[:, None], g.tails[None, :], g.heads[None, :]), probs)
    A = np.transpose(P, (0, 2, 1)) - np.eye(n)[None, :, :]
    A[:, -1, :] = 1.0
    b = np.zeros((count, n, 1))
    b[:, -1, 0] = 1.0
    pis = np.linalg.solve(A, b)[:, :, 0]
    if not np.all(np.isfinite(pis)) or pis.min() <= 0.0:
        raise ValueError("batched stationary solve produced invalid distributions")
    return pis / pis.sum(axis=1, keepdims=True)


def verify_reversal_distribution(g: DirectedGraph, w: WeightAssignment, k: int,
                                 replicas: int, rng: RngStream, root: int = 0,
                                 workers: int = 1) -> ReversalReport:
    """Check that reversing a Dirichlet environment gives a Dirichlet
    environment on the reversed graph with the reversed weights.

    For every path from `root` in the reversed graph of length <= k, the
    Monte Carlo mean of its reversed-chain probability (environment sampled
    with weights `w`, stationary distribution solved per sample) is compared
    with the exact annealed value under the reversed weights; the report
    carries one z-score per path.  The empty path is omitted: both sides are
    identically 1, so k must be at least 1.
    """
    if k < 1:
        raise PreconditionError(f"path length k must be at least 1, got {k}")
    if replicas < 100:
        raise PreconditionError("at least 100 replicas required")
    require_null_divergence(w)
    if not g.is_strongly_connected():
        raise PreconditionError("reversal verification needs a strongly connected graph")
    gr = reverse_graph(g)
    wr = reverse_weights(w, gr)
    paths = enumerate_paths(gr, root, k)
    n_paths = len(paths)
    idx = np.full((n_paths, k), -1, dtype=np.int64)
    for i, p in enumerate(paths):
        idx[i, : len(p)] = p
    mask = idx >= 0
    safe_idx = np.where(mask, idx, 0)

    exact = np.exp(annealed_log_paths_batch(wr, idx))

    def run_chunk(chunk_index: int, size: int):
        gen = rng.with_stream(chunk_index).generator()
        probs = sample_environment_batch(g, w, gen, size)
        pis = stationary_batch(probs, g)
        pcheck = probs * pis[:, g.tails] / pis[:, g.heads]
        gathered = np.where(mask[None, :, :], pcheck[:, safe_idx], 1.0)
        vals = gathered.prod(axis=2)
        return vals.sum(axis=0), np.square(vals).sum(axis=0)

    total = np.zeros(n_paths)
    total_sq = np.zeros(n_paths)
    for s, sq in run_chunked(run_chunk, replicas, workers):
        total += s
        total_sq += sq
    mc = total / replicas
    var = np.maximum(total_sq - replicas * mc * mc, 0.0) / (replicas - 1)
    se = np.sqrt(var / replicas)
    diff = mc - exact
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / np.where(se > 0, se, 1.0),
                     np.where(np.abs(diff) < 1e-15, 0.0, np.inf))

    literals = []
    for p in paths:
        vs = [int(root)]
        for eid in p:
            vs.append(int(gr.heads[eid]))
        literals.append(format_path_literal(gr, Trajectory(vs, list(p))))
    return ReversalReport(literals, exact, mc, se, z, replicas)
