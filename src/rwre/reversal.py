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

The stationary solve and the reversed-chain probabilities each have one
batched implementation, which single environments use as a batch of one.
The solve never subtracts, so stationary masses keep full relative accuracy
at any positive weight, down to the masses far below machine epsilon that
weights well below 1 give.  An environment with a NaN row, or one that is
numerically reducible, fails with PreconditionError; it is never
approximated by another route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .annealed import (
    annealed_log_paths_batch,
    annealed_path_probability_exact,
    format_path_literal,
)
from .environment import Environment, Trajectory, path_probability, sample_environment_batch
from .errors import PreconditionError
from .graph import DirectedGraph, WeightAssignment, divergence, reverse_graph, reverse_weights
from .parallel import Moments, run_chunked
from .rng import RngStream

REVERSED_ROW_TOL = 1e-9
DIVERGENCE_TOL = 1e-9
PATH_GUARD = 10_000

# Replicas per block of `verify_reversal_distribution`'s path products: a
# block of 340 paths (k = 4 on a 2x2 torus) is ~1.4 MB, which stays in cache.
_REPLICA_BLOCK = 512


def stationary_distribution(env: Environment) -> np.ndarray:
    """Unique invariant probability of the environment's chain: the
    strong-connectivity check, then `stationary_batch` on a batch of one."""
    if not env.graph.is_strongly_connected():
        raise PreconditionError("stationary distribution needs a strongly connected graph")
    return stationary_batch(env.probabilities[None, :], env.graph)[0]


def _reversed_probabilities(g: DirectedGraph, probs: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Edge probabilities of the reversed chain, (pi_tail / pi_head) p_e with
    tail and head read on `g`; leading batch axes of `probs` and `pi` (one per
    environment) are kept.

    The reversed row of a vertex is its in-edges on `g`.  Rows sum to 1
    exactly when pi is stationary, so a row off by more than 1e-9 (or NaN)
    reports pi as non-stationary.  Each row is summed from 0.0 over its
    in-edges in ascending id order, one in-edge slot at a time.
    """
    vals = probs * pi[..., g.tails] / pi[..., g.heads]
    in_eid = np.argsort(g.heads, kind="stable")  # grouped by head, ascending id in a group
    in_deg = np.bincount(g.heads, minlength=g.n_vertices)
    first = np.cumsum(in_deg) - in_deg
    sums = np.zeros(pi.shape)
    for j in range(int(in_deg.max())):
        verts = np.flatnonzero(in_deg > j)
        slot = vals.take(in_eid[first[verts] + j], axis=-1)
        if verts.size == g.n_vertices:
            sums += slot
        else:
            sums[..., verts] += slot
    off = ~(np.abs(sums - 1.0) <= REVERSED_ROW_TOL)
    if off.any():
        bad = np.flatnonzero(off.reshape(-1, off.shape[-1]).any(axis=0))
        raise PreconditionError(
            f"pi is not stationary: reversed rows off at vertices {bad.tolist()}"
        )
    return vals


def reverse_environment(env: Environment, pi: np.ndarray) -> Environment:
    """Environment of the reversed chain on the reversed graph.  Each edge
    keeps its id; PreconditionError when pi is not stationary (see
    `_reversed_probabilities`)."""
    g = env.graph
    return Environment(reverse_graph(g), _reversed_probabilities(g, env.probabilities, pi),
                       validate=False)


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

    @property
    def allowed_outliers(self) -> int:
        """|z| > 3 count the policy tolerates: one per 100 paths, at least 1."""
        return max(1, len(self.literals) // 100)

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

    `probs` is (count, n_edges); returns (count, n_vertices).  Grassmann-
    Taksar-Heyman elimination (Grassmann, Taksar & Heyman 1985), batched over
    environments: vertices are censored from the last down, each pivot is
    the sum of its row's off-diagonal entries among the vertices left, and
    the masses follow by back-substitution from vertex 0.  Nothing is ever
    subtracted, so every mass keeps full relative accuracy however small it
    is (O'Cinneide 1993).  The diagonal (self-loops) is never read: the
    solve is that of the chain whose holding probability is 1 minus its
    off-diagonal row sum.

    One guard: every unnormalised mass must come out finite and positive,
    else PreconditionError names the failing environments.  A NaN row, or a
    pivot that is not finite and positive (a chain made numerically
    reducible, say by an edge of probability 0), spreads into the masses;
    a vertex that no other vertex reaches gets mass 0.
    """
    count, n = probs.shape[0], g.n_vertices
    # P[i, j] is the (i, j) transition of every environment, the batch axis
    # last so that each step below runs over contiguous memory
    P = np.zeros((n * n, count))
    for key, column in zip((g.tails * n + g.heads).tolist(), probs.T):
        P[key] += column
    P = P.reshape(n, n, count)
    x = np.ones((n, count))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1, 0, -1):
            P[:k, k] /= P[k, :k].sum(axis=0)
            P[:k, :k] += P[:k, k, None] * P[None, k, :k]
        for k in range(1, n):
            x[k] = (x[:k] * P[:k, k]).sum(axis=0)
    bad = np.flatnonzero(~np.all((x > 0.0) & (x < np.inf), axis=0))
    if bad.size:
        raise PreconditionError(
            f"stationary solve gave a mass that is not finite and positive in {bad.size} "
            f"of {count} environment(s), first {bad[:5].tolist()}; the chain has a NaN row "
            f"or is numerically reducible"
        )
    return (x / x.sum(axis=0)).T


def _reverse_chunk(g, w, parent, last, ends, gen, size):
    """`verify_reversal_distribution` on one chunk of `size` replicas drawn from `gen`."""
    probs = sample_environment_batch(g, w, gen, size)
    rev = _reversed_probabilities(g, probs, stationary_batch(probs, g)).T.copy()
    # One row per path and one column per replica, so that `vals.T` is
    # the Fortran-ordered (replica, path) matrix: Moments sums each
    # path's replicas pairwise down one contiguous column (a row-major
    # matrix is summed row by row, which rounds differently).  Products
    # are built one block of replicas at a time, so each depth reads its
    # parents while they are still in cache; every value is the same
    # product of the same factors.
    vals = np.empty((parent.size, size))
    for r0 in range(0, size, _REPLICA_BLOCK):
        block, factors = vals[:, r0:r0 + _REPLICA_BLOCK], rev[:, r0:r0 + _REPLICA_BLOCK]
        block[: ends[0]] = factors[last[: ends[0]]]
        for lo, hi in zip(ends[:-1], ends[1:]):
            np.multiply(block[parent[lo:hi]], factors[last[lo:hi]], out=block[lo:hi])
    return Moments.of(vals.T)


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
    if not 0 <= root < g.n_vertices:
        raise PreconditionError(f"root {root} out of range 0..{g.n_vertices - 1}")
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
    # Each path is its parent (itself less the last step) times one reversed
    # edge probability.  Generation order lists paths depth by depth, each
    # after its parent, so depth d is the column range ends[d-2]:ends[d-1].
    position = {p: i for i, p in enumerate(paths)}
    parent = np.array([position.get(p[:-1], -1) for p in paths], dtype=np.int64)
    depth = np.array([len(p) for p in paths])
    last = idx[np.arange(n_paths), depth - 1]
    ends = np.searchsorted(depth, np.arange(1, k + 1), side="right")

    exact = np.exp(annealed_log_paths_batch(wr, idx))

    run_chunk = functools.partial(_reverse_chunk, g, w, parent, last, ends)
    vals = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    mc, se = vals.mean, vals.standard_error
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
