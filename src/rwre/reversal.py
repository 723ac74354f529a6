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

The reversed graph and weights and the weight divergence are cached views
of the forward objects (`DirectedGraph.reversal`, `WeightAssignment.reversal`
and `WeightAssignment.divergence`), built once and shared by every call.

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
from .graph import DirectedGraph, WeightAssignment
from .parallel import Moments, run_chunked
from .rng import RngStream

REVERSED_ROW_TOL = 1e-9
DIVERGENCE_TOL = 1e-9
# Relative gap at which the two sides of the cycle identity, and a reversed
# path probability and its stationary-ratio form, still count as equal.
IDENTITY_REL_TOL = 1e-10
PATH_GUARD = 10_000

# Bytes of the (n, n, block) transition array that `stationary_batch` fills
# per block of environments; its first elimination step holds a temporary of
# about the same size.  A chunk of 8192 environments on the 8x8 torus would
# need 256 MiB.
_SOLVE_BYTES = 1 << 25


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

    The reversed row of a vertex is its in-edges on `g`, read from
    `g.in_edge_ids` and `g.in_offsets`.  Rows sum to 1 exactly when pi is
    stationary, so a row off by more than 1e-9 (or NaN) reports pi as
    non-stationary.  Each row is summed from 0.0 over its in-edges in
    ascending id order, one in-edge slot at a time.
    """
    vals = probs * pi[..., g.tails] / pi[..., g.heads]
    in_deg = np.diff(g.in_offsets)
    sums = np.zeros(pi.shape)
    for j in range(int(in_deg.max())):
        verts = np.flatnonzero(in_deg > j)
        slot = vals.take(g.in_edge_ids[g.in_offsets[verts] + j], axis=-1)
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
    """Environment of the reversed chain on `env.graph.reversal`.  Each edge
    keeps its id; PreconditionError when pi is not stationary (see
    `_reversed_probabilities`)."""
    g = env.graph
    return Environment(g.reversal, _reversed_probabilities(g, env.probabilities, pi),
                       validate=False)


def reversed_path_ratio(env: Environment, pi: np.ndarray, traj: Trajectory) -> float:
    """Probability of the reversed path under the reversed chain.

    Computed directly on the reversed environment and checked against the
    stationary-ratio identity: it must equal (pi_start / pi_end) times the
    forward path probability to IDENTITY_REL_TOL relative.
    """
    traj.check_consistent(env.graph)
    rev = reverse_environment(env, pi)
    backward = path_probability(rev, traj.reversed())
    forward = path_probability(env, traj)
    expected = (pi[traj.start] / pi[traj.end]) * forward
    scale = max(abs(backward), abs(expected), 1e-300)
    if abs(backward - expected) / scale > IDENTITY_REL_TOL:
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

    def ok(self) -> bool:
        return self.rel_diff <= IDENTITY_REL_TOL


def require_null_divergence(w: WeightAssignment):
    bad = np.flatnonzero(np.abs(w.divergence) > DIVERGENCE_TOL)
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
    backward = annealed_path_probability_exact(w.reversal, cycle.reversed())
    return CycleReversalReport(forward, backward)


def enumerate_paths(g: DirectedGraph, root: int, max_len: int) -> list:
    """All edge-id paths from `root` of length 1..max_len, as a tree in
    generation order: path i is a (parent, eid) pair, path `parent` (-1 for
    the empty path) followed by edge eid.  Paths come by length, and the
    children of a path are contiguous, in out-slot order."""
    out, heads = g.out_edge_lists, g.head_list
    tree = []
    frontier = [(-1, int(root))]
    for _ in range(max_len):
        nxt = []
        for parent, v in frontier:
            for eid in out[v]:
                if len(tree) == PATH_GUARD:
                    raise PreconditionError(
                        f"path enumeration exceeds the {PATH_GUARD}-path guard"
                    )
                nxt.append((len(tree), heads[eid]))
                tree.append((parent, eid))
        frontier = nxt
    return tree


def _path_edges(tree: list):
    """The edge ids of each path of `tree` (`enumerate_paths`), in order,
    each rebuilt from the parent pointers when it is reached."""
    for i in range(len(tree)):
        edges = []
        while i >= 0:
            i, eid = tree[i]
            edges.append(eid)
        edges.reverse()
        yield edges


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

    Environments are solved in blocks whose transition arrays fit
    `_SOLVE_BYTES`.  A block holds at least two environments, since a block
    of one sums its (k, 1) columns pairwise and rounds differently; a
    trailing block of one joins the block before it.  So every environment
    gets the same masses, bit for bit, as in one unblocked solve.
    """
    count, n = probs.shape[0], g.n_vertices
    step = max(2, _SOLVE_BYTES // (8 * n * n))
    bounds = [*range(0, count, step), count]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    keys = (g.tails * n + g.heads).tolist()
    x = np.ones((n, count))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            _eliminate(keys, probs[lo:hi], x[:, lo:hi])
    bad = np.flatnonzero(~np.all((x > 0.0) & (x < np.inf), axis=0))
    if bad.size:
        raise PreconditionError(
            f"stationary solve gave a mass that is not finite and positive in {bad.size} "
            f"of {count} environment(s), first {bad[:5].tolist()}; the chain has a NaN row "
            f"or is numerically reducible"
        )
    return (x / x.sum(axis=0)).T


def _eliminate(keys: list, probs: np.ndarray, x: np.ndarray):
    """GTH on one block: the unnormalised masses of the environments `probs`
    into `x`, (n, block) and preset to 1, with transition (i, j) of edge e
    summed at keys[e] = i * n + j."""
    n, count = x.shape
    # P[i, j] is the (i, j) transition of every environment, the batch axis
    # last so that each step below runs over contiguous memory
    P = np.zeros((n * n, count))
    for key, column in zip(keys, probs.T):
        P[key] += column
    P = P.reshape(n, n, count)
    for k in range(n - 1, 0, -1):
        P[:k, k] /= P[k, :k].sum(axis=0)
        P[:k, :k] += P[:k, k, None] * P[None, k, :k]
    for k in range(1, n):
        x[k] = (x[:k] * P[:k, k]).sum(axis=0)


def _sibling_plan(gr: DirectedGraph, tree: list, root: int, k: int) -> list:
    """Depth-first plan of the sibling groups of `tree` (`enumerate_paths`
    on `gr` from `root` to length k): one (depth, row, lo, hi, first) entry
    per path shorter than k, the empty one included, for its children.

    The children read the reversed out-slots lo:hi of the path's last vertex
    and sit at first:first + hi - lo in generation order; `row` is the
    path's own row in its group (-1 for the empty path).  Every group comes
    after its parent's and before the parent's next sibling's, so a walk of
    the plan keeps one group per depth.  The walk uses an explicit stack,
    since a path may be longer than the interpreter's recursion limit.
    """
    # firsts[i + 1] is the first child of path i, firsts[0] that of the empty path
    firsts = [0] * (len(tree) + 1)
    for i in reversed(range(len(tree))):
        firsts[tree[i][0] + 1] = i
    offsets, heads = gr.out_offsets.tolist(), gr.head_list
    plan = []
    stack = [(-1, int(root), 1, -1)]
    while stack:
        path, v, depth, row = stack.pop()
        lo, hi = offsets[v], offsets[v + 1]
        first = firsts[path + 1]
        plan.append((depth, row, lo, hi, first))
        if depth < k:
            stack.extend((first + j, heads[tree[first + j][1]], depth + 1, j)
                         for j in reversed(range(hi - lo)))
    return plan


def _reverse_chunk(g, w, plan, n_paths, gen, size):
    """`verify_reversal_distribution` on one chunk of `size` replicas drawn
    from `gen`: the moments of every path's reversed-chain probability.

    Each sibling group is built from its parent's product, one row per path
    and one column per replica, and reduced at once, so a chunk holds one
    group per depth rather than every path's products.  Moments sums each
    row of the group pairwise, down the contiguous columns of `block.T`.
    """
    probs = sample_environment_batch(g, w, gen, size)
    rev = _reversed_probabilities(g, probs, stationary_batch(probs, g))
    factors = rev.T.take(g.reversal.out_edge_ids, axis=0)
    total, m2 = np.empty(n_paths), np.empty(n_paths)
    m2_exp = np.empty(n_paths, dtype=np.int64)
    blocks = {}
    for depth, row, lo, hi, first in plan:
        block = factors[lo:hi] if depth == 1 else factors[lo:hi] * blocks[depth - 1][row]
        blocks[depth] = block
        moments = Moments.of(block.T)
        total[first:first + hi - lo] = moments.total
        m2[first:first + hi - lo] = moments.m2
        m2_exp[first:first + hi - lo] = moments.m2_exp
    return Moments(size, total, m2, m2_exp)


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
    wr = w.reversal
    gr = wr.graph
    tree = enumerate_paths(gr, root, k)
    exact = np.exp(annealed_log_paths_batch(wr, _path_edges(tree)))

    plan = _sibling_plan(gr, tree, root, k)
    run_chunk = functools.partial(_reverse_chunk, g, w, plan, len(tree))
    vals = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    mc, se = vals.mean, vals.standard_error
    diff = mc - exact
    # a path whose probability is the same in every environment has se 0:
    # it passes when mc meets the exact value to the formula's rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, diff / np.where(se > 0, se, 1.0),
                     np.where(np.abs(diff) <= IDENTITY_REL_TOL * np.abs(exact), 0.0,
                              np.copysign(np.inf, diff)))

    heads = gr.head_list
    literals = []
    for edges in _path_edges(tree):
        vs = [int(root)] + [heads[eid] for eid in edges]
        literals.append(format_path_literal(gr, Trajectory(vs, edges)))
    return ReversalReport(literals, exact, mc, se, z, replicas)
