"""Cylinder exit experiments, lattice directional-transience estimation, the
zero-speed trap inequality, and a velocity probe.

The finite-cylinder experiments test hitting identities that pin the
probability of escaping to the right at 1 - beta_1/alpha_1 independently of
the cylinder dimensions; the lattice experiments estimate P(T_L < D), the
probability of reaching abscissa L before ever backtracking below the start,
whose large-L limit bounds the directional-transience probability from below.

Finite-graph walks run vectorized across replicas in lockstep with an
active-set that shrinks as walks get absorbed.  A chunk's environments are
read from one packed table whose row holds, vertex by vertex, the cumulative
probabilities of each vertex's out-slots but its last; a walker at v finds
its out-edge with deg(v) - 1 compares, each moving it one column on while
its uniform is at or above the cumulative there.  Environments are sampled
about 1 MiB at a time, and each block is folded into the table and then
dropped, so a chunk never holds its whole (replicas x edges) probability
matrix.  Every vertex a walk goes on from has the same out-degree (both
cylinder builders give each 2d), so a lockstep step makes one count of
compares for all its walkers.  A lockstep step still costs a fixed numpy
call overhead however few walkers remain, and most lockstep steps of a
cylinder chunk move only a few stragglers, so once the active set is small
the remaining walkers finish in a plain Python loop.  That loop draws the
same uniforms in the same walker order and picks the same edge from the
same table, so records are byte-identical to an all-lockstep run.  The walk
returns the edge each walker took onto an absorbing vertex, and both
cylinder records read their estimate from it: `cylinder-delta` whether the
edge leaves the right face, `cylinder-exit` whether it enters the right row.

Every lattice output is an annealed quantity, so lattice walks never sample
an environment: they run as the oriented-edge linearly reinforced walk, whose
path law is the annealed law (Enriquez & Sabot 2002; Pemantle 1988).  Each
walk keeps crossing counts at the sites it visits and takes one uniform per
step, except where the zero-speed trap condition (`trap_condition`) holds on
some axis: there it draws each back-and-forth run across one edge whole,
from its exact law, with three uniforms, and still counts every crossing as
a step (`_UrnWalk`).  A chunk builds one walker and runs all its replicas in
one call, each walk from the origin with no counts, so the walker's tables
and loop state are set up once per chunk, not once per replica, which is
most of the cost of a walk of a few steps.  Sites are keyed by one integer,
the coordinates as digits in base 2 * max_steps + 1: no walk of max_steps
steps gets further than max_steps from the origin along any axis, so keys
stay distinct, and at the caps walks use they stay machine-word sized.

Replica counts are split into fixed-size chunks with one RNG stream per
chunk; worker count never changes any output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .environment import sample_environment_batch
from .errors import PreconditionError
from .graph import (
    CylinderSpec,
    DirectedGraph,
    LatticeSpec,
    build_cylinder_band,
    build_cylinder_graph,
)
from .parallel import Moments, run_chunked
from .rng import RngStream, block_uniforms

__all__ = [
    "RECORD_COLUMNS",
    "ExperimentResult",
    "cylinder_delta_exit",
    "cylinder_exit_from_origin",
    "lattice_transience",
    "trap_condition",
    "TrapCheck",
    "velocity_probe",
    "ruin_exit_probability",
    "quenched_ruin_probability",
    "expected_exit_probability",
]

DEFAULT_STEP_CAP = 100_000

# Active-walker count at or below which `_walk_until_absorbed` leaves lockstep
# numpy stepping (about 20 us of call overhead per step, whatever the count)
# for a plain Python loop.  Of 0, 16, 24, 48, 96 and 192, 48 ran the cylinder
# benchmark's calls fastest.
_SCALAR_TAIL = 48

# Lower bound on the product of the two return probabilities of an edge
# pair at which a lattice urn walk draws its back-and-forth run across the
# pair whole (`_UrnWalk`) rather than step by step.  Of 0.5, 0.6, 0.7, 0.75,
# 0.8, 0.85 and 0.9, 0.85 ran the lattice benchmark's trap-weight velocity
# call fastest.
_PAIR_SKIP = 0.85

# Bytes of probabilities that a cylinder chunk samples at a time before
# folding them into its cumulative table (`_sample_table`).
_BLOCK_BYTES = 1 << 20

# The keys of `ExperimentResult.to_record`, in order; also the CSV header.
RECORD_COLUMNS = [
    "experiment", "params", "estimate", "se", "replicas",
    "truncated", "undecided", "seed", "wall_time_s",
]


@dataclass
class ExperimentResult:
    """Estimate with its uncertainty and the bookkeeping needed to rerun it.

    `truncated` counts replicas that hit the step cap; `undecided` counts
    replicas whose outcome the experiment could not call (always a subset of
    the truncated ones).  How undecided replicas enter the estimate is up to
    each experiment and stated in its docstring.
    """

    experiment: str
    params: dict
    estimate: float
    standard_error: float
    replicas: int
    truncated: int = 0
    undecided: int = 0
    seed: int = 0
    wall_time_s: Optional[float] = None

    def __post_init__(self):
        if not 0 <= self.undecided <= self.truncated <= self.replicas:
            raise ValueError(
                f"need 0 <= undecided <= truncated <= replicas, got {self.undecided}, "
                f"{self.truncated}, {self.replicas}")

    def to_record(self) -> dict:
        """Serializable record, keyed by RECORD_COLUMNS in that order."""
        return {col: getattr(self, "standard_error" if col == "se" else col)
                for col in RECORD_COLUMNS}


def expected_exit_probability(lattice: LatticeSpec) -> float:
    """1 - beta_1/alpha_1, the exact right-exit probability of the cylinder
    experiment and the lower bound of the transience ones."""
    return 1.0 - lattice.beta(1) / lattice.alpha(1)


def _fold_table(g: DirectedGraph, blocks, size: int) -> np.ndarray:
    """The (size, n_edges - n_vertices) cumulative table of `size`
    environment rows, given as consecutive blocks of (rows, n_edges)
    probabilities.

    Row r holds, vertex by vertex, the cumulative probabilities of v's
    out-slots 0..deg(v) - 2 in environment r, summed one slot at a time in
    slot order (the adds `np.cumsum` makes); v's last slot is not stored.
    Slot j of v is the edge `g.out_edge_ids[g.out_offsets[v] + j]` and sits
    in column `g.out_offsets[v] - v + j`.  Each block is gathered into its
    rows of the table, summed there and dropped.
    """
    stored = np.ones(g.n_edges, dtype=bool)  # every out-slot but each vertex's last
    stored[g.out_offsets[1:] - 1] = False
    eids = g.out_edge_ids[stored]
    slot = (np.arange(g.n_edges) - np.repeat(g.out_offsets[:-1], g.out_degrees))[stored]
    # per slot j = 1, 2, ...: the columns holding it, each the sum of its
    # probability and the column before
    later = [np.flatnonzero(slot == j) for j in range(1, int(slot.max(initial=0)) + 1)]
    table = np.empty((size, eids.size))
    lo = 0
    for probs in blocks:
        cum = table[lo:lo + probs.shape[0]]
        lo += probs.shape[0]
        # the ids are in range; any mode but "raise" writes `out` unbuffered
        probs.take(eids, axis=1, out=cum, mode="clip")
        del probs  # before the next block is drawn
        for cols in later:
            cum[:, cols] += cum[:, cols - 1]
    return table


def _sample_table(g: DirectedGraph, w, gen: np.random.Generator, size: int) -> np.ndarray:
    """`_fold_table` of `size` environments drawn from `gen` with
    `sample_environment_batch`, `_BLOCK_BYTES` of probabilities at a time:
    Philox draws split over several calls equal those of one call, so this
    leaves the table and `gen` as one call for all `size` would."""
    block = max(1, _BLOCK_BYTES // (8 * g.n_edges))
    blocks = (sample_environment_batch(g, w, gen, min(block, size - lo))
              for lo in range(0, size, block))
    return _fold_table(g, blocks, size)


def _walk_until_absorbed(g: DirectedGraph, table: np.ndarray, start: int,
                         absorbing: np.ndarray, gen: np.random.Generator, step_cap: int):
    """Walk one replica per row of the `_fold_table` `table` from `start`
    until it steps onto a vertex where `absorbing` is True, or `step_cap`
    steps pass.  Every vertex that is not absorbing must have the same
    out-degree (ValueError otherwise), as on both cylinder builders.

    Every step draws `gen.random(n)` for the n still-active walkers, in
    walker order.  A walker at v starts at v's first column and moves one
    column on at each of deg(v) - 1 compares of its uniform against the
    cumulative there: it takes the first out-slot whose cumulative exceeds
    the uniform, as in `quenched_walk`, the last out-slot if none does, and
    slot 0 on a NaN row, so an edge of probability 0 is never taken, even at
    a uniform of 0.0.  The column it stops in, minus its row's start, plus
    v, is its index into `g.out_edge_ids`.  While more than `_SCALAR_TAIL`
    walkers are active a step is a few one-dimensional numpy passes over
    their cells, as many compares as the out-degree they share: all of them
    stand at `start` on step one and on vertices that are not absorbing
    after it.  The stragglers left after that finish in a plain Python loop
    over their rows of the table as lists, which draws the same uniforms and
    picks the same edges, so the phase split never changes a result or the
    generator's final state.  The step cap counts across both phases.

    Returns, per walker, the id of the edge it took onto an absorbing
    vertex, -1 where the step cap stopped it first.  The edge names both the
    vertex left and the vertex reached, and tells parallel twins apart.
    """
    if np.unique(g.out_degrees[~absorbing]).size > 1:
        raise ValueError("vertices that are not absorbing differ in out-degree")
    degs = g.out_degrees.tolist()
    size, width = table.shape
    flat = table.ravel()
    first = g.out_offsets[:-1] - np.arange(g.n_vertices)  # the column of v's slot 0
    out_ids = g.out_edge_ids
    heads = g.heads.take(out_ids)  # the head of each out-slot
    taken = np.full(size, -1, dtype=np.int64)
    active = np.arange(size)
    base = active * width  # each walker's row in `flat`
    here = np.full(size, start, dtype=np.int64)
    steps = 0
    while steps < step_cap and active.size > _SCALAR_TAIL:
        u = gen.random(active.size)
        cell = base + first.take(here)
        for _ in range(degs[here[0]] - 1):  # every active walker's out-degree
            cell += u >= flat.take(cell)
        cell -= base
        cell += here  # the index into `g.out_edge_ids`
        nxt = heads.take(cell)
        done = absorbing.take(nxt)
        if done.any():
            taken[active[done]] = out_ids.take(cell[done])
            kept = ~done
            active, base, nxt = active[kept], base[kept], nxt[kept]
        here = nxt
        steps += 1
    if steps == step_cap or active.size == 0:
        return taken

    rows = table[active].tolist()
    walkers = active.tolist()
    here = here.tolist()
    first, heads, out_ids = first.tolist(), heads.tolist(), out_ids.tolist()
    stops = absorbing.tolist()
    for _ in range(step_cap - steps):
        if not walkers:
            break
        reach = degs[here[0]] - 1
        kept = []
        for j, u in enumerate(gen.random(len(walkers)).tolist()):
            v = here[j]
            row = rows[j]
            c = first[v]
            end = c + reach
            while c < end and u >= row[c]:
                c += 1
            nxt = heads[c + v]
            if stops[nxt]:
                taken[walkers[j]] = out_ids[c + v]
            else:
                here[j] = nxt
                kept.append(j)
        if len(kept) < len(walkers):
            walkers = [walkers[j] for j in kept]
            rows = [rows[j] for j in kept]
            here = [here[j] for j in kept]
    return taken


def _exit_chunk(g, w, start, absorbing, step_cap, gen, size):
    """`_walk_until_absorbed` from `start` on one chunk of `size` replicas,
    their environments and uniforms drawn from `gen`: the edge each took
    onto an `absorbing` vertex, -1 where `step_cap` stopped it first."""
    return _walk_until_absorbed(g, _sample_table(g, w, gen, size), start, absorbing, gen,
                                step_cap)


def cylinder_delta_exit(spec: CylinderSpec, replicas: int, rng: RngStream,
                        step_cap: int = DEFAULT_STEP_CAP, workers: int = 1) -> ExperimentResult:
    """Probability that the walk from the outside vertex re-enters it through
    the right face.

    Per replica: sample an environment on the augmented cylinder, walk from
    the outside vertex until the first return to it, and record whether the
    vertex visited immediately before the return lies on the right face.  The
    expectation is exactly 1 - beta_1/alpha_1 for every N and L.  Replicas
    that hit the step cap are excluded from the estimate and reported.
    """
    cg = build_cylinder_graph(spec)
    g = cg.graph
    absorbing = np.zeros(g.n_vertices, dtype=bool)
    absorbing[cg.outside] = True
    # per edge id, then -1: the walk returned from the right face; only edges
    # into the outside vertex end a walk
    right = np.zeros(g.n_edges + 1, dtype=bool)
    right[:-1] = np.isin(g.tails, cg.right_face)
    run_chunk = functools.partial(_exit_chunk, g, cg.weights, cg.outside, absorbing, step_cap)
    returned = sum((Moments.of(right[t[t >= 0]])
                    for t in run_chunked(run_chunk, replicas, rng, workers)), Moments())
    truncated = replicas - returned.n
    return ExperimentResult(
        experiment="cylinder-delta",
        params={"alpha": list(spec.lattice.weights), "N": spec.N, "L": spec.L,
                "steps": step_cap},
        estimate=float(returned.mean),
        standard_error=float(returned.standard_error),
        replicas=replicas,
        truncated=truncated,
        undecided=truncated,
        seed=rng.seed,
    )


def cylinder_exit_from_origin(spec: CylinderSpec, replicas: int, rng: RngStream,
                              step_cap: int = DEFAULT_STEP_CAP,
                              workers: int = 1) -> ExperimentResult:
    """Probability of reaching abscissa L before abscissa -1 on the plain
    cylinder, starting at the origin.

    Estimates E[P_o(T_L < T-tilde_{-1})], which is at least 1 - beta_1/alpha_1.
    Replicas that hit the step cap count as failures, so the estimate is a
    conservative lower bound.
    """
    spec.lattice.require_drift()
    band = build_cylinder_band(spec)
    g = band.graph
    absorbing = np.zeros(g.n_vertices, dtype=bool)
    absorbing[band.left_absorbing] = True
    absorbing[band.right_absorbing] = True
    # per edge id, then -1: the walk reached the right row
    right = np.zeros(g.n_edges + 1, dtype=bool)
    right[:-1] = np.isin(g.heads, band.right_absorbing)
    run_chunk = functools.partial(_exit_chunk, g, band.weights, band.origin, absorbing, step_cap)
    chunks = run_chunked(run_chunk, replicas, rng, workers)
    reached = sum((Moments.of(right[t]) for t in chunks), Moments())
    truncated = sum(int(np.count_nonzero(t < 0)) for t in chunks)
    return ExperimentResult(
        experiment="cylinder-exit",
        params={"alpha": list(spec.lattice.weights), "N": spec.N, "L": spec.L,
                "steps": step_cap},
        estimate=float(reached.mean),
        standard_error=float(reached.standard_error),
        replicas=replicas,
        truncated=truncated,
        undecided=truncated,
        seed=rng.seed,
    )


def _beta_geometric(a: float, b: float, u: float, cap: int) -> int:
    """min(G, cap) for the number G of draws of the first colour before the
    first of the second from a Polya urn holding a and b, by inverse CDF at
    the uniform `u`.

    P(G >= g) = (a)_g / (a + b)_g, rising factorials, so G is the largest g
    at which lgamma(a + g) - lgamma(a + b + g) exceeds log u + lgamma(a) -
    lgamma(a + b).  The search starts from the large-g estimate P(G >= g) ~
    (g + a + (b - 1) / 2) ** -b.  Past an estimate at or below G it doubles
    its step until it brackets G; it then bisects the bracket, or the range
    below an estimate above G, all capped at `cap`.  A uniform of
    0.0 is below every P(G >= g) and gives the cap.
    """
    if cap <= 0:
        return 0
    if u <= 0.0:
        return cap
    lg = math.lgamma
    c = a + b
    floor = math.log(u) - lg(c) + lg(a)
    x = -floor / b
    g = cap if x >= math.log(cap + c) else min(cap, max(0, int(math.exp(x) - a - (b - 1) / 2)))
    if g > 0 and lg(a + g) - lg(c + g) <= floor:  # G < g
        lo, hi = 0, g
    else:
        lo, step = g, 1
        while True:
            if lo >= cap:
                return cap
            hi = min(lo + step, cap)
            if lg(a + hi) - lg(c + hi) <= floor:
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:  # G >= lo, G < hi
        mid = (lo + hi) // 2
        if lg(a + mid) - lg(c + mid) > floor:
            lo = mid
        else:
            hi = mid
    return lo


def _pair_run(a_x: float, b_x: float, a_y: float, b_y: float, u_x: float, u_y: float,
              left: int) -> int:
    """The number of back-and-forth steps an urn walk takes across the edge
    pair of x and y, starting at x, before it leaves the pair or `left`
    steps pass.

    At x, a_x is the weight plus count of the slot back to y and b_x the sum
    of x's other slots; a_y and b_y are the same at y for the slot to x.
    The urns at x and y are independent Polya urns, so the numbers G_x and
    G_y of returns each end makes before it first leaves are beta-geometric,
    drawn by `_beta_geometric` at `u_x` and `u_y`.  The walk leaves from x
    after 2 G_x back-and-forth steps if G_x <= G_y, and from y after
    2 G_y + 1 otherwise, so the count is min(2 G_x, 2 G_y + 1, left): even
    leaves the walk at x, odd at y.  G_x is capped where 2 G_x reaches
    `left`, and G_y where 2 G_y + 1 reaches `left` or passes 2 G_x.
    """
    g_x = _beta_geometric(a_x, b_x, u_x, (left + 1) // 2)
    g_y = _beta_geometric(a_y, b_y, u_y, min(left // 2, g_x))
    return min(2 * g_x, 2 * g_y + 1, left)


class _UrnWalk:
    """Walks from the origin of Z^d under the annealed law of the Dirichlet
    environment, run as the oriented-edge linearly reinforced walk.

    From site x the walk steps along direction i (weight order +e_1, -e_1,
    +e_2, ...) with probability (w_i + N(x,i)) / (sum_j w_j + N(x)), where
    N(x,i) counts its earlier steps from x along i and N(x) its earlier
    departures from x.  Only visited sites hold counts.

    Where `trap_condition` holds on some axis, a walk spends most of its
    steps crossing one edge back and forth, and the run across an edge pair
    has infinite mean length at fresh sites.  On such lattices `walks` draws
    each run whole: standing at a revisited site x, entered from y by slot
    k, the walk takes the run when p_x p_y >= `_PAIR_SKIP`, with p_x the
    urn probability of slot k's reverse at x and p_y that of slot k at y.
    The rule reads only the past, so the walk's law stays exact.
    `_pair_run` draws the run length from two uniforms, and a third picks
    the slot the walk leaves by among the other slots of the end it leaves
    from, in proportion to their weights; the counts at both ends take the
    whole run, and the walk's step count counts each crossing.  A run longer
    than the steps left to a stop ends there inside the pair, on the end set
    by parity, with counts for the steps taken; the walk goes on from there
    towards its next stop with a plain step.  On every other lattice each
    step takes one uniform.

    One walker serves a whole chunk of replicas: the constant tables are
    built once, and one `walks` call runs every walk of the chunk, each
    from the origin with no counts, reading on from the same uniforms.  A
    site x is keyed by the integer x_1 + x_2 S + x_3 S^2 + ... with stride
    S = 2 * max_steps + 1.  No walk of at most `max_steps` steps moves a
    coordinate further than max_steps from 0, so each coordinate is a digit
    of a balanced base-S numeral and distinct sites get distinct keys, which
    stay small (word-sized) integers at the step counts walks reach.
    """

    def __init__(self, lattice: LatticeSpec, uniforms, max_steps: int):
        w = list(lattice.weights)
        self._fresh = w + [sum(w)]  # per site: w_i + N(x,i) for each i, then the total
        self._key_moves = []
        self._dx = []
        stride = 2 * max_steps + 1
        for axis in range(lattice.dimension):
            for sign in (1, -1):
                self._key_moves.append(sign * stride ** axis)
                self._dx.append(sign if axis == 0 else 0)
        self._uniforms = uniforms
        # the condition bounds the total by 1, so no sum in it overflows
        if lattice.total() <= 1.0 and any(trap_condition(lattice, i).holds
                                          for i in range(1, lattice.dimension + 1)):
            self.walks = self._walks_pairs
            n = len(w)
            self._others = [[j for j in range(n) if j != back] for back in range(n)]
            self._no_row = [0.0] * n + [1.0]  # a last row that meets no rule

    def walks(self, count: int, stops, lo=-math.inf, hi=math.inf):
        """Run `count` walks in turn, each from the origin with no counts.
        A walk steps on to each step count in `stops` in turn, or until its
        abscissa leaves the open band (lo, hi).  No stop may exceed the
        constructor's `max_steps`, which sizes the site keys.

        Returns the abscissa at each stop, walk after walk, and each walk's
        running maximum."""
        fresh = self._fresh
        key_moves, dx = self._key_moves, self._dx
        total = len(fresh) - 1
        last = total - 1
        uniform = self._uniforms.__next__
        at, tops = [], []
        for _ in range(count):
            sites, key, x1, top, steps = {}, 0, 0, 0, 0
            for max_steps in stops:
                while steps < max_steps and lo < x1 < hi:
                    row = sites.get(key)
                    if row is None:
                        row = sites[key] = fresh[:]
                    t = uniform() * row[total]
                    k = 0
                    while k < last and t >= row[k]:
                        t -= row[k]
                        k += 1
                    row[k] += 1.0
                    row[total] += 1.0
                    key += key_moves[k]
                    x1 += dx[k]
                    steps += 1
                    if x1 > top:
                        top = x1
                at.append(x1)
            tops.append(top)
        return at, tops

    def _walks_pairs(self, count: int, stops, lo=-math.inf, hi=math.inf):
        """`walks` with each back-and-forth run across an edge pair drawn
        whole where the walk meets `_PAIR_SKIP`'s rule; each stop's first
        step is a plain one."""
        fresh = self._fresh
        key_moves, dx = self._key_moves, self._dx
        total = len(fresh) - 1
        last = total - 1
        others, skip, no_row = self._others, _PAIR_SKIP, self._no_row
        uniform = self._uniforms.__next__
        at, tops = [], []
        for _ in range(count):
            sites, key, x1, top, steps = {}, 0, 0, 0, 0
            for max_steps in stops:
                prow, k = no_row, 0  # the row the walk left last, and its slot
                while steps < max_steps and lo < x1 < hi:
                    row = sites.get(key)
                    if row is not None and row[k ^ 1] * prow[k] >= skip * row[total] * prow[total]:
                        # x's row is `row`, y's `prow`: draw the run across them
                        back = k ^ 1
                        b = sum([row[j] for j in others[back]])
                        b_y = sum([prow[j] for j in others[k]])
                        r = _pair_run(row[back], b, prow[k], b_y, uniform(), uniform(),
                                      max_steps - steps)
                        steps += r
                        n = (r + 1) // 2  # steps from x back to y
                        row[back] += n
                        row[total] += n
                        n = r // 2
                        prow[k] += n
                        prow[total] += n
                        if r % 2:  # at y, entered from x by `back`
                            key -= key_moves[k]
                            x1 -= dx[k]
                            row, prow, k, b = prow, row, back, b_y
                        if steps == max_steps:
                            break
                        # leave by one of this end's other slots, weighted as in its urn
                        t = uniform() * b
                        for k in others[k ^ 1]:
                            if t < row[k]:
                                break
                            t -= row[k]
                    else:
                        if row is None:
                            row = sites[key] = fresh[:]
                        t = uniform() * row[total]
                        k = 0
                        while k < last and t >= row[k]:
                            t -= row[k]
                            k += 1
                    row[k] += 1.0
                    row[total] += 1.0
                    key += key_moves[k]
                    x1 += dx[k]
                    steps += 1
                    if x1 > top:
                        top = x1
                    prow = row
                at.append(x1)
            tops.append(top)
        return at, tops


def _transience_chunk(lattice, levels, step_cap, gen, size):
    """`lattice_transience` on one chunk of `size` replicas drawn from `gen`."""
    lmax = max(levels)
    walk = _UrnWalk(lattice, block_uniforms(gen), step_cap)
    x1, maxima = walk.walks(size, [step_cap], -1, lmax)
    x1, maxima = np.array(x1, dtype=np.int64), np.array(maxima, dtype=np.int64)
    capped = (x1 >= 0) & (maxima < lmax)
    reached = maxima[:, None] >= np.array(levels)
    return Moments.of(reached), int(capped.sum()), (capped[:, None] & ~reached).sum(axis=0)


def lattice_transience(lattice: LatticeSpec, levels, replicas: int, step_cap: int,
                       rng: RngStream, workers: int = 1):
    """Estimate P(T_L < D) for each level L: reach abscissa L before ever
    stepping below 0, walking from the origin of the infinite lattice.

    One walk per replica decides every level at once (the events are nested):
    the walk runs until its abscissa reaches max(levels) or drops to -1 or the
    step cap hits.  A capped walk still decides the levels its running
    maximum already reached; the rest are undecided and count as failures in
    the estimate, which is therefore a conservative lower bound.  Returns one
    result per level, in the order given.
    """
    lattice.require_drift()
    levels = [int(L) for L in levels]
    if not levels or any(L < 1 for L in levels):
        raise PreconditionError("levels must be positive integers")
    run_chunk = functools.partial(_transience_chunk, lattice, levels, step_cap)
    chunks = run_chunked(run_chunk, replicas, rng, workers)
    successes = sum((m for m, _, _ in chunks), Moments())
    truncated = sum(t for _, t, _ in chunks)
    undecided = sum(u for _, _, u in chunks)
    return [ExperimentResult(
        experiment="transience",
        params={"alpha": list(lattice.weights), "L": L, "steps": step_cap},
        estimate=float(successes.mean[j]),
        standard_error=float(successes.standard_error[j]),
        replicas=replicas,
        truncated=truncated,
        undecided=int(undecided[j]),
        seed=rng.seed,
    ) for j, L in enumerate(levels)]


@dataclass(frozen=True)
class TrapCheck:
    """Zero-speed inequality for one axis: value is the left-hand side, the
    condition holds when it is at most 1, and slack is 1 - value."""

    axis: int
    value: float
    holds: bool
    slack: float


def trap_condition(lattice: LatticeSpec, axis: int) -> TrapCheck:
    """Check 2 * sum_j (alpha_j + beta_j) - alpha_i - beta_i <= 1 for axis i.

    When it holds the walk has zero asymptotic speed along every direction
    even where it is directionally transient: finite traps eat the time
    scale.  Returns the value, the boolean, and the slack 1 - value.
    """
    if axis < 1 or axis > lattice.dimension:
        raise PreconditionError(f"axis must be in 1..{lattice.dimension}")
    value = 2.0 * lattice.total() - lattice.alpha(axis) - lattice.beta(axis)
    if not math.isfinite(value):
        raise PreconditionError(f"the zero-speed value overflows for weights {lattice.weights}")
    return TrapCheck(axis=axis, value=value, holds=value <= 1.0, slack=1.0 - value)


def _velocity_chunk(lattice, horizons, gen, size):
    """`velocity_probe` on one chunk of `size` replicas drawn from `gen`."""
    walk = _UrnWalk(lattice, block_uniforms(gen), horizons[-1])
    x1, _ = walk.walks(size, horizons)
    return Moments.of(np.array(x1, dtype=np.float64).reshape(size, len(horizons)))


def velocity_probe(lattice: LatticeSpec, horizons, replicas: int, rng: RngStream,
                   workers: int = 1):
    """Estimate E[X_n . e_1] / n at each horizon n.

    One walk per replica runs to the largest horizon and its abscissa is read
    off at each checkpoint, so the per-horizon estimates are coupled.  No
    stopping rule applies; walks always complete, so nothing is truncated.
    """
    horizons = sorted(int(n) for n in horizons)
    if not horizons or horizons[0] < 1:
        raise PreconditionError("horizons must be positive integers")
    run_chunk = functools.partial(_velocity_chunk, lattice, horizons)
    x1 = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    return [ExperimentResult(
        experiment="velocity",
        params={"alpha": list(lattice.weights), "horizon": n},
        estimate=float(x1.mean[j] / n),
        standard_error=float(x1.standard_error[j] / n),
        replicas=replicas,
        seed=rng.seed,
    ) for j, n in enumerate(horizons)]


def _ruin(p: np.ndarray) -> np.ndarray:
    """The classical ruin formula on each row of `p`, the rightward step
    probabilities at sites 0..L-1: 1 / sum_{j=0..L} prod_{i<j} rho_i with
    rho_i = (1 - p_i)/p_i."""
    rho = (1.0 - p) / p
    return 1.0 / (1.0 + np.cumprod(rho, axis=1).sum(axis=1))


def quenched_ruin_probability(right_probs) -> float:
    """One-dimensional quenched probability of hitting L before -1 from 0:
    `_ruin` on a batch of one, `right_probs` listing the rightward step
    probability at sites 0..L-1."""
    p = np.asarray(right_probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise PreconditionError("need the rightward probability at sites 0..L-1")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise PreconditionError("rightward probabilities must lie strictly in (0, 1)")
    return float(_ruin(p[None, :])[0])


def _ruin_chunk(a1, b1, L, gen, size):
    """`ruin_exit_probability` on one chunk of `size` replicas drawn from `gen`."""
    return Moments.of(_ruin(gen.beta(a1, b1, size=(size, L))))


def ruin_exit_probability(lattice: LatticeSpec, L: int, replicas: int, rng: RngStream,
                          workers: int = 1) -> ExperimentResult:
    """Exact-formula oracle for the d=1 cylinder exit probability.

    Averages the quenched ruin formula over sampled environments: each site's
    rightward probability is an independent Beta(alpha_1, beta_1) draw.  No
    walking happens, so this is an independent route to the same expectation
    as the walk-based estimate.
    """
    if lattice.dimension != 1:
        raise PreconditionError("the ruin oracle is one-dimensional")
    if L < 1:
        raise PreconditionError("L must be >= 1")
    run_chunk = functools.partial(_ruin_chunk, lattice.alpha(1), lattice.beta(1), L)
    h = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    return ExperimentResult(
        experiment="ruin-oracle",
        params={"alpha": list(lattice.weights), "L": L},
        estimate=float(h.mean),
        standard_error=float(h.standard_error),
        replicas=replicas,
        seed=rng.seed,
    )
