"""Cylinder exit experiments, lattice directional-transience estimation, the
zero-speed trap inequality, and a velocity probe.

The finite-cylinder experiments test hitting identities that pin the
probability of escaping to the right at 1 - beta_1/alpha_1 independently of
the cylinder dimensions; the lattice experiments estimate P(T_L < D), the
probability of reaching abscissa L before ever backtracking below the start,
whose large-L limit bounds the directional-transience probability from below.

Finite-graph walks run vectorized across replicas in lockstep with an
active-set that shrinks as walks get absorbed.  A chunk's environments are
read as threshold columns, one flat array per out-slot but the last, holding
each row's cumulative probability up to that slot (+inf past the vertex's
last out-edge), so a lockstep step is a few one-dimensional gathers and
compares over the active walkers.  A lockstep step still costs a fixed numpy
call overhead however few walkers remain, and most lockstep steps of a
cylinder chunk move only a few stragglers, so once the active set is small
the remaining walkers finish in a plain Python loop.  That loop draws the
same uniforms in the same walker order and picks the same edge from the same
thresholds, so records are byte-identical to an all-lockstep run.

Every lattice output is an annealed quantity, so lattice walks never sample
an environment: they run as the oriented-edge linearly reinforced walk, whose
path law is the annealed law (Enriquez & Sabot 2002; Pemantle 1988).  Each
walk keeps crossing counts at the sites it visits and takes one uniform per
step.  A chunk builds one walker and restarts it for each replica, so the
walker's tables are built once per chunk.  Sites are keyed by one integer,
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
        if self.truncated > self.replicas:
            raise ValueError("truncated count exceeds replica count")

    def to_record(self) -> dict:
        """Serializable record with frozen key order."""
        return {
            "experiment": self.experiment,
            "params": self.params,
            "estimate": self.estimate,
            "se": self.standard_error,
            "replicas": self.replicas,
            "truncated": self.truncated,
            "undecided": self.undecided,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
        }


def expected_exit_probability(lattice: LatticeSpec) -> float:
    """1 - beta_1/alpha_1, the exact right-exit probability of the cylinder
    experiment and the lower bound of the transience ones."""
    return 1.0 - lattice.beta(1) / lattice.alpha(1)


def _threshold_columns(g: DirectedGraph, probs: np.ndarray) -> list:
    """The D - 1 threshold columns of the environment rows `probs` (one row
    per environment, one probability per edge), D the largest out-degree.

    Column j is flat over (environment r, vertex v) at r * n_vertices + v and
    holds the cumulative probability of v's out-slots 0..j, summed one slot
    at a time in slot order (the adds `np.cumsum` makes), or +inf from slot
    deg(v) - 1 on, so a uniform is never above it there.  Only vertices with
    a slot left are summed, so a column that is +inf at most vertices (past
    the degree of all but a few) costs little more than its fill.  Columns
    are gathered with `take` and `compress`, which keep the running sums
    C-ordered, so a column that needs no +inf is a view of them.
    """
    pad_eid, _ = g.padded_out_tables()
    deg = g.out_degrees
    size, n_vertices = probs.shape[0], g.n_vertices
    verts = np.flatnonzero(deg > 1)  # the vertices whose slot j is not their last
    cum = probs.take(pad_eid[verts, 0], axis=1)
    columns = []
    for j in range(pad_eid.shape[1] - 1):
        if j:
            keep = deg[verts] > j + 1
            if not keep.all():
                verts, cum = verts[keep], cum.compress(keep, axis=1)
            cum = cum + probs.take(pad_eid[verts, j], axis=1)
        if verts.size == n_vertices:
            columns.append(cum.ravel())
        else:
            column = np.full((size, n_vertices), np.inf)
            column[:, verts] = cum
            columns.append(column.ravel())
    return columns


def _walk_until_absorbed(g: DirectedGraph, probs: np.ndarray, start: int,
                         absorbing: np.ndarray, gen: np.random.Generator, step_cap: int):
    """Walk one replica per environment row of `probs` from `start` until it
    steps onto a vertex where `absorbing` is True, or `step_cap` steps pass.

    Every step draws `gen.random(n)` for the n still-active walkers, in
    walker order, and a walker at vertex v takes out-slot k, the number of
    v's threshold columns (`_threshold_columns`) that its uniform exceeds:
    the first out-edge whose cumulative probability is at least the uniform,
    the last out-edge if none is, edge 0 on a NaN row.  While more than
    `_SCALAR_TAIL` walkers are active a step is a few one-dimensional numpy
    passes over the active walkers' vertices and row offsets; the stragglers
    left after that finish in a plain Python loop over the same thresholds,
    which draws the same uniforms and picks the same edges, so the phase
    split never changes a result or the generator's final state.  The step
    cap counts across both phases.

    Returns each walker's final vertex and the vertex it left on its
    absorbing step, -1 where the step cap stopped it first.
    """
    _, pad_head = g.padded_out_tables()
    columns = _threshold_columns(g, probs)
    size, n_vertices = probs.shape[0], g.n_vertices
    slots = pad_head.shape[1]
    heads = pad_head.ravel()
    pos = np.full(size, start, dtype=np.int64)
    left = np.full(size, -1, dtype=np.int64)
    active = np.arange(size)
    offset = active * n_vertices
    here = pos.copy()
    steps = 0
    while steps < step_cap and active.size > _SCALAR_TAIL:
        u = gen.random(active.size)
        cell = offset + here
        k = here * slots  # plus the slot taken: an index into the padded heads
        for column in columns:
            k += u > column.take(cell)
        nxt = heads.take(k)
        done = absorbing.take(nxt)
        if done.any():
            gone = active[done]
            pos[gone] = nxt[done]
            left[gone] = here[done]
            kept = ~done
            active, offset, nxt = active[kept], offset[kept], nxt[kept]
        here = nxt
        steps += 1
    pos[active] = here
    if steps == step_cap or active.size == 0:
        return pos, left

    # each straggler's rows: its thresholds at every vertex, closed by +inf
    rows = [column.reshape(size, n_vertices)[active] for column in columns]
    rows.append(np.full((active.size, n_vertices), np.inf))
    rows = np.stack(rows, axis=-1).tolist()
    walkers = active.tolist()
    here = here.tolist()
    heads = pad_head.tolist()
    stops = absorbing.tolist()
    for _ in range(step_cap - steps):
        if not walkers:
            break
        kept = []
        for j, u in enumerate(gen.random(len(walkers)).tolist()):
            v = here[j]
            row = rows[j][v]
            k = 0
            while u > row[k]:
                k += 1
            nxt = heads[v][k]
            if stops[nxt]:
                pos[walkers[j]] = nxt
                left[walkers[j]] = v
            else:
                here[j] = nxt
                kept.append(j)
        if len(kept) < len(walkers):
            walkers = [walkers[j] for j in kept]
            rows = [rows[j] for j in kept]
            here = [here[j] for j in kept]
    pos[np.array(walkers, dtype=np.int64)] = here
    return pos, left


def _delta_chunk(cg, absorbing, right_mask, step_cap, gen, size):
    """`cylinder_delta_exit` on one chunk of `size` replicas drawn from `gen`."""
    probs = sample_environment_batch(cg.graph, cg.weights, gen, size)
    _, left = _walk_until_absorbed(cg.graph, probs, cg.outside, absorbing, gen, step_cap)
    return Moments.of(right_mask[left[left >= 0]])


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
    right_mask = np.zeros(cg.graph.n_vertices, dtype=bool)
    right_mask[cg.right_face] = True
    absorbing = np.zeros(cg.graph.n_vertices, dtype=bool)
    absorbing[cg.outside] = True
    run_chunk = functools.partial(_delta_chunk, cg, absorbing, right_mask, step_cap)
    returned = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
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


def _band_chunk(band, absorbing, right_mask, step_cap, gen, size):
    """`cylinder_exit_from_origin` on one chunk of `size` replicas drawn from `gen`."""
    probs = sample_environment_batch(band.graph, band.weights, gen, size)
    pos, left = _walk_until_absorbed(band.graph, probs, band.origin, absorbing, gen, step_cap)
    return Moments.of(right_mask[pos]), int(np.count_nonzero(left < 0))


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
    right_mask = np.zeros(band.graph.n_vertices, dtype=bool)
    right_mask[band.right_absorbing] = True
    absorbing = right_mask.copy()
    absorbing[band.left_absorbing] = True
    run_chunk = functools.partial(_band_chunk, band, absorbing, right_mask, step_cap)
    chunks = run_chunked(run_chunk, replicas, rng, workers)
    right = sum((m for m, _ in chunks), Moments())
    truncated = sum(t for _, t in chunks)
    return ExperimentResult(
        experiment="cylinder-exit",
        params={"alpha": list(spec.lattice.weights), "N": spec.N, "L": spec.L,
                "steps": step_cap},
        estimate=float(right.mean),
        standard_error=float(right.standard_error),
        replicas=replicas,
        truncated=truncated,
        undecided=truncated,
        seed=rng.seed,
    )


class _UrnWalk:
    """Walks from the origin of Z^d under the annealed law of the Dirichlet
    environment, run as the oriented-edge linearly reinforced walk.

    From site x the walk steps along direction i (weight order +e_1, -e_1,
    +e_2, ...) with probability (w_i + N(x,i)) / (sum_j w_j + N(x)), where
    N(x,i) counts its earlier steps from x along i and N(x) its earlier
    departures from x.  Only visited sites hold counts.  `x1` is the current
    abscissa, `top` its running maximum and `steps` the steps taken so far.

    One walker serves a whole chunk of replicas: the constant tables are
    built once, and `restart` puts the walker back at the origin with no
    counts before each replica, reading on from the same uniforms.  A site
    x is keyed by the integer x_1 + x_2 S + x_3 S^2 + ... with stride
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
        self.restart()

    def restart(self):
        """Back to the origin with no counts at any site."""
        self._sites = {}
        self._key = 0
        self.x1 = self.top = self.steps = 0

    def run(self, max_steps: int, lo=-math.inf, hi=math.inf):
        """Step until `max_steps` steps in all, or until the abscissa leaves
        the open band (lo, hi).  `max_steps` may not exceed the constructor's,
        which sizes the site keys."""
        sites, fresh = self._sites, self._fresh
        key_moves, dx = self._key_moves, self._dx
        total = len(fresh) - 1
        last = total - 1
        uniform = self._uniforms.__next__
        key, x1, top, steps = self._key, self.x1, self.top, self.steps
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
        self._key, self.x1, self.top, self.steps = key, x1, top, steps


def _transience_chunk(lattice, levels, step_cap, gen, size):
    """`lattice_transience` on one chunk of `size` replicas drawn from `gen`."""
    lmax = max(levels)
    walk = _UrnWalk(lattice, block_uniforms(gen), step_cap)
    maxima = np.empty(size, dtype=np.int64)
    capped = np.empty(size, dtype=bool)
    for i in range(size):
        walk.restart()
        walk.run(step_cap, -1, lmax)
        maxima[i] = walk.top
        capped[i] = walk.x1 >= 0 and walk.top < lmax
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
    return TrapCheck(axis=axis, value=value, holds=value <= 1.0, slack=1.0 - value)


def _velocity_chunk(lattice, horizons, gen, size):
    """`velocity_probe` on one chunk of `size` replicas drawn from `gen`."""
    walk = _UrnWalk(lattice, block_uniforms(gen), horizons[-1])
    x1 = np.empty((size, len(horizons)))
    for i in range(size):
        walk.restart()
        for j, n in enumerate(horizons):
            walk.run(n)
            x1[i, j] = walk.x1
    return Moments.of(x1)


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


def quenched_ruin_probability(right_probs) -> float:
    """One-dimensional quenched probability of hitting L before -1 from 0.

    `right_probs` lists the rightward step probability at sites 0..L-1; the
    classical ruin formula gives 1 / sum_{j=0..L} prod_{i<j} rho_i with
    rho_i = (1 - p_i)/p_i.
    """
    p = np.asarray(right_probs, dtype=np.float64)
    if p.ndim != 1 or p.size < 1:
        raise PreconditionError("need the rightward probability at sites 0..L-1")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise PreconditionError("rightward probabilities must lie strictly in (0, 1)")
    rho = (1.0 - p) / p
    return float(1.0 / (1.0 + np.cumprod(rho).sum()))


def _ruin_chunk(a1, b1, L, gen, size):
    """`ruin_exit_probability` on one chunk of `size` replicas drawn from `gen`."""
    p = gen.beta(a1, b1, size=(size, L))
    rho = (1.0 - p) / p
    return Moments.of(1.0 / (1.0 + np.cumprod(rho, axis=1).sum(axis=1)))


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
