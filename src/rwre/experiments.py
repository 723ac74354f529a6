"""Cylinder exit experiments, lattice directional-transience estimation, the
zero-speed trap inequality, and a velocity probe.

The finite-cylinder experiments test hitting identities that pin the
probability of escaping to the right at 1 - beta_1/alpha_1 independently of
the cylinder dimensions; the lattice experiments estimate P(T_L < D), the
probability of reaching abscissa L before ever backtracking below the start,
whose large-L limit bounds the directional-transience probability from below.

Finite-graph walks run vectorized across replicas in lockstep with an
active-set that shrinks as walks get absorbed.  A lockstep step costs a
fixed numpy call overhead however few walkers remain, and most lockstep
steps of a cylinder chunk move only a few stragglers, so once the active set
is small the remaining walkers finish in a plain Python loop.  That loop draws
the same uniforms in the same walker order and picks the same edge from the
same cumulative row, so records are byte-identical to an all-lockstep run.

Every lattice output is an annealed quantity, so lattice walks never sample
an environment: they run as the oriented-edge linearly reinforced walk, whose
path law is the annealed law (Enriquez & Sabot 2002; Pemantle 1988).  Each
walk keeps crossing counts at the sites it visits and takes one uniform per
step.

Replica counts are split into fixed-size chunks with one RNG stream per
chunk; worker count never changes any output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .environment import cumulative_rows, sample_environment_batch
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


def _walk_until_absorbed(g: DirectedGraph, probs: np.ndarray, start: int,
                         absorbing: np.ndarray, gen: np.random.Generator, step_cap: int):
    """Walk one replica per environment row of `probs` from `start` until it
    steps onto a vertex where `absorbing` is True, or `step_cap` steps pass.

    Every step draws `gen.random(n)` for the n still-active walkers, in
    walker order, and walker i follows the first edge whose cumulative
    probability is at least its uniform (the last edge if none is; NaN rows
    take edge 0).  While more than `_SCALAR_TAIL` walkers are active a step
    is a handful of numpy calls over all of them; the stragglers left after
    that finish in a plain Python loop, which draws the same uniforms and
    picks the same edges, so the phase split never changes a result or the
    generator's final state.  The step cap counts across both phases.

    Returns each walker's final vertex, the vertex it left on its absorbing
    step (-1 where it never got absorbed), and the indices of the walkers
    the step cap stopped.
    """
    cum, pad_head, deg = cumulative_rows(g, probs)
    size = probs.shape[0]
    pos = np.full(size, start, dtype=np.int64)
    left = np.full(size, -1, dtype=np.int64)
    active = np.arange(size)
    steps = 0
    while steps < step_cap and active.size > _SCALAR_TAIL:
        u = gen.random(active.size)
        here = pos[active]
        k = np.sum(u[:, None] > cum[active, here], axis=1)
        nxt = pad_head[here, np.minimum(k, deg[here] - 1)]
        pos[active] = nxt
        done = absorbing[nxt]
        if done.any():
            left[active[done]] = here[done]
            active = active[~done]
        steps += 1
    if steps == step_cap or active.size == 0:
        return pos, left, active

    walkers = active.tolist()
    rows = cum[active].tolist()
    here = pos[active].tolist()
    heads = pad_head.tolist()
    last = (deg - 1).tolist()
    stops = absorbing.tolist()
    for _ in range(step_cap - steps):
        if not walkers:
            break
        kept = []
        for j, u in enumerate(gen.random(len(walkers)).tolist()):
            v = here[j]
            row = rows[j][v]
            k, kmax = 0, last[v]
            while k < kmax and u > row[k]:
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
    capped = np.array(walkers, dtype=np.int64)
    pos[capped] = here
    return pos, left, capped


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
    if replicas < 1:
        raise PreconditionError("at least one replica required")
    cg = build_cylinder_graph(spec)
    g = cg.graph
    delta = cg.outside
    right_mask = np.zeros(g.n_vertices, dtype=bool)
    right_mask[cg.right_face] = True
    absorbing = np.zeros(g.n_vertices, dtype=bool)
    absorbing[delta] = True

    def run_chunk(gen: np.random.Generator, size: int):
        probs = sample_environment_batch(g, cg.weights, gen, size)
        _, left, _ = _walk_until_absorbed(g, probs, delta, absorbing, gen, step_cap)
        return Moments.of(right_mask[left[left >= 0]])

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


def cylinder_exit_from_origin(spec: CylinderSpec, replicas: int, rng: RngStream,
                              step_cap: int = DEFAULT_STEP_CAP,
                              workers: int = 1) -> ExperimentResult:
    """Probability of reaching abscissa L before abscissa -1 on the plain
    cylinder, starting at the origin.

    Estimates E[P_o(T_L < T-tilde_{-1})], which is at least 1 - beta_1/alpha_1.
    Replicas that hit the step cap count as failures, so the estimate is a
    conservative lower bound.
    """
    if replicas < 1:
        raise PreconditionError("at least one replica required")
    lat = spec.lattice
    if lat.alpha(1) <= lat.beta(1):
        raise PreconditionError(
            f"requires alpha_1 > beta_1 (got alpha_1={lat.alpha(1)}, beta_1={lat.beta(1)})"
        )
    band = build_cylinder_band(lat, spec.N, spec.L)
    g = band.graph
    right_mask = np.zeros(g.n_vertices, dtype=bool)
    right_mask[band.right_absorbing] = True
    absorbing = right_mask.copy()
    absorbing[band.left_absorbing] = True

    def run_chunk(gen: np.random.Generator, size: int):
        probs = sample_environment_batch(g, band.weights, gen, size)
        pos, _, capped = _walk_until_absorbed(g, probs, band.origin, absorbing, gen, step_cap)
        return Moments.of(right_mask[pos]), capped.size

    chunks = run_chunked(run_chunk, replicas, rng, workers)
    right = sum((m for m, _ in chunks), Moments())
    truncated = sum(t for _, t in chunks)
    return ExperimentResult(
        experiment="cylinder-exit",
        params={"alpha": list(lat.weights), "N": spec.N, "L": spec.L,
                "steps": step_cap},
        estimate=float(right.mean),
        standard_error=float(right.standard_error),
        replicas=replicas,
        truncated=truncated,
        undecided=truncated,
        seed=rng.seed,
    )


# Stride of the integer site key x_1 + x_2 S + x_3 S^2 + ...: keys stay
# distinct while every coordinate is below S/2 in magnitude, which no walk
# shorter than 2^61 steps can break.
_SITE_STRIDE = 1 << 62


class _UrnWalk:
    """Walk from the origin of Z^d under the annealed law of the Dirichlet
    environment, run as the oriented-edge linearly reinforced walk.

    From site x the walk steps along direction i (weight order +e_1, -e_1,
    +e_2, ...) with probability (w_i + N(x,i)) / (sum_j w_j + N(x)), where
    N(x,i) counts its earlier steps from x along i and N(x) its earlier
    departures from x.  Only visited sites hold counts.  `x1` is the current
    abscissa, `top` its running maximum and `steps` the steps taken so far.
    """

    def __init__(self, lattice: LatticeSpec, uniforms):
        w = list(lattice.weights)
        self._fresh = w + [sum(w)]  # per site: w_i + N(x,i) for each i, then the total
        self._key_moves = []
        self._dx = []
        for axis in range(lattice.dimension):
            for sign in (1, -1):
                self._key_moves.append(sign * _SITE_STRIDE ** axis)
                self._dx.append(sign if axis == 0 else 0)
        self._sites = {}
        self._uniforms = uniforms
        self._key = 0
        self.x1 = self.top = self.steps = 0

    def run(self, max_steps: int, lo=-math.inf, hi=math.inf):
        """Step until `max_steps` steps in all, or until the abscissa leaves
        the open band (lo, hi)."""
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
    if replicas < 1:
        raise PreconditionError("at least one replica required")
    if lattice.alpha(1) <= lattice.beta(1):
        raise PreconditionError(
            f"requires alpha_1 > beta_1 (got alpha_1={lattice.alpha(1)}, "
            f"beta_1={lattice.beta(1)})"
        )
    levels = [int(L) for L in levels]
    if not levels or any(L < 1 for L in levels):
        raise PreconditionError("levels must be positive integers")
    lmax = max(levels)

    def run_chunk(gen: np.random.Generator, size: int):
        uniforms = block_uniforms(gen)
        maxima = np.empty(size, dtype=np.int64)
        capped = np.empty(size, dtype=bool)
        for i in range(size):
            walk = _UrnWalk(lattice, uniforms)
            walk.run(step_cap, -1, lmax)
            maxima[i] = walk.top
            capped[i] = walk.x1 >= 0 and walk.top < lmax
        reached = maxima[:, None] >= np.array(levels)
        return Moments.of(reached), int(capped.sum()), (capped[:, None] & ~reached).sum(axis=0)

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


def velocity_probe(lattice: LatticeSpec, horizons, replicas: int, rng: RngStream,
                   workers: int = 1):
    """Estimate E[X_n . e_1] / n at each horizon n.

    One walk per replica runs to the largest horizon and its abscissa is read
    off at each checkpoint, so the per-horizon estimates are coupled.  No
    stopping rule applies; walks always complete, so nothing is truncated.
    """
    if replicas < 1:
        raise PreconditionError("at least one replica required")
    horizons = sorted(int(n) for n in horizons)
    if not horizons or horizons[0] < 1:
        raise PreconditionError("horizons must be positive integers")

    def run_chunk(gen: np.random.Generator, size: int):
        uniforms = block_uniforms(gen)
        x1 = np.empty((size, len(horizons)))
        for i in range(size):
            walk = _UrnWalk(lattice, uniforms)
            for j, n in enumerate(horizons):
                walk.run(n)
                x1[i, j] = walk.x1
        return Moments.of(x1)

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
    if replicas < 2:
        raise PreconditionError("at least two replicas required")
    if L < 1:
        raise PreconditionError("L must be >= 1")
    a1, b1 = lattice.alpha(1), lattice.beta(1)

    def run_chunk(gen: np.random.Generator, size: int):
        p = gen.beta(a1, b1, size=(size, L))
        rho = (1.0 - p) / p
        return Moments.of(1.0 / (1.0 + np.cumprod(rho, axis=1).sum(axis=1)))

    h = sum(run_chunked(run_chunk, replicas, rng, workers), Moments())
    return ExperimentResult(
        experiment="ruin-oracle",
        params={"alpha": list(lattice.weights), "L": L},
        estimate=float(h.mean),
        standard_error=float(h.standard_error),
        replicas=replicas,
        seed=rng.seed,
    )
