import bisect
import collections
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rwre.environment
from rwre import (
    CylinderSpec,
    DirectedGraph,
    Environment,
    ExperimentResult,
    LatticeSpec,
    PreconditionError,
    RngStream,
    StoppingRule,
    Trajectory,
    WeightAssignment,
    annealed_path_probability_exact,
    build_cylinder_band,
    build_cylinder_graph,
    build_torus,
    cylinder_delta_exit,
    cylinder_exit_from_origin,
    expected_exit_probability,
    lattice_transience,
    quenched_ruin_probability,
    quenched_walk,
    ruin_exit_probability,
    sample_environment_batch,
    sample_environment,
    trap_condition,
    velocity_probe,
)
from rwre.experiments import (
    _PAIR_SKIP,
    _SCALAR_TAIL,
    _UrnWalk,
    _beta_geometric,
    _fold_table,
    _pair_run,
    _ruin,
    _sample_table,
    _transience_chunk,
    _velocity_chunk,
    _walk_until_absorbed,
)
from rwre.parallel import CHUNK_REPLICAS, Moments, chunk_sizes
from rwre.rng import block_uniforms
from common import beta_cdf, ks_statistic, shuffled_edges, urn_exit_bracket


def lat_2d(*weights):
    return LatticeSpec(tuple(weights))


def test_expected_exit_probability_values():
    assert expected_exit_probability(LatticeSpec((2.0, 1.0))) == pytest.approx(0.5)
    assert expected_exit_probability(lat_2d(3.0, 1.0, 0.7, 0.7)) == pytest.approx(2 / 3)


def test_experiment_result_record_order():
    res = ExperimentResult("demo", {"L": 2}, 0.5, 0.01, 100, seed=7)
    rec = res.to_record()
    assert list(rec.keys()) == [
        "experiment", "params", "estimate", "se", "replicas",
        "truncated", "undecided", "seed", "wall_time_s",
    ]
    assert rec["wall_time_s"] is None
    with pytest.raises(ValueError):
        ExperimentResult("demo", {}, 0.5, 0.01, replicas=4, truncated=5)


@pytest.mark.parametrize("truncated, undecided", [(1, 5), (0, 1), (3, -1), (-1, -1)])
def test_experiment_result_undecided_within_truncated(truncated, undecided):
    # undecided replicas are a subset of the truncated ones
    with pytest.raises(ValueError):
        ExperimentResult("x", {}, 0.5, 0.1, 10, truncated=truncated, undecided=undecided)
    ExperimentResult("x", {}, 0.5, 0.1, 10, truncated=10, undecided=10)


def test_delta_exit_matches_exact_expectation():
    spec = CylinderSpec(N=2, L=2, lattice=lat_2d(2.0, 1.0, 1.0, 1.0))
    res = cylinder_delta_exit(spec, 4000, RngStream(60))
    assert res.truncated == 0
    assert abs(res.estimate - 0.5) <= 3 * res.standard_error
    assert res.experiment == "cylinder-delta"
    assert res.seed == 60


def test_delta_exit_matches_exact_expectation_in_three_dimensions():
    spec = CylinderSpec(N=2, L=2, lattice=lat_2d(2.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    res = cylinder_delta_exit(spec, 40_000, RngStream(86))
    assert res.truncated == 0
    assert abs(res.estimate - 0.5) <= 3 * res.standard_error


def test_delta_exit_other_weights_and_shape():
    spec = CylinderSpec(N=1, L=3, lattice=lat_2d(3.0, 1.0, 0.5, 0.5))
    res = cylinder_delta_exit(spec, 4000, RngStream(61))
    assert abs(res.estimate - 2 / 3) <= 3 * res.standard_error


def test_delta_exit_one_dimensional():
    spec = CylinderSpec(N=1, L=4, lattice=LatticeSpec((2.0, 1.0)))
    res = cylinder_delta_exit(spec, 4000, RngStream(62))
    assert abs(res.estimate - 0.5) <= 3 * res.standard_error
    # a d = 1 cylinder has no transverse torus, so N other than 1 is refused
    # rather than recorded beside the estimate of N = 1
    for run in (cylinder_delta_exit, cylinder_exit_from_origin):
        with pytest.raises(PreconditionError, match="N must be 1"):
            run(CylinderSpec(N=3, L=4, lattice=LatticeSpec((2.0, 1.0))), 100, RngStream(62))


def test_delta_exit_requires_drift():
    spec = CylinderSpec(N=2, L=2, lattice=lat_2d(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(PreconditionError):
        cylinder_delta_exit(spec, 100, RngStream(63))
    good = CylinderSpec(N=2, L=2, lattice=lat_2d(2.0, 1.0, 1.0, 1.0))
    with pytest.raises(PreconditionError):
        cylinder_delta_exit(good, 0, RngStream(63))


def _delta_bracket(weights, N, L, steps, right_weight=None):
    """`urn_exit_bracket` of the right-face return on the augmented
    cylinder, its right-face edges reweighted to `right_weight` if given."""
    cg = build_cylinder_graph(CylinderSpec(N, L, LatticeSpec(weights)))
    g, w = cg.graph, cg.weights
    absorbing = np.zeros(g.n_vertices, dtype=bool)
    absorbing[cg.outside] = True
    right = np.isin(g.tails, cg.right_face) & (g.heads == cg.outside)
    if right_weight is not None:
        w = WeightAssignment(np.where(right, right_weight, w.values), g)
    return urn_exit_bracket(w, cg.outside, absorbing, right, steps)


@pytest.mark.parametrize("weights, N, L, steps, width", [
    ((2.0, 1.0), 1, 1, 800, 2e-5),
    ((2.0, 1.0), 1, 2, 400, 5e-4),
    ((2.0, 1.0), 1, 3, 120, 1e-2),
    ((2.0, 1.0, 1.0, 1.0), 1, 1, 24, 0.1),
])
def test_delta_exit_bracket_contains_the_exact_expectation(weights, N, L, steps, width):
    # the exact urn-state bracket, with no seed: 1 - beta_1/alpha_1 lies
    # inside it at every step count, and it is narrow enough to have power
    lo, hi = _delta_bracket(weights, N, L, steps)
    assert lo <= expected_exit_probability(LatticeSpec(weights)) <= hi
    assert 0 < hi - lo < width


def test_delta_exit_bracket_excludes_a_wrong_right_face_weight():
    # right-face edges weighted alpha_1 instead of alpha_1 - beta_1 break
    # the null divergence, and the bracket moves off 1 - beta_1/alpha_1
    lo, hi = _delta_bracket((2.0, 1.0), 1, 2, 400, right_weight=2.0)
    assert lo > 0.5 + 100 * (hi - lo)


def test_delta_exit_truncation_bookkeeping():
    # a one-step cap cannot see any return, so every replica is truncated,
    # stays out of the estimate, and is reported undecided
    spec = CylinderSpec(N=2, L=2, lattice=lat_2d(2.0, 1.0, 1.0, 1.0))
    res = cylinder_delta_exit(spec, 50, RngStream(64), step_cap=1)
    assert math.isnan(res.estimate)
    assert res.truncated == 50 and res.undecided == 50
    assert res.standard_error == 0.0


def _lockstep_reference(g, probs, start, absorbing, gen, step_cap):
    """Every step in numpy lockstep, however few walkers remain: the kernel
    that the two-phase `_walk_until_absorbed` must reproduce bit for bit.
    Also returns (active walkers, walkers absorbed) per step."""
    # cumulative rows padded to the largest degree, zero-filled past each
    # degree, with picks clamped to the last real out-edge; slot j of v is
    # out-edge j of v, and the padding repeats v's last out-edge
    deg = g.out_degrees
    slot = np.minimum(np.arange(deg.max()), deg[:, None] - 1)
    pad_eid = g.out_edge_ids[g.out_offsets[:-1, None] + slot]
    pad_head = g.heads[pad_eid]
    live = np.arange(pad_eid.shape[1]) < deg[:, None]
    cum = np.cumsum(np.where(live, probs[:, pad_eid], 0.0), axis=-1)
    size = probs.shape[0]
    pos = np.full(size, start, dtype=np.int64)
    left = np.full(size, -1, dtype=np.int64)
    active = np.arange(size)
    trace = []
    for _ in range(step_cap):
        if active.size == 0:
            break
        u = gen.random(active.size)
        here = pos[active]
        k = np.sum(u[:, None] >= cum[active, here], axis=1)
        nxt = pad_head[here, np.minimum(k, deg[here] - 1)]
        pos[active] = nxt
        done = absorbing[nxt]
        trace.append((active.size, int(done.sum())))
        if done.any():
            left[active[done]] = here[done]
            active = active[~done]
    return pos, left, active, trace


@pytest.mark.parametrize("weights, N, L, replicas, cap, seed, case", [
    # stragglers cross into the scalar phase and the cap stops a few there
    ((2.0, 1.0, 1.0, 1.0), 4, 5, 3000, 300, 1, "cap in tail"),
    # every walker is absorbed, the last ones in the scalar phase
    ((2.0, 1.0, 1.0, 1.0), 4, 5, 3000, 100_000, 1, "all absorbed"),
    # fewer walkers than the switch size: scalar from the first step, NaN rows
    ((0.002, 0.001, 0.001, 0.001), 2, 4, 40, 200, 2, "nan rows"),
    # d = 3: the outside vertex has degree 16 and every other vertex 6, so
    # step one makes 15 compares and every later step 5
    ((2.0, 1.0, 1.0, 1.0, 1.0, 1.0), 4, 2, 3000, 100_000, 3, "mixed degrees"),
    # edge ids permuted, so a vertex's out-edges are not adjacent ids and
    # slot k of v is not edge out_offsets[v] + k
    ((2.0, 1.0, 1.0, 1.0), 3, 3, 3000, 100_000, 4, "shuffled ids"),
])
def test_walk_kernel_matches_pure_lockstep(weights, N, L, replicas, cap, seed, case):
    cg = build_cylinder_graph(CylinderSpec(N=N, L=L, lattice=LatticeSpec(weights)))
    g, w = cg.graph, cg.weights
    if case == "shuffled ids":
        g, w = shuffled_edges(g, w, seed)
    absorbing = np.zeros(g.n_vertices, dtype=bool)
    absorbing[cg.outside] = True
    with np.errstate(invalid="ignore"):
        probs = sample_environment_batch(g, w, RngStream(seed).generator(), replicas)
    gen, ref_gen = RngStream(seed + 100).generator(), RngStream(seed + 100).generator()
    table = _fold_table(g, [probs], replicas)
    taken = _walk_until_absorbed(g, table, cg.outside, absorbing, gen, cap)
    # the walkers the cap stopped are those never absorbed
    capped = np.flatnonzero(taken < 0)
    ref_pos, ref_left, ref_capped, trace = _lockstep_reference(
        g, probs, cg.outside, absorbing, ref_gen, cap)
    np.testing.assert_array_equal(capped, ref_capped)
    # the edge each absorbed walker took joins the vertex it left to its final one
    ended = taken >= 0
    np.testing.assert_array_equal(g.heads[taken[ended]], ref_pos[ended])
    np.testing.assert_array_equal(g.tails[taken[ended]], ref_left[ended])
    assert gen.random(4).tolist() == ref_gen.random(4).tolist()
    # the case really exercises what it names
    tail = [absorbed for active, absorbed in trace if active <= _SCALAR_TAIL]
    assert max(tail) >= 2
    if case == "cap in tail":
        assert 0 < capped.size <= _SCALAR_TAIL and len(trace) == cap
    elif case == "all absorbed":
        assert capped.size == 0
    elif case == "nan rows":
        assert np.isnan(probs).any()
    elif case == "mixed degrees":
        assert capped.size == 0
        assert sorted(set(g.out_degrees.tolist())) == [6, 16]
    else:
        assert capped.size == 0
        assert not np.array_equal(g.out_edge_ids, np.arange(g.n_edges))
        assert not np.array_equal(g.heads[g.out_edge_ids], g.heads)


class _FixedUniforms:
    """Generator stand-in whose every `random(n)` returns n copies of u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        return np.full(n, self.u)


@pytest.mark.parametrize("walkers, absorbing_start", [
    pytest.param(_SCALAR_TAIL + 12, False, id=str(_SCALAR_TAIL + 12)),
    pytest.param(3, False, id="3"),
    pytest.param(_SCALAR_TAIL + 12, True, id="start-table"),
    pytest.param(3, True, id="start-table-3"),
])
@pytest.mark.parametrize("row, u, edge", [
    ((0.0, 1.0), 0.0, 1),  # a uniform of 0.0 never crosses an edge of probability 0
    ((0.5, 0.5), 0.5, 1),  # a uniform equal to a cumulative sum moves past that slot
    ((0.5, 0.5), 0.25, 0),
    ((np.nan, np.nan), 0.5, 0),  # a NaN row takes edge 0
])
def test_walk_kernel_takes_first_slot_whose_cumulative_exceeds_u(walkers, absorbing_start,
                                                                 row, u, edge):
    # vertex 0 sends edge 0 to vertex 1 and edge 1 to vertex 2, both absorbing;
    # 60 walkers run the lockstep phase, 3 the scalar tail; the start-table
    # cases make vertex 0 an absorbing start, whose cells a walk reads only on
    # step one
    g = DirectedGraph(3, [(0, 1), (0, 2), (1, 1), (2, 2)])
    probs = np.tile([*row, 1.0, 1.0], (walkers, 1))
    absorbing = np.array([absorbing_start, True, True])
    table = _fold_table(g, [probs], walkers)
    taken = _walk_until_absorbed(g, table, 0, absorbing, _FixedUniforms(u), 5)
    assert taken.tolist() == [edge] * walkers
    # edges 0 and 1 are parallel twins into one absorbing vertex, which
    # only the edge id tells apart
    twins = DirectedGraph(2, [(0, 1), (0, 1), (1, 1)])
    table = _fold_table(twins, [np.tile([*row, 1.0], (walkers, 1))], walkers)
    taken = _walk_until_absorbed(twins, table, 0, np.array([absorbing_start, True]),
                                 _FixedUniforms(u), 5)
    assert taken.tolist() == [edge] * walkers
    # quenched_walk, which the tie rule is shared with, agrees on finite rows
    if not np.isnan(row[0]):
        env = Environment(g, probs[0], validate=False)
        stop = StoppingRule(target=g.head_list[edge], max_steps=1)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rwre.environment, "block_uniforms", lambda gen: itertools.repeat(u))
            traj, _ = quenched_walk(env, 0, stop, RngStream(0))
        assert traj.edges == [edge]


@pytest.mark.parametrize("walkers", [_SCALAR_TAIL + 12, 3])
def test_walk_kernel_requires_one_out_degree_where_walks_go_on(walkers):
    # vertex 0 has two out-edges and vertex 1 one, so a walk may go on from
    # vertices of different out-degrees unless vertex 1 absorbs
    g = DirectedGraph(3, [(0, 1), (0, 2), (1, 2), (2, 2)])
    table = _fold_table(g, [np.full((walkers, 4), 0.5)], walkers)
    absorbing = np.array([False, False, True])
    with pytest.raises(ValueError, match="differ in out-degree"):
        _walk_until_absorbed(g, table, 0, absorbing, RngStream(0).generator(), 5)
    absorbing[1] = True
    taken = _walk_until_absorbed(g, table, 0, absorbing, _FixedUniforms(0.75), 5)
    assert taken.tolist() == [g.find_edge(0, 2)] * walkers


def _packed_table(g, probs):
    """The cumulative table of a chunk at once, from its whole (size,
    n_edges) probability matrix: the one-shot fold that blocked building
    must equal value for value.  Vertex by vertex, `np.cumsum` of the
    probabilities of its out-slots but the last."""
    return np.concatenate([np.cumsum(probs.take(g.out_edges(v)[:-1], axis=1), axis=1)
                           for v in range(g.n_vertices)], axis=1)


@pytest.mark.parametrize("weights, N, L, size, block, seed, case", [
    # a vertex's out-edges are not adjacent ids
    ((2.0, 1.0, 1.0, 1.0), 3, 3, 100, 7, 4, "shuffled ids"),
    # rows whose Gamma draws all underflow are NaN
    ((0.002, 0.001, 0.001, 0.001), 2, 4, 100, 7, 2, "nan rows"),
    # the band of the cylinder-exit benchmark at the default block size,
    # whose last block is short
    ((2.0, 1.0, 1.0, 1.0), 4, 8, 3000, None, 5, "ragged blocks"),
    # d = 3: the start (outside) vertex stores 15 slots, every other vertex 5
    ((2.0, 1.0, 1.0, 1.0, 1.0, 1.0), 4, 2, 100, 7, 3, "start table"),
])
def test_blocked_thresholds_equal_one_shot_columns(monkeypatch, weights, N, L, size, block,
                                                   seed, case):
    spec = CylinderSpec(N=N, L=L, lattice=LatticeSpec(weights))
    if case == "ragged blocks":
        band = build_cylinder_band(spec)
        g, w = band.graph, band.weights
        block = rwre.experiments._BLOCK_BYTES // (8 * g.n_edges)
    else:
        cg = build_cylinder_graph(spec)
        g, w = cg.graph, cg.weights
        if case == "shuffled ids":
            g, w = shuffled_edges(g, w, seed)
        monkeypatch.setattr(rwre.experiments, "_BLOCK_BYTES", 8 * g.n_edges * block)
    assert size > block and size % block
    gen, ref_gen = RngStream(seed).generator(), RngStream(seed).generator()
    with np.errstate(invalid="ignore"):
        got = _sample_table(g, w, gen, size)
        probs = sample_environment_batch(g, w, ref_gen, size)
    ref = _packed_table(g, probs)
    assert got.shape == ref.shape == (size, g.n_edges - g.n_vertices)
    np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)
    if case == "start table":
        assert g.out_degrees[cg.outside] == 16
    if case == "nan rows":
        assert np.isnan(probs).any()


def test_band_chunk_holds_one_block_of_environments():
    # one 8192-replica chunk on the N=4, L=8 band (40 vertices, 136 edges):
    # its (8192, 96) cumulative table takes 6.3 MB and one block of
    # environments about 1 MB more (9.4 MB peak), while sampling all 8192
    # environments in one block peaks at 27.5 MB
    band = build_cylinder_band(CylinderSpec(N=4, L=8, lattice=lat_2d(2.0, 1.0, 1.0, 1.0)))
    absorbing = np.zeros(band.graph.n_vertices, dtype=bool)
    absorbing[band.left_absorbing] = True
    absorbing[band.right_absorbing] = True
    gen = RngStream(67).generator()
    tracemalloc.start()
    try:
        rwre.experiments._exit_chunk(band.graph, band.weights, band.origin, absorbing, 100_000,
                                     gen, CHUNK_REPLICAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13e6


def test_origin_exit_lower_bound():
    spec = CylinderSpec(N=2, L=1, lattice=lat_2d(2.0, 1.0, 1.0, 1.0))
    res = cylinder_exit_from_origin(spec, 4000, RngStream(65))
    assert res.estimate >= 0.5 - 3 * res.standard_error
    assert res.experiment == "cylinder-exit"
    assert res.truncated == 0


def test_origin_exit_one_dimensional_single_site():
    # with L = 1 in d = 1 the exit probability is the Beta(2,1) mean 2/3
    spec = CylinderSpec(N=1, L=1, lattice=LatticeSpec((2.0, 1.0)))
    res = cylinder_exit_from_origin(spec, 10_000, RngStream(66))
    assert abs(res.estimate - 2 / 3) <= 3 * res.standard_error


def test_origin_exit_matches_ruin_oracle():
    lat = LatticeSpec((2.0, 1.0))
    spec = CylinderSpec(N=1, L=4, lattice=lat)
    walk = cylinder_exit_from_origin(spec, 20_000, RngStream(67))
    oracle = ruin_exit_probability(lat, 4, 20_000, RngStream(68))
    combined = math.hypot(walk.standard_error, oracle.standard_error)
    assert abs(walk.estimate - oracle.estimate) <= 3 * combined


def test_ruin_standard_error_is_two_pass_of_the_same_draws():
    # At alpha = (1e9, 1) every quenched exit probability lies within 1e-8
    # of 1, so a sum-of-squares variance cancels to noise (it read 13x too
    # large).  The pooled chunk moments must match the two-pass SE of the
    # very draws the oracle made, and the estimate the plain ordered fold.
    lat = LatticeSpec((1e9, 1.0))
    res = ruin_exit_probability(lat, 4, 20_000, RngStream(3))
    chunks = []
    for c, size in enumerate(chunk_sizes(20_000)):
        p = RngStream(3, c).generator().beta(1e9, 1.0, size=(size, 4))
        rho = (1.0 - p) / p
        chunks.append(1.0 / (1.0 + np.cumprod(rho, axis=1).sum(axis=1)))
    h = np.concatenate(chunks)
    assert res.estimate == sum(c.sum() for c in chunks) / h.size
    two_pass = h.std(ddof=1) / math.sqrt(h.size)
    assert res.standard_error == pytest.approx(two_pass, rel=1e-6)
    assert res.standard_error == pytest.approx(7.1522868706e-12, rel=1e-6)


def test_origin_exit_requires_drift():
    spec = CylinderSpec(N=2, L=2, lattice=lat_2d(1.0, 1.0, 1.0, 1.0))
    with pytest.raises(PreconditionError, match="alpha_1 > beta_1"):
        cylinder_exit_from_origin(spec, 100, RngStream(69))


def test_transience_bound_and_coupled_monotonicity():
    results = lattice_transience(lat_2d(2.0, 1.0, 1.0, 1.0), [1, 2], 400,
                                 10_000, RngStream(70))
    by_level = {r.params["L"]: r for r in results}
    for r in results:
        assert r.estimate >= 0.5 - 3 * r.standard_error
        assert r.experiment == "transience"
    # one walk decides both levels, so the level-1 count dominates exactly
    assert by_level[1].estimate >= by_level[2].estimate


def test_transience_one_dimensional_matches_ruin_oracle():
    lat = LatticeSpec((2.0, 1.0))
    res = lattice_transience(lat, [3], 3000, 100_000, RngStream(71))[0]
    oracle = ruin_exit_probability(lat, 3, 20_000, RngStream(72))
    combined = math.hypot(res.standard_error, oracle.standard_error)
    assert abs(res.estimate - oracle.estimate) <= 3 * combined


def test_lattice_urn_walk_law_matches_exact_formula():
    # The lattice walker's law over its first 4 steps in d=1 against the exact
    # annealed formula on a 9-cycle, which 4 steps cannot wrap around: an
    # independent check of the urn update.  All 16 paths are tested at once,
    # so the acceptance suite's multiple-testing policy applies: at most one
    # path beyond |z| = 3 and none beyond 6.
    lat = LatticeSpec((2.0, 1.0))
    g, w = build_torus(lat, [9])
    n = 40_000
    walk = _UrnWalk(lat, block_uniforms(RngStream(85).generator()), 4)
    at, _ = walk.walks(n, [1, 2, 3, 4])
    counts = collections.Counter(tuple(at[i:i + 4]) for i in range(0, 4 * n, 4))
    zs = []
    total = 0.0
    for signs in itertools.product((1, -1), repeat=4):
        xs = tuple(itertools.accumulate(signs))
        exact = annealed_path_probability_exact(
            w, Trajectory.from_vertices(g, [0] + [x % 9 for x in xs]))
        total += exact
        freq = counts.get(xs, 0) / n
        zs.append((freq - exact) / math.sqrt(exact * (1.0 - exact) / n))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert sum(counts.values()) == n and len(counts) == 16
    assert max(abs(z) for z in zs) <= 6.0
    assert sum(abs(z) > 3.0 for z in zs) <= 1


class _SiteRows(list):
    """An `_UrnWalk`'s fresh row that keeps each copy it hands out: the rows
    of the sites its walks visit, in the order they first reach them, with
    the counts the walks leave there."""

    def __init__(self, row):
        super().__init__(row)
        self.copies = []

    def __getitem__(self, i):
        got = super().__getitem__(i)
        if isinstance(i, slice):
            self.copies.append(got)
        return got


def _site_rows(walk):
    """The list that the site rows of `walk`'s later walks go to."""
    walk._fresh = _SiteRows(walk._fresh)
    return walk._fresh.copies


TupleWalk = collections.namedtuple("TupleWalk", "at site top steps sites runs cut")


def _tuple_urn_walk(weights, uniforms, stops, lo=-math.inf, hi=math.inf):
    """Reference urn walk keyed by coordinate tuples, with `_UrnWalk`'s
    arithmetic: per site the weights plus counts, then their running total.
    Where `trap_condition` holds on some axis it draws back-and-forth runs
    whole on `_UrnWalk`'s rule, through `_pair_run`.  It steps on to each
    step count in `stops` in turn, or until the abscissa leaves (lo, hi),
    and each stop starts with a plain step.  Returns a `TupleWalk`: the
    abscissa at each stop, the final site, top, steps, sites visited, pair
    runs drawn, and pair runs that a stop cut short."""
    d = len(weights) // 2
    lat = LatticeSpec(weights)
    pairs = any(trap_condition(lat, i).holds for i in range(1, d + 1))
    fresh = list(weights) + [sum(weights)]
    sites = {}
    x = [0] * d
    top = steps = runs = cut = 0
    at = []

    def move(k, sign=1):
        x[k // 2] += sign if k % 2 == 0 else -sign

    def rest(row, slot):  # the sum of a row's slots but `slot`
        return sum([row[j] for j in range(2 * d) if j != slot])

    for max_steps in stops:
        came = None  # (the site the walk left last, the slot it left by)
        while steps < max_steps and lo < x[0] < hi:
            row = sites.get(tuple(x))
            if pairs and row is not None and came is not None:
                prow, k = sites[came[0]], came[1]
                if row[k ^ 1] * prow[k] >= _PAIR_SKIP * row[-1] * prow[-1]:
                    runs += 1
                    r = _pair_run(row[k ^ 1], rest(row, k ^ 1), prow[k], rest(prow, k),
                                  next(uniforms), next(uniforms), max_steps - steps)
                    here = tuple(x)
                    row[k ^ 1] += (r + 1) // 2
                    row[-1] += (r + 1) // 2
                    prow[k] += r // 2
                    prow[-1] += r // 2
                    steps += r
                    if r % 2:
                        move(k, -1)
                        came, row, k = (here, k ^ 1), prow, k ^ 1
                    if steps == max_steps:
                        cut += 1
                        break
                    t = next(uniforms) * rest(row, k ^ 1)
                    for j in [j for j in range(2 * d) if j != k ^ 1]:
                        if t < row[j]:
                            break
                        t -= row[j]
                    k = j
                    came = (tuple(x), k)
                    row[k] += 1.0
                    row[-1] += 1.0
                    move(k)
                    steps += 1
                    top = max(top, x[0])
                    continue
            row = sites.setdefault(tuple(x), fresh[:])
            t = next(uniforms) * row[-1]
            k = 0
            while k < 2 * d - 1 and t >= row[k]:
                t -= row[k]
                k += 1
            came = (tuple(x), k)
            row[k] += 1.0
            row[-1] += 1.0
            move(k)
            steps += 1
            top = max(top, x[0])
        at.append(x[0])
    return TupleWalk(at, tuple(x), top, steps, len(sites), runs, cut)


TRAP_WEIGHTS = (0.06, 0.05, 0.05, 0.05, 0.04, 0.06)
NO_BAND = (-math.inf, math.inf)


@pytest.mark.parametrize("d, bias", [(d, bias) for d in (1, 2, 3)
                                     for bias in ("trap", "drift", *range(2 * d))])
def test_urn_walk_site_keys_match_a_tuple_keyed_walk(d, bias):
    # trap weights revisit sites often, and there both walks draw runs
    # across an edge pair whole; a drift along +e_1 with the other axes free
    # carries the walk far along e_1 while it wanders across, where a
    # too-small stride would give two visited sites one key; weights of 1000
    # along one direction and 0.001 elsewhere drive that coordinate to
    # +-max_steps, the edge of the key stride
    if bias == "trap":
        weights = TRAP_WEIGHTS[:2 * d]
    elif bias == "drift":
        weights = (4.0, 0.001) + (1.0,) * (2 * d - 2)
    else:
        weights = tuple(1000.0 if i == bias else 0.001 for i in range(2 * d))
    max_steps = 60
    lat = LatticeSpec(weights)
    walk = _UrnWalk(lat, block_uniforms(RngStream(90 + d).generator()), max_steps)
    uniforms = block_uniforms(RngStream(90 + d).generator())
    rows = _site_rows(walk)
    reached_edge = False
    runs = 0
    for replica in range(40):
        rows.clear()
        band = (-1, 8) if replica % 2 else (-math.inf, math.inf)
        at, tops = walk.walks(1, [max_steps], *band)
        ref = _tuple_urn_walk(weights, uniforms, [max_steps], *band)
        # each step adds 1 to the total of the row it leaves
        steps = round(sum(row[-1] for row in rows) - len(rows) * sum(weights))
        assert (at[0], tops[0], steps, len(rows)) == (ref.at[0], ref.top, ref.steps, ref.sites)
        reached_edge |= max(map(abs, ref.site)) == max_steps
        runs += ref.runs
    if isinstance(bias, int):
        assert reached_edge
    # pair runs are drawn exactly at the trap weights
    assert (runs > 0) == (bias == "trap")
    # both walks read the same number of uniforms
    assert next(walk._uniforms) == next(uniforms)


@pytest.mark.parametrize("weights, stops, band", [
    ((2.0, 1.0), [1, 3, 20], (-1, 5)),                  # d=1 drift, both band exits
    ((4.0, 0.001, 1.0, 1.0), [2, 40], NO_BAND),         # d=2 drift along +e_1
    ((1.1, 1.0, 1.0, 1.0), [300], (-4, 5)),             # weak drift in a band
    ((0.001, 0.001, 1000.0, 0.001), [5, 60], NO_BAND),  # bias along +e_2
    (TRAP_WEIGHTS[:2], [1, 200, 2000], NO_BAND),        # trap weights, d=1
    (TRAP_WEIGHTS[:4], [1, 200, 2000], NO_BAND),        # trap weights: runs cut at stops
    (TRAP_WEIGHTS[:4], [2000], (-1, 6)),                # trap weights in a band
])
def test_one_walks_call_equals_one_call_per_walk(weights, stops, band):
    # every walk starts at the origin with no counts, so `count` walks in one
    # call give what `count` one-walk calls on the same stream give
    lat = LatticeSpec(weights)
    count = 40
    whole = _UrnWalk(lat, block_uniforms(RngStream(98).generator()), stops[-1])
    single = _UrnWalk(lat, block_uniforms(RngStream(98).generator()), stops[-1])
    at, tops = whole.walks(count, stops, *band)
    each = [single.walks(1, stops, *band) for _ in range(count)]
    assert at == [x for a, _ in each for x in a]
    assert tops == [t for _, ts in each for t in ts]
    assert next(whole._uniforms) == next(single._uniforms)


def _same_moments(a, b):
    return a.n == b.n and np.array_equal(a.total, b.total) and np.array_equal(a.m2, b.m2)


@pytest.mark.parametrize("weights, stops, size", [
    ((2.0, 1.0), [1, 3, 20], 300),                 # d=1 drift
    ((4.0, 0.001, 1.0, 1.0), [1, 2, 9, 40], 200),  # d=2 drift along +e_1
    ((0.001, 0.001, 1000.0, 0.001), [5, 60], 50),  # bias along +e_2, to the key stride
    (TRAP_WEIGHTS[:4], [1, 5, 37, 200], 100),      # trap weights: pair runs cut at stops
])
def test_velocity_chunk_matches_tuple_keyed_walks(weights, stops, size, monkeypatch):
    # one chunk's moments, walk by walk against the reference, bit for bit,
    # and both read the same uniforms in the same order
    made = []

    def recording(gen):
        made.append(block_uniforms(gen))
        return made[-1]

    monkeypatch.setattr(rwre.experiments, "block_uniforms", recording)
    got = _velocity_chunk(LatticeSpec(weights), stops, RngStream(96).generator(), size)
    uniforms = block_uniforms(RngStream(96).generator())
    refs = [_tuple_urn_walk(weights, uniforms, stops) for _ in range(size)]
    want = Moments.of(np.array([ref.at for ref in refs], dtype=np.float64))
    assert _same_moments(got, want)
    assert next(made[0]) == next(uniforms)
    assert (sum(ref.cut for ref in refs) > 0) == (weights == TRAP_WEIGHTS[:4])


@pytest.mark.parametrize("weights, levels, cap, size", [
    ((2.0, 1.0), [3, 5], 6, 400),                   # d=1: both band exits and the cap
    ((2.0, 1.0, 1.0, 1.0), [2, 5], 12, 300),        # d=2 drift
    ((1000.0, 0.001, 0.001, 0.001), [40], 30, 20),  # bias along +e_1 to the cap
    (TRAP_WEIGHTS[:4], [3, 6], 300, 150),           # trap weights, pair runs at the cap
])
def test_transience_chunk_matches_tuple_keyed_walks(weights, levels, cap, size, monkeypatch):
    # the chunk's moments, capped count and undecided counts against walks
    # of the reference in the band (-1, max(levels)) to the cap
    made = []

    def recording(gen):
        made.append(block_uniforms(gen))
        return made[-1]

    monkeypatch.setattr(rwre.experiments, "block_uniforms", recording)
    moments, capped, undecided = _transience_chunk(LatticeSpec(weights), levels, cap,
                                                   RngStream(97).generator(), size)
    uniforms = block_uniforms(RngStream(97).generator())
    lmax = max(levels)
    refs = [_tuple_urn_walk(weights, uniforms, [cap], -1, lmax) for _ in range(size)]
    reached = np.array([[ref.top >= L for L in levels] for ref in refs])
    held = np.array([ref.at[-1] >= 0 and ref.top < lmax for ref in refs])
    assert _same_moments(moments, Moments.of(reached))
    assert capped == held.sum()
    assert undecided.tolist() == (held[:, None] & ~reached).sum(axis=0).tolist()
    assert next(made[0]) == next(uniforms)
    exits = collections.Counter("low" if ref.at[-1] < 0 else "high" if ref.top >= lmax
                                else "cap" for ref in refs)
    assert exits["cap"] > 0
    if weights[0] < 1000:  # the biased walks all run to the cap
        assert exits["low"] > 0 and exits["high"] > 0


def _rising(a, g):
    return math.prod((a + i for i in range(g)), start=Fraction(1))


@pytest.mark.parametrize("weights, x_counts, y_counts, k", [
    # d=2 trap weights; x entered from y by +e_1, and by -e_2
    ((0.06, 0.05, 0.05, 0.05), (0, 2, 1, 0), (3, 0, 0, 1), 0),
    ((0.06, 0.05, 0.05, 0.05), (1, 0, 0, 4), (0, 0, 5, 2), 3),
    # d=1 at (2,1), x entered from y by -e_1
    ((2.0, 1.0), (3, 1), (0, 2), 1),
])
def test_pair_run_law_matches_the_urn_step_by_step(weights, x_counts, y_counts, k):
    # the joint law of (steps to leave the pair, end left from, slot left
    # by) up to S steps, in exact arithmetic: once as a product of urn
    # probabilities one crossing at a time, once as `_pair_run` composes it
    # from the beta-geometric laws of G_x and G_y
    S = 9
    back = k ^ 1
    x_row = [Fraction(w) + c for w, c in zip(weights, x_counts)]
    y_row = [Fraction(w) + c for w, c in zip(weights, y_counts)]
    step_law = {}
    state = [(Fraction(1), x_row, y_row, "x")]  # (probability, x's row, y's row, walker's end)
    for n in range(1, S + 1):
        state_next = []
        for p, xr, yr, end in state:
            row, slot = (xr, back) if end == "x" else (yr, k)
            tot = sum(row)
            for j in range(len(row)):
                if j != slot:
                    step_law[n, end, j] = step_law.get((n, end, j), 0) + p * row[j] / tot
            moved = row[:]
            moved[slot] += 1
            pass_on = p * row[slot] / tot
            state_next.append((pass_on, moved, yr, "y") if end == "x" else
                              (pass_on, xr, moved, "x"))
        state = state_next

    def survival(row, slot, g):  # P(G >= g) at that end
        a = row[slot]
        return _rising(a, g) / _rising(sum(row), g)

    closed_law = {}
    for r in range(S):  # r back-and-forth steps, then the leaving step
        if r % 2 == 0:
            g = r // 2
            p = ((survival(x_row, back, g) - survival(x_row, back, g + 1))
                 * survival(y_row, k, g))
            row, slot, end = x_row, back, "x"
        else:
            g = r // 2
            p = ((survival(y_row, k, g) - survival(y_row, k, g + 1))
                 * survival(x_row, back, g + 1))
            row, slot, end = y_row, k, "y"
        b = sum(row) - row[slot]
        for j in range(len(row)):
            if j != slot:
                closed_law[r + 1, end, j] = p * row[j] / b
    assert step_law == closed_law
    # the mass left past S is that of S back-and-forth steps
    assert sum(p for p, *_ in state) == 1 - sum(closed_law.values())


@pytest.mark.parametrize("a, b", [(1.06, 0.15), (2.05, 1.16), (0.05, 0.16), (5.0, 3.0),
                                  (20.0, 40.0)])
def test_beta_geometric_draw_is_the_exact_quantile(a, b):
    # G is the largest g with P(G >= g) > u; uniforms within 1e-9 of some
    # P(G >= g) may round either way and are skipped
    cap = 12
    fa, fc = Fraction(a), Fraction(a) + Fraction(b)
    survival = [_rising(fa, g) / _rising(fc, g) for g in range(cap + 1)]
    checked = 0
    for i in range(1, 2000):
        u = i / 2000
        if any(abs(u - s) <= 1e-9 for s in survival):
            continue
        exact = max(g for g in range(cap + 1) if survival[g] > u)
        assert _beta_geometric(a, b, u, cap) == exact, u
        checked += 1
    assert checked >= 1990
    assert _beta_geometric(a, b, 0.0, cap) == cap
    assert _beta_geometric(a, b, 0.5, 0) == 0


@pytest.mark.parametrize("a, b", [(1.06, 0.15), (2.05, 1.16), (0.05, 0.16), (40.0, 3.0),
                                  (100.0, 100.0)])
def test_beta_geometric_search_matches_a_running_product(a, b):
    # at g up to 20000, against log P(G >= g) summed one factor at a time;
    # uniforms within 1e-9 of a boundary in log are skipped
    n = 20_000
    logs = list(itertools.accumulate((math.log1p(-b / (a + b + i)) for i in range(n)),
                                     initial=0.0))
    rng = np.random.default_rng(3)
    checked = 0
    for t in rng.uniform(0.0, -logs[-1], 400):
        u = math.exp(-t)
        g = bisect.bisect_left([-x for x in logs], t) - 1  # the largest g with logs[g] > log u
        if min(abs(logs[g] + t), abs(logs[g + 1] + t)) <= 1e-9:
            continue
        assert _beta_geometric(a, b, u, 10**6) == g, u
        assert _beta_geometric(a, b, u, g // 2) == g // 2
        checked += 1
    assert checked >= 390


@pytest.mark.parametrize("gx, gy, left", [(0, 0, 5), (0, 3, 5), (2, 2, 9), (3, 1, 9),
                                          (4, 6, 5), (5, 9, 6), (7, 2, 4)])
def test_pair_run_is_min_of_the_two_ends(gx, gy, left):
    # a uniform inside the quantile interval of g draws g at each end
    a_x, b_x, a_y, b_y = 1.06, 0.15, 2.05, 0.16

    def inside(a, b, g):
        hi = math.exp(math.lgamma(a + g) - math.lgamma(a + b + g)
                      + math.lgamma(a + b) - math.lgamma(a))
        lo = math.exp(math.lgamma(a + g + 1) - math.lgamma(a + b + g + 1)
                      + math.lgamma(a + b) - math.lgamma(a))
        return (lo + hi) / 2

    r = _pair_run(a_x, b_x, a_y, b_y, inside(a_x, b_x, gx), inside(a_y, b_y, gy), left)
    assert r == min(2 * gx, 2 * gy + 1, left)


@pytest.mark.parametrize("left", [1, 2, 7, 8])
def test_pair_run_past_the_cap_stops_inside_the_pair(left):
    # in d=1 at weights of 1/64 the walk steps 0 -> 1 -> 0, then meets the
    # rule at 0 and draws a run; uniforms of 0.0 make it longer than any cap.
    # The weights are dyadic, so every count below is exact
    w = 1 / 64
    lat = LatticeSpec((w, w))
    assert trap_condition(lat, 1).holds
    assert ((1 + w) / (1 + 2 * w)) ** 2 >= _PAIR_SKIP
    walk = _UrnWalk(lat, iter([0.0, 0.9, 0.0, 0.0]), 2 + left)
    rows = _site_rows(walk)  # the origin's, then site 1's
    # an odd number of crossings ends at 1
    assert walk.walks(1, [2 + left]) == ([left % 2], [1])
    assert sum(row[-1] - 2 * w for row in rows) == 2 + left
    assert rows[0][0] - w == 1 + (left + 1) // 2
    assert rows[1][1] - w == 1 + left // 2
    # a later stop goes on from there, with a plain step
    walk = _UrnWalk(lat, iter([0.0, 0.9, 0.0, 0.0, 0.0]), 3 + left)
    rows = _site_rows(walk)
    assert walk.walks(1, [2 + left, 3 + left]) == ([left % 2, left % 2 + 1], [left % 2 + 1])
    assert sum(row[-1] - 2 * w for row in rows) == 3 + left


def _chi2_two_sample(xs, ys, min_count=20):
    """Two-sample chi-square statistic of homogeneity and its degrees of
    freedom, adjacent values pooled until each bin holds `min_count` of the
    two samples together."""
    cx, cy = collections.Counter(xs), collections.Counter(ys)
    bins, cur = [], [0, 0]
    for v in sorted(set(cx) | set(cy)):
        cur = [cur[0] + cx[v], cur[1] + cy[v]]
        if sum(cur) >= min_count:
            bins.append(cur)
            cur = [0, 0]
    if sum(cur):
        bins[-1] = [bins[-1][0] + cur[0], bins[-1][1] + cur[1]]
    nx, ny = len(xs), len(ys)
    stat = 0.0
    for bx, by in bins:
        ex, ey = nx * (bx + by) / (nx + ny), ny * (bx + by) / (nx + ny)
        stat += (bx - ex) ** 2 / ex + (by - ey) ** 2 / ey
    return stat, len(bins) - 1


def _chi2_quantile(df, z):
    """Wilson-Hilferty approximation of the chi-square quantile at normal
    quantile z."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize("n, walks", [(7, 10_000), (37, 8000), (200, 4000)])
def test_pair_runs_keep_the_walk_law(n, walks, monkeypatch):
    # walks drawing pair runs against walks stepping one crossing at a time,
    # at the trap weights: the abscissa and the number of sites visited
    # after n steps agree in law (two-sample chi-square, each at p = 0.001)
    lat = lat_2d(0.06, 0.05, 0.05, 0.05)

    def sample(seed):
        walk = _UrnWalk(lat, block_uniforms(RngStream(seed).generator()), n)
        rows = _site_rows(walk)
        out = []
        for _ in range(walks):
            rows.clear()
            at, _ = walk.walks(1, [n])
            out.append((at[0], len(rows)))
        return out

    skipping = sample(3300 + n)
    monkeypatch.setattr(rwre.experiments, "_PAIR_SKIP", math.inf)
    stepping = sample(3400 + n)
    for i in (0, 1):
        stat, df = _chi2_two_sample([s[i] for s in skipping], [s[i] for s in stepping])
        assert stat <= _chi2_quantile(df, 3.09), (i, stat, df)


def test_transience_undecided_accounting():
    # a tiny cap leaves most walks undecided; they count as failures and the
    # report says how many there were
    res = lattice_transience(lat_2d(2.0, 1.0, 1.0, 1.0), [8], 200, 3,
                             RngStream(73))[0]
    assert res.undecided > 0
    assert res.truncated >= res.undecided
    assert res.estimate <= 1.0 - res.undecided / res.replicas + 1e-12


def test_transience_preconditions():
    lat = lat_2d(2.0, 1.0, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        lattice_transience(lat_2d(1.0, 1.0, 1.0, 1.0), [2], 100, 100, RngStream(74))
    with pytest.raises(PreconditionError):
        lattice_transience(lat, [], 100, 100, RngStream(74))
    with pytest.raises(PreconditionError):
        lattice_transience(lat, [0], 100, 100, RngStream(74))
    with pytest.raises(PreconditionError):
        lattice_transience(lat, [2], 0, 100, RngStream(74))


def test_trap_condition_examples():
    c = trap_condition(lat_2d(0.1, 0.1, 0.1, 0.1), 1)
    assert c.value == pytest.approx(0.6, abs=1e-12)
    assert c.holds and c.slack == pytest.approx(0.4, abs=1e-12)
    c = trap_condition(lat_2d(0.05, 0.05, 0.05, 0.05), 1)
    assert c.value == pytest.approx(0.3, abs=1e-12)
    assert c.holds and c.slack == pytest.approx(0.7, abs=1e-12)
    c = trap_condition(LatticeSpec((0.2, 0.1)), 1)
    assert c.value == pytest.approx(0.3, abs=1e-12)
    assert c.holds


def test_trap_condition_fails_for_large_weights():
    c = trap_condition(lat_2d(0.3, 0.3, 0.3, 0.3), 1)
    assert c.value == pytest.approx(1.8, abs=1e-12)
    assert not c.holds and c.slack == pytest.approx(-0.8, abs=1e-12)


def test_trap_condition_boundary_and_axes():
    # value exactly 1 still holds, with zero slack
    c = trap_condition(lat_2d(0.3, 0.1, 0.1, 0.1), 2)
    assert c.value == pytest.approx(1.0, abs=1e-12) and c.holds
    c1 = trap_condition(lat_2d(0.3, 0.1, 0.1, 0.1), 1)
    assert c1.value == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(PreconditionError):
        trap_condition(lat_2d(0.1, 0.1, 0.1, 0.1), 0)
    with pytest.raises(PreconditionError):
        trap_condition(lat_2d(0.1, 0.1, 0.1, 0.1), 3)


def test_velocity_symmetric_is_null():
    res = velocity_probe(LatticeSpec((1.0, 1.0)), [100], 400, RngStream(75))[0]
    assert abs(res.estimate) <= 4 * res.standard_error
    assert res.truncated == 0


def test_velocity_ballistic_is_positive():
    res = velocity_probe(LatticeSpec((3.0, 1.0)), [200], 300, RngStream(76))[0]
    assert res.estimate - 3 * res.standard_error > 0.05


def test_velocity_horizons_sorted_and_coupled():
    results = velocity_probe(LatticeSpec((3.0, 1.0)), [300, 50], 100, RngStream(77))
    assert [r.params["horizon"] for r in results] == [50, 300]


def test_velocity_decays_in_trap_regime():
    # directionally transient but zero speed: the per-step displacement at
    # horizon 2000 drops well below its value at horizon 200
    lat = lat_2d(0.06, 0.05, 0.05, 0.05)
    assert trap_condition(lat, 1).holds
    early, late = velocity_probe(lat, [200, 2000], 300, RngStream(31))
    assert early.estimate > 0.0
    assert late.estimate + 3 * late.standard_error < early.estimate


def test_transience_escapes_in_trap_regime():
    # same trap weights: the walk still beats level 2 at the guaranteed rate
    lat = lat_2d(0.06, 0.05, 0.05, 0.05)
    bound = expected_exit_probability(lat)
    res = lattice_transience(lat, [2], 300, 200_000, RngStream(32))[0]
    assert res.estimate >= bound - 3 * res.standard_error
    assert res.undecided <= 0.05 * res.replicas


def test_velocity_preconditions():
    lat = LatticeSpec((2.0, 1.0))
    with pytest.raises(PreconditionError):
        velocity_probe(lat, [], 100, RngStream(78))
    with pytest.raises(PreconditionError):
        velocity_probe(lat, [0], 100, RngStream(78))
    with pytest.raises(PreconditionError):
        velocity_probe(lat, [10], 0, RngStream(78))


def test_quenched_ruin_examples():
    assert quenched_ruin_probability([0.5] * 4) == pytest.approx(0.2, rel=1e-14)
    assert quenched_ruin_probability([0.7]) == pytest.approx(0.7, rel=1e-14)


def test_quenched_ruin_matches_linear_solve():
    rng = np.random.default_rng(79)
    for _ in range(25):
        L = int(rng.integers(1, 8))
        p = rng.uniform(0.05, 0.95, size=L)
        # absorbing system: h(-1) = 0, h(L) = 1, h(i) = p h(i+1) + (1-p) h(i-1)
        A = np.zeros((L, L))
        b = np.zeros(L)
        for i in range(L):
            A[i, i] = 1.0
            if i + 1 < L:
                A[i, i + 1] = -p[i]
            else:
                b[i] += p[i]
            if i - 1 >= 0:
                A[i, i - 1] = -(1.0 - p[i])
        h = np.linalg.solve(A, b)
        assert quenched_ruin_probability(p) == pytest.approx(h[0], rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 120)),
              elements=st.floats(0.01, 0.99)))
def test_quenched_ruin_is_a_row_of_the_batch(p):
    batch = _ruin(p)
    for i, row in enumerate(p):
        assert quenched_ruin_probability(row) == batch[i]


def test_quenched_ruin_validation():
    with pytest.raises(PreconditionError):
        quenched_ruin_probability([])
    with pytest.raises(PreconditionError):
        quenched_ruin_probability([0.5, 1.0])
    with pytest.raises(PreconditionError):
        quenched_ruin_probability([[0.5], [0.5]])


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.5, 1.0), (0.4, 1.0), (1.0, 0.2), (1.0, 3.0),
                                  (3.0, 4.0), (0.5, 0.5)])
def test_beta_cdf_closed_forms(a, b):
    # I_x(a, 1) = x^a, I_x(1, b) = 1 - (1 - x)^b, a binomial tail at
    # integer shapes, and the arcsine law at (1/2, 1/2)
    x = np.linspace(0.0, 1.0, 401)
    if b == 1.0:
        want = x ** a
    elif a == 1.0:
        want = 1.0 - (1.0 - x) ** b
    elif a == 0.5 == b:
        want = 2.0 / math.pi * np.arcsin(np.sqrt(x))
    else:
        n = int(a + b) - 1
        want = sum(math.comb(n, j) * x ** j * (1.0 - x) ** (n - j) for j in range(int(a), n + 1))
    assert np.allclose(beta_cdf(x, a, b), want, rtol=1e-13, atol=1e-14)


def test_ks_statistic_of_an_exact_grid_and_a_shifted_one():
    # the midpoints (i - 1/2)/n sit 1/(2n) from the uniform distribution
    # function; mapped to 0.1 + 0.9 x, the first sits 0.1 + 0.45/n above
    # the empirical distribution just below it, the furthest of all
    n = 400
    grid = (np.arange(n) + 0.5) / n
    assert ks_statistic(grid, lambda x: x) == pytest.approx(0.5 / math.sqrt(n))
    assert ks_statistic(0.1 + 0.9 * grid, lambda x: x) == pytest.approx(
        math.sqrt(n) * (0.1 + 0.45 / n))


def test_ruin_oracle_single_site_mean():
    res = ruin_exit_probability(LatticeSpec((2.0, 1.0)), 1, 20_000, RngStream(80))
    assert abs(res.estimate - 2 / 3) <= 3 * res.standard_error
    assert res.experiment == "ruin-oracle"


def test_ruin_oracle_preconditions():
    with pytest.raises(PreconditionError):
        ruin_exit_probability(lat_2d(2.0, 1.0, 1.0, 1.0), 2, 1000, RngStream(81))
    with pytest.raises(PreconditionError):
        ruin_exit_probability(LatticeSpec((2.0, 1.0)), 0, 1000, RngStream(81))
    with pytest.raises(PreconditionError):
        ruin_exit_probability(LatticeSpec((2.0, 1.0)), 2, 0, RngStream(81))


def test_ruin_oracle_worker_determinism():
    a = ruin_exit_probability(LatticeSpec((2.0, 1.0)), 3, 20_000, RngStream(82), workers=1)
    b = ruin_exit_probability(LatticeSpec((2.0, 1.0)), 3, 20_000, RngStream(82), workers=3)
    assert a.estimate == b.estimate and a.standard_error == b.standard_error


def test_walk_bookkeeping_audit_band():
    # re-scan finished walks: a cap-only walk runs its whole cap, follows its
    # edges, and reports a truncation where its trajectory ends
    band = build_cylinder_band(CylinderSpec(3, 3, lat_2d(2.0, 1.0, 1.0, 1.0)))
    rule = StoppingRule(max_steps=40)
    base = RngStream(83)
    env = sample_environment(band.graph, band.weights, base.with_stream(999))
    for i in range(250):
        traj, report = quenched_walk(env, band.origin, rule, base.with_stream(i))
        traj.check_consistent(band.graph)
        assert (report.reason, report.step) == ("cap", 40)
        assert report.vertex == traj.end
        assert len(traj) == report.step


def test_walk_bookkeeping_audit_target():
    g, w = build_torus(lat_2d(2.0, 1.0, 1.0, 1.0), [3, 3])
    rule = StoppingRule(max_steps=100, target=4)
    base = RngStream(84)
    env = sample_environment(g, w, base.with_stream(998))
    for i in range(250):
        traj, report = quenched_walk(env, 0, rule, base.with_stream(i))
        if report.reason == "target":
            assert traj.end == 4 and traj.vertices.index(4, 1) == report.step
        else:
            assert report.truncated and 4 not in traj.vertices[1:]
