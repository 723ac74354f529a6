import itertools
import math

import numpy as np
import pytest

from rwre import (
    CylinderSpec,
    ExperimentResult,
    LatticeSpec,
    PreconditionError,
    RngStream,
    StoppingRule,
    Trajectory,
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
from rwre.experiments import _SCALAR_TAIL, _UrnWalk, _walk_until_absorbed
from rwre.parallel import chunk_sizes
from rwre.rng import block_uniforms


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


def test_delta_exit_matches_exact_expectation():
    spec = CylinderSpec(N=2, L=2, lattice=lat_2d(2.0, 1.0, 1.0, 1.0))
    res = cylinder_delta_exit(spec, 4000, RngStream(60))
    assert res.truncated == 0
    assert abs(res.estimate - 0.5) <= 3 * res.standard_error
    assert res.experiment == "cylinder-delta"
    assert res.seed == 60


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
    # degree, with picks clamped to the last real out-edge
    pad_eid, pad_head = g.padded_out_tables()
    deg = g.out_degrees
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
        k = np.sum(u[:, None] > cum[active, here], axis=1)
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
    # threshold slots 5 to 14 are +inf everywhere but at the outside vertex
    ((2.0, 1.0, 1.0, 1.0, 1.0, 1.0), 4, 2, 3000, 100_000, 3, "mixed degrees"),
])
def test_walk_kernel_matches_pure_lockstep(weights, N, L, replicas, cap, seed, case):
    cg = build_cylinder_graph(CylinderSpec(N=N, L=L, lattice=LatticeSpec(weights)))
    absorbing = np.zeros(cg.graph.n_vertices, dtype=bool)
    absorbing[cg.outside] = True
    with np.errstate(invalid="ignore"):
        probs = sample_environment_batch(cg.graph, cg.weights, RngStream(seed).generator(),
                                         replicas)
    gen, ref_gen = RngStream(seed + 100).generator(), RngStream(seed + 100).generator()
    pos, left = _walk_until_absorbed(cg.graph, probs, cg.outside, absorbing, gen, cap)
    # the walkers the cap stopped are those never absorbed
    capped = np.flatnonzero(left < 0)
    ref_pos, ref_left, ref_capped, trace = _lockstep_reference(
        cg.graph, probs, cg.outside, absorbing, ref_gen, cap)
    np.testing.assert_array_equal(pos, ref_pos)
    np.testing.assert_array_equal(left, ref_left)
    np.testing.assert_array_equal(capped, ref_capped)
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
    else:
        assert capped.size == 0
        assert sorted(set(cg.graph.out_degrees.tolist())) == [6, 16]


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
    counts = {}
    for _ in range(n):
        walk.restart()
        xs = []
        for step in range(1, 5):
            walk.run(step)
            xs.append(walk.x1)
        counts[tuple(xs)] = counts.get(tuple(xs), 0) + 1
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


def _tuple_urn_walk(weights, uniforms, max_steps, lo=-math.inf, hi=math.inf):
    """Reference urn walk keyed by coordinate tuples, with `_UrnWalk`'s
    arithmetic: per site the weights plus counts, then their running total.
    Returns (final site, top, steps, sites visited)."""
    d = len(weights) // 2
    fresh = list(weights) + [sum(weights)]
    sites = {}
    x = [0] * d
    top = steps = 0
    while steps < max_steps and lo < x[0] < hi:
        row = sites.setdefault(tuple(x), fresh[:])
        t = next(uniforms) * row[-1]
        k = 0
        while k < 2 * d - 1 and t >= row[k]:
            t -= row[k]
            k += 1
        row[k] += 1.0
        row[-1] += 1.0
        x[k // 2] += 1 if k % 2 == 0 else -1
        steps += 1
        top = max(top, x[0])
    return tuple(x), top, steps, len(sites)


TRAP_WEIGHTS = (0.06, 0.05, 0.05, 0.05, 0.04, 0.06)


@pytest.mark.parametrize("d, bias", [(d, bias) for d in (1, 2, 3)
                                     for bias in ("trap", "drift", *range(2 * d))])
def test_urn_walk_site_keys_match_a_tuple_keyed_walk(d, bias):
    # trap weights revisit sites often; a drift along +e_1 with the other
    # axes free carries the walk far along e_1 while it wanders across, where
    # a too-small stride would give two visited sites one key; weights of 1000
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
    reached_edge = False
    for replica in range(40):
        walk.restart()
        band = (-1, 8) if replica % 2 else (-math.inf, math.inf)
        walk.run(max_steps, *band)
        x, top, steps, n_sites = _tuple_urn_walk(weights, uniforms, max_steps, *band)
        assert (walk.x1, walk.top, walk.steps, len(walk._sites)) == (x[0], top, steps, n_sites)
        reached_edge |= max(map(abs, x)) == max_steps
    if isinstance(bias, int):
        assert reached_edge
    # both walks read the same number of uniforms
    assert next(walk._uniforms) == next(uniforms)


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


def test_quenched_ruin_validation():
    with pytest.raises(PreconditionError):
        quenched_ruin_probability([])
    with pytest.raises(PreconditionError):
        quenched_ruin_probability([0.5, 1.0])
    with pytest.raises(PreconditionError):
        quenched_ruin_probability([[0.5], [0.5]])


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
