"""Acceptance gate: one test per headline guarantee, each printing a PASS or
FAIL line with the measured numbers even under the quiet pytest reporter.

Every statistical check runs at a pinned seed, so outcomes are reproducible;
tolerances are 3 standard errors for single comparisons, with a stated
multiple-testing allowance for path suites and 4 combined standard errors
for cross-cell agreement.
"""

import json
import math
import time

import numpy as np
import pytest

from rwre import (
    CylinderSpec,
    LatticeSpec,
    RngStream,
    Trajectory,
    annealed_path_probability_exact,
    annealed_path_probability_mc,
    build_torus,
    check_cycle_reversal,
    cylinder_delta_exit,
    cylinder_exit_from_origin,
    lattice_transience,
    reinforced_trace_frequency,
    ruin_exit_probability,
    trap_condition,
    velocity_probe,
    verify_reversal_distribution,
)
from rwre.cli import main as cli_main
from rwre.experiments import _UrnWalk
from rwre.parallel import Moments
from rwre.rng import block_uniforms
from common import divergent_two_vertex, random_cycle


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_cycle_reversal_exactness(capsys):
    t0 = time.perf_counter()
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(500):
        cyc = random_cycle(g, rng, 8)
        rep = check_cycle_reversal(w, cyc)
        worst = max(worst, rep.rel_diff)

    # negative control: with nonzero divergence the identity breaks; compute
    # both sides directly since the checked entry point refuses such weights
    gd, wd = divergent_two_vertex()
    cyc = Trajectory.from_vertices(gd, [0, 1, 0])
    lhs = annealed_path_probability_exact(wd, cyc)
    wrd = wd.reversal
    rhs = annealed_path_probability_exact(wrd, cyc.reversed())
    control = abs(lhs - rhs)
    with pytest.raises(Exception):
        check_cycle_reversal(wd, cyc)

    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and control > 1e-3 and dt < 10.0
    report(capsys, "01 cycle reversal exactness", ok,
           f"500 cycles max rel diff {worst:.3e} <= 1e-10, "
           f"divergent control gap {control:.3e} > 1e-3, {dt:.1f}s")


def test_02_annealed_formula_vs_monte_carlo(capsys):
    t0 = time.perf_counter()
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1])
    exact = annealed_path_probability_exact(w, traj)
    mc, se = annealed_path_probability_mc(g, w, traj, 10**6, RngStream(101))
    z = (mc - exact) / se
    dt = time.perf_counter() - t0
    ok = abs(exact - 1 / 6) < 1e-13 and abs(z) <= 3.0 and dt < 30.0
    report(capsys, "02 exact annealed value vs Monte Carlo", ok,
           f"exact {exact:.15f} = 1/6, mc {mc:.6f} se {se:.2e} z {z:+.2f}, {dt:.1f}s")


def test_03_reinforced_walk_equivalence(capsys):
    t0 = time.perf_counter()
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1])
    freq, se = reinforced_trace_frequency(w, traj, 10**6, RngStream(102))
    z = (freq - 1 / 6) / se
    # the iid-mean product (2/3)(1/3)(2/3) = 4/27 is the wrong answer; the
    # data must reject it decisively
    z_wrong = abs(freq - 4 / 27) / se
    dt = time.perf_counter() - t0
    ok = abs(z) <= 3.0 and z_wrong > 10.0 and dt < 30.0
    report(capsys, "03 reinforced-walk trace frequency", ok,
           f"freq {freq:.6f} vs 1/6, z {z:+.2f}; wrong value 4/27 at "
           f"{z_wrong:.1f} se, {dt:.1f}s")


def test_04_reversed_environment_distribution(capsys):
    t0 = time.perf_counter()
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [2, 2])
    rep = verify_reversal_distribution(g, w, 3, 10**5, RngStream(103))
    dt = time.perf_counter() - t0
    ok = (len(rep.literals) == 84 and rep.policy_ok() and dt < 300.0)
    report(capsys, "04 reversed environment is Dirichlet", ok,
           f"{len(rep.literals)} paths, max |z| {rep.max_abs_z:.2f} <= 6, "
           f"{rep.outliers(3.0)} beyond 3 (allowed {rep.allowed_outliers}), {dt:.1f}s")


def test_05_cylinder_delta_grid(capsys):
    t0 = time.perf_counter()
    weight_pairs = [(2.0, 1.0), (3.0, 1.0), (3.0, 2.0)]
    sizes = [1, 2, 4]
    worst_z = 0.0
    worst_pair = 0.0
    for i, (a1, b1) in enumerate(weight_pairs):
        lat = LatticeSpec((a1, b1, 1.0, 1.0))
        target = 1.0 - b1 / a1
        cells = []
        for ni, N in enumerate(sizes):
            for li, L in enumerate(sizes):
                seed = 1000 + i * 9 + ni * 3 + li
                res = cylinder_delta_exit(CylinderSpec(N, L, lat), 10**5,
                                          RngStream(seed))
                z = (res.estimate - target) / res.standard_error
                worst_z = max(worst_z, abs(z))
                cells.append(res)
        # the estimate depends on the weights only: cells agree pairwise
        for a in range(len(cells)):
            for b in range(a + 1, len(cells)):
                gap = abs(cells[a].estimate - cells[b].estimate)
                comb = math.hypot(cells[a].standard_error, cells[b].standard_error)
                worst_pair = max(worst_pair, gap / comb)
    dt = time.perf_counter() - t0
    ok = worst_z <= 3.0 and worst_pair <= 4.0 and dt < 600.0
    report(capsys, "05 delta-exit equals 1 - beta1/alpha1 on the grid", ok,
           f"27 cells at 1e5 replicas, worst |z| {worst_z:.2f} <= 3, worst "
           f"pairwise gap {worst_pair:.2f} combined se <= 4, {dt:.1f}s")


def test_06_cylinder_exit_lower_bound(capsys):
    t0 = time.perf_counter()
    lat = LatticeSpec((2.0, 1.0, 1.0, 1.0))
    lines = []
    ok = True
    for L in (2, 4, 8):
        res = cylinder_exit_from_origin(CylinderSpec(4, L, lat), 10**5,
                                        RngStream(2000 + L))
        ok = ok and res.estimate >= 0.5 - 3 * res.standard_error
        lines.append(f"L={L}: {res.estimate:.4f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    report(capsys, "06 cylinder exit bounded below by 0.5", ok,
           f"{', '.join(lines)} (each >= 0.5 - 3 se, failures include "
           f"undecided), {dt:.1f}s")


def test_07_one_dimensional_oracle_agreement(capsys):
    t0 = time.perf_counter()
    lat = LatticeSpec((2.0, 1.0))
    oracle = ruin_exit_probability(lat, 4, 10**5, RngStream(3001))
    walk = cylinder_exit_from_origin(CylinderSpec(1, 4, lat), 10**5,
                                     RngStream(3002))
    comb = math.hypot(oracle.standard_error, walk.standard_error)
    z = (walk.estimate - oracle.estimate) / comb
    dt = time.perf_counter() - t0
    ok = abs(z) <= 3.0 and dt < 60.0
    report(capsys, "07 d=1 ruin formula vs walk simulation", ok,
           f"oracle {oracle.estimate:.4f} walk {walk.estimate:.4f} "
           f"z {z:+.2f} <= 3 combined se, {dt:.1f}s")


def test_08_lattice_transience_probe(capsys):
    t0 = time.perf_counter()
    lat = LatticeSpec((2.0, 1.0, 1.0, 1.0))
    r10, r30 = lattice_transience(lat, [10, 30], 10**4, 10**6, RngStream(4001))
    bound_ok = all(r.estimate >= 0.5 - 3 * r.standard_error for r in (r10, r30))
    undecided_ok = all(r.undecided <= 0.02 * r.replicas for r in (r10, r30))
    comb = math.hypot(r10.standard_error, r30.standard_error)
    monotone_ok = r10.estimate >= r30.estimate - 3 * comb
    dt = time.perf_counter() - t0
    ok = bound_ok and undecided_ok and monotone_ok and dt < 900.0
    report(capsys, "08 directional transience on the lattice", ok,
           f"P(T_10 < D) {r10.estimate:.4f}, P(T_30 < D) {r30.estimate:.4f}, "
           f"undecided {r10.undecided}/{r30.undecided} of {r10.replicas}, "
           f"monotone and >= 0.5 - 3 se, {dt:.1f}s")


def test_09_trap_arithmetic(capsys):
    cases = [
        (LatticeSpec((0.1, 0.1, 0.1, 0.1)), 0.6, True),
        (LatticeSpec((0.05, 0.05, 0.05, 0.05)), 0.3, True),
        (LatticeSpec((0.2, 0.1)), 0.3, True),
    ]
    ok = True
    shown = []
    for lat, value, holds in cases:
        c = trap_condition(lat, 1)
        ok = ok and abs(c.value - value) < 1e-12 and c.holds == holds
        ok = ok and abs(c.slack - (1.0 - value)) < 1e-12
        shown.append(f"{list(lat.weights)} -> {c.value:.2f}/{c.holds}")
    report(capsys, "09 zero-speed trap inequality", ok, "; ".join(shown))


def test_10_worker_count_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    outputs = {}
    jobs = {
        "delta-json": ["cylinder-delta", "--alpha", "2,1,1,1", "--N", "2",
                       "--L", "2", "--replicas", "20000", "--steps", "5000",
                       "--seed", "5001", "--format", "json"],
        "transience-csv": ["transience", "--alpha", "2,1,1,1", "--L", "2,3",
                           "--replicas", "20000", "--steps", "5000",
                           "--seed", "5002", "--format", "csv"],
    }
    ok = True
    for name, argv in jobs.items():
        files = []
        for workers in (1, 4):
            path = tmp_path / f"{name}-w{workers}"
            code = cli_main(argv + ["--workers", str(workers), "--out", str(path)])
            ok = ok and code == 0
            files.append(path.read_bytes())
        outputs[name] = files[0] == files[1]
        ok = ok and outputs[name]
    # sanity: the JSON output parses and carries the requested seed
    rec = json.loads((tmp_path / "delta-json-w1").read_bytes())
    ok = ok and rec["seed"] == 5001 and rec["wall_time_s"] is None
    dt = time.perf_counter() - t0
    report(capsys, "10 worker-count determinism", ok,
           f"byte-identical across workers 1 vs 4: "
           f"{', '.join(f'{k}={v}' for k, v in outputs.items())}, {dt:.1f}s")


def test_11_two_dimensional_transience_is_almost_sure(capsys):
    # in d=2 transience to +e1 is almost sure (the Zerner-Merkl 0-1 law), so
    # P(T_5 < T_-M) rises to 1 with M; weak drift keeps the small M low.
    # One stream serves every M in turn, and a walk still inside the band at
    # the cap counts as a failure
    t0 = time.perf_counter()
    level, walks, cap = 5, 2000, 10**5
    uniforms = block_uniforms(RngStream(4201).generator())
    walk = _UrnWalk(LatticeSpec((1.1, 1.0, 1.0, 1.0)), uniforms, cap)
    floors = (1, 4, 16, 64)
    estimates, ses, undecided = [], [], 0
    for M in floors:
        hits = np.empty(walks)
        for i in range(walks):
            walk.restart()
            walk.run(cap, -M, level)
            hits[i] = walk.x1 >= level
            undecided += -M < walk.x1 < level
        m = Moments.of(hits)
        estimates.append(float(m.mean))
        ses.append(float(m.standard_error))
    rising_ok = all(b >= a - 3 * math.hypot(sa, sb) for a, b, sa, sb in
                    zip(estimates, estimates[1:], ses, ses[1:]))
    dt = time.perf_counter() - t0
    ok = rising_ok and estimates[-1] >= 0.98
    report(capsys, "11 almost-sure transience in d=2", ok,
           ", ".join(f"P(T_5 < T_-{M}) {e:.4f} +- {se:.4f}"
                     for M, e, se in zip(floors, estimates, ses))
           + f"; rising within 3 se, >= 0.98 at M=64, undecided {undecided}, {dt:.1f}s")


def test_12_one_dimensional_speed(capsys):
    # Solomon (1975): in d=1 with Beta(alpha, beta) sites the speed is
    # (alpha - beta - 1)/(alpha + beta - 1) when alpha - beta > 1; 0.5 at (4,1)
    t0 = time.perf_counter()
    res = velocity_probe(LatticeSpec((4.0, 1.0)), [10**4], 400, RngStream(4301))[0]
    z = (res.estimate - 0.5) / res.standard_error
    dt = time.perf_counter() - t0
    ok = abs(z) <= 3.0 and dt < 120.0
    report(capsys, "12 d=1 speed vs Solomon's formula", ok,
           f"E[X_n]/n {res.estimate:.4f} +- {res.standard_error:.4f} at n=10^4 "
           f"vs 0.5, z {z:+.2f}, {dt:.1f}s")


def test_13_three_dimensional_transience_probe(capsys):
    # acceptance 08's check in d=3: the paper proves directional transience
    # with positive probability in every dimension
    t0 = time.perf_counter()
    lat = LatticeSpec((2.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    r10, r30 = lattice_transience(lat, [10, 30], 10**4, 10**6, RngStream(4401))
    bound_ok = all(r.estimate >= 0.5 - 3 * r.standard_error for r in (r10, r30))
    undecided_ok = all(r.undecided <= 0.02 * r.replicas for r in (r10, r30))
    comb = math.hypot(r10.standard_error, r30.standard_error)
    monotone_ok = r10.estimate >= r30.estimate - 3 * comb
    dt = time.perf_counter() - t0
    ok = bound_ok and undecided_ok and monotone_ok and dt < 900.0
    report(capsys, "13 directional transience in d=3", ok,
           f"P(T_10 < D) {r10.estimate:.4f}, P(T_30 < D) {r30.estimate:.4f}, "
           f"undecided {r10.undecided}/{r30.undecided} of {r10.replicas}, "
           f"monotone and >= 0.5 - 3 se, {dt:.1f}s")
