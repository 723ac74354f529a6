import io
from fractions import Fraction

import numpy as np
import pytest

from rwre import (
    CylinderSpec,
    DirectedGraph,
    Environment,
    GraphFormatError,
    LatticeSpec,
    RngStream,
    StoppingRule,
    Trajectory,
    WeightAssignment,
    build_cylinder_graph,
    build_torus,
    empirical_environment,
    log_path_probability,
    path_probability,
    quenched_walk,
    read_environment,
    sample_environment,
    sample_environment_batch,
    write_environment,
)
from common import random_path


def test_single_out_edge_is_exactly_one():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    w = WeightAssignment([1.7, 0.4], g)
    env = sample_environment(g, w, RngStream(1))
    assert env.probabilities.tolist() == [1.0, 1.0]


def test_beta_marginal_moments():
    # rightward component on a d=1 torus with (2,1) is Beta(2,1):
    # mean 2/3, second moment (2*3)/(3*4) = 1/2; both within 4 SE at 1e6 draws
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    gen = RngStream(2).generator()
    n = 10**6
    draws = np.empty(n)
    done = 0
    while done < n:
        m = min(200_000, n - done)
        probs = sample_environment_batch(g, w, gen, m)
        draws[done:done + m] = probs[:, 0]
        done += m
    mean = draws.mean()
    se1 = draws.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 2 / 3) <= 4 * se1
    second = np.square(draws).mean()
    se2 = np.square(draws).std(ddof=1) / np.sqrt(n)
    assert abs(second - 0.5) <= 4 * se2


def test_equal_weights_mean_quarter():
    g, w = build_torus(LatticeSpec((1.0, 1.0, 1.0, 1.0)), [3, 3])
    gen = RngStream(3).generator()
    probs = sample_environment_batch(g, w, gen, 50_000)
    for eid in g.out_edges(0):
        mean = probs[:, eid].mean()
        se = probs[:, eid].std(ddof=1) / np.sqrt(probs.shape[0])
        assert abs(mean - 0.25) <= 3 * se


def test_rows_stochastic_randomized_suite():
    rng = np.random.default_rng(4)
    total = 0
    while total < 10_000:
        n = int(rng.integers(2, 6))
        edges = []
        for v in range(n):
            for _ in range(int(rng.integers(1, 5))):
                edges.append((v, int(rng.integers(n))))
        g = DirectedGraph(n, edges)
        w = WeightAssignment(rng.uniform(0.05, 4.0, size=len(edges)), g)
        gen = RngStream(int(rng.integers(2**32))).generator()
        probs = sample_environment_batch(g, w, gen, 500)
        sums = np.zeros((500, n))
        np.add.at(sums, (slice(None), g.tails), probs)
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        total += 500


def test_small_shape_sampling_valid():
    # the trap regime uses shapes well below 1; rows must still normalize
    g, w = build_torus(LatticeSpec((0.05, 0.05, 0.05, 0.05)), [3, 3])
    gen = RngStream(5).generator()
    probs = sample_environment_batch(g, w, gen, 5_000)
    assert np.all(np.isfinite(probs))
    assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
    env = Environment(g, probs[0])
    env.validate()


def _normalize_rows_reference(g, gammas):
    """The five-pass normalisation (gather, reduceat, repeat, divide,
    scatter) that `sample_environment_batch` must match bit for bit."""
    grouped = gammas[..., g.out_edge_ids]
    sums = np.add.reduceat(grouped, g.out_offsets[:-1], axis=-1)
    out = np.empty_like(gammas)
    out[..., g.out_edge_ids] = grouped / np.repeat(sums, g.out_degrees, axis=-1)
    return out


def _batch_graphs():
    cyl = build_cylinder_graph(CylinderSpec(N=3, L=4, lattice=LatticeSpec((2.0, 1.0, 1.0, 1.0))))
    torus = build_torus(LatticeSpec((1.5, 0.7, 0.9, 1.1)), [3, 1])
    mixed = DirectedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (2, 3),
                              (3, 0), (3, 1), (3, 2), (3, 3), (1, 2)])
    cycle = DirectedGraph(50, [(i, (i + s) % 50) for i in range(50) for s in (1, -1)])
    cases = [
        ("cylinder", cyl.graph, cyl.weights),
        ("torus", *torus),
        ("mixed degrees", mixed, WeightAssignment(np.linspace(0.2, 3.0, 11), mixed)),
        ("weight 0.003 cycle", cycle, WeightAssignment(np.full(100, 0.003), cycle)),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, g, w", _batch_graphs())
def test_batch_normalisation_bitwise_matches_reference(name, g, w):
    gen, ref_gen = RngStream(12).generator(), RngStream(12).generator()
    with np.errstate(invalid="ignore"):
        probs = sample_environment_batch(g, w, gen, 400)
        ref = _normalize_rows_reference(g, ref_gen.standard_gamma(w.values, size=(400, g.n_edges)))
    assert probs.tobytes() == ref.tobytes()
    if name == "weight 0.003 cycle":
        assert np.isnan(probs).any()


def test_path_probability_examples():
    # p(a,b) = 0.3 with a self-loop carrying 0.7; b returns deterministically
    g = DirectedGraph(2, [(0, 1), (0, 0), (1, 0)])
    env = Environment(g, [0.3, 0.7, 1.0])
    empty = Trajectory([0], [])
    assert path_probability(env, empty) == 1.0
    abab = Trajectory.from_vertices(g, [0, 1, 0, 1])
    assert path_probability(env, abab) == pytest.approx(0.09, rel=1e-12)
    # deterministic graph: any path has probability 1
    g2 = DirectedGraph(3, [(0, 1), (1, 2), (2, 0)])
    env2 = Environment(g2, [1.0, 1.0, 1.0])
    assert path_probability(env2, Trajectory.from_vertices(g2, [0, 1, 2, 0, 1])) == 1.0


def test_path_probability_concatenation_log_space():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    env = sample_environment(g, w, RngStream(6))
    rng = np.random.default_rng(7)
    for _ in range(50):
        first = random_path(g, rng, int(rng.integers(1, 6)))
        second = random_path(g, rng, int(rng.integers(1, 6)), start=first.end)
        joined = Trajectory(first.vertices + second.vertices[1:],
                            first.edges + second.edges)
        lhs = log_path_probability(env, joined)
        rhs = log_path_probability(env, first) + log_path_probability(env, second)
        assert abs(lhs - rhs) < 1e-12


def test_quenched_walk_deterministic_two_cycle():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    env = Environment(g, [1.0, 1.0])
    traj, report = quenched_walk(env, 0, StoppingRule(max_steps=4), RngStream(8))
    assert traj.vertices == [0, 1, 0, 1, 0]
    assert report.truncated and report.step == 4


def test_quenched_walk_target_rule():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    env = Environment(g, [1.0, 1.0])
    traj, report = quenched_walk(env, 0, StoppingRule(max_steps=10, target=1), RngStream(9))
    assert len(traj) == 1 and report.reason == "target"


def test_one_step_frequency_matches_environment():
    # two-level consistency: the walk's one-step frequency estimates the
    # sampled environment's own transition probability
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    env = sample_environment(g, w, RngStream(10))
    rule = StoppingRule(max_steps=1)
    base = RngStream(11)
    n = 100_000
    right = 0
    right_eid = g.find_edge(0, 1)
    for i in range(n):
        traj, _ = quenched_walk(env, 0, rule, base.with_stream(i))
        right += traj.edges[0] == right_eid
    p = env.probabilities[right_eid]
    se = np.sqrt(p * (1 - p) / n)
    assert abs(right / n - p) <= 3 * se


def test_empirical_environment_two_cycle():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1, 0])
    emp = empirical_environment(g, traj)
    assert emp.probability(0) == Fraction(1)
    assert emp.probability(1) == Fraction(1)


def test_empirical_environment_d1_counts():
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    traj = Trajectory.from_vertices(g, [0, 1, 0, 1])
    emp = empirical_environment(g, traj)
    assert emp.probability(g.find_edge(0, 1)) == Fraction(1)
    assert emp.probability(g.find_edge(1, 0)) == Fraction(1)
    assert not emp.visited(2)
    assert np.isnan(emp.as_probabilities()[g.find_edge(2, 0)])


def test_empirical_rows_sum_to_one_exactly():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 1.0, 1.0)), [3, 3])
    env = sample_environment(g, w, RngStream(12))
    traj, _ = quenched_walk(env, 0, StoppingRule(max_steps=2_000), RngStream(13))
    emp = empirical_environment(g, traj)
    for v in range(g.n_vertices):
        if emp.departure_counts[v] > 0:
            assert sum(emp.row(v).values()) == Fraction(1)


def test_empirical_environment_converges_ergodic():
    # long recurrent walk on a fixed small environment: frequencies settle
    # on the environment entries
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [4])
    env = sample_environment(g, w, RngStream(77))
    traj, _ = quenched_walk(env, 0, StoppingRule(max_steps=10**6), RngStream(78))
    emp = empirical_environment(g, traj)
    err = np.nanmax(np.abs(emp.as_probabilities() - env.probabilities))
    assert err < 0.01


def test_environment_dump_round_trip():
    g, w = build_torus(LatticeSpec((2.0, 1.0, 0.4, 0.6)), [2, 3])
    env = sample_environment(g, w, RngStream(14))
    buf = io.StringIO()
    write_environment(env, buf)
    buf.seek(0)
    env2 = read_environment(g, buf)
    assert np.array_equal(env2.probabilities, env.probabilities)


def test_environment_dump_errors():
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError):
        read_environment(g, io.StringIO("env 0 0 1.0\n"))  # missing edge 1
    with pytest.raises(GraphFormatError):
        read_environment(g, io.StringIO("probability 0 0 1.0\n"))


@pytest.mark.parametrize("text, line", [
    ("env 0 0 x\n", 1),
    ("env 0 zero 1.0\n", 1),
    ("env 0 0 1.0\nenv 1 2 1.0\n", 2),    # edge id out of range
    ("env 0 0 1.0\nenv 1 -1 1.0\n", 2),   # negative ids do not wrap around
    ("env 0 0 1.0\nenv 0 1 1.0\n", 2),    # edge 1 leaves vertex 1
])
def test_environment_dump_bad_fields_name_the_line(text, line):
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    with pytest.raises(GraphFormatError, match=f"line {line}:"):
        read_environment(g, io.StringIO(text))


def test_environment_row_sum_validation():
    g = DirectedGraph(2, [(0, 1), (0, 0), (1, 0)])
    with pytest.raises(ValueError):
        Environment(g, [0.5, 0.4, 1.0])
