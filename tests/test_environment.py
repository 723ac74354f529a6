import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwre import (
    CylinderSpec,
    DirectedGraph,
    Environment,
    GraphFormatError,
    LatticeSpec,
    PreconditionError,
    RngStream,
    StoppingRule,
    Trajectory,
    WeightAssignment,
    build_cylinder_graph,
    build_torus,
    log_path_probability,
    path_probability,
    quenched_walk,
    read_environment,
    sample_environment,
    sample_environment_batch,
    sample_rows,
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


def _full_table_reference(g, w, gen, count):
    """The full-table sampler that `sample_environment_batch` must match bit
    for bit: one (count, n_edges) Gamma draw, each divided by its tail's sum
    over out-edges, summed in `out_edge_ids` order by `np.add.reduceat`
    (over the vertices that have out-edges: it has no empty segment)."""
    gammas = gen.standard_gamma(w.values, size=(count, g.n_edges))
    live = g.out_degrees > 0
    sums = np.zeros((count, g.n_vertices))
    sums[:, live] = np.add.reduceat(gammas[..., g.out_edge_ids], g.out_offsets[:-1][live],
                                    axis=-1)
    return gammas / sums[..., g.tails]


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
        ref = _full_table_reference(g, w, ref_gen, 400)
    assert probs.tobytes() == ref.tobytes()
    if name == "weight 0.003 cycle":
        assert np.isnan(probs).any()


@pytest.mark.parametrize("name, g, w", _batch_graphs())
def test_sample_rows_draws_only_the_listed_rows(name, g, w):
    # rows of every other vertex are left out: the draws are those of the
    # listed vertices' rows alone, as a graph of self-loops in edge-id order
    vertices = np.arange(0, g.n_vertices, 3)
    eids = np.flatnonzero(np.isin(g.tails, vertices))
    label = {int(v): i for i, v in enumerate(vertices)}
    sub = DirectedGraph(len(vertices), [(label[t], label[t]) for t in g.tails[eids].tolist()])
    with np.errstate(invalid="ignore"):
        got_eids, probs = sample_rows(g, w, RngStream(13).generator(), 300, vertices)
        ref = _full_table_reference(sub, WeightAssignment(w.values[eids], sub),
                                    RngStream(13).generator(), 300)
    assert got_eids.tolist() == eids.tolist()
    assert probs.tobytes() == ref.tobytes()


def test_sample_rows_regroups_interleaved_tails():
    # edge ids interleave tails, so sample_rows must gather each vertex's
    # out-edges together before it sums them; vertex 0 has 10 out-edges
    g = DirectedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 0), (0, 0), (3, 0),
                          (0, 1), (2, 0), (0, 2), (0, 3), (1, 3), (0, 0), (0, 1), (3, 2),
                          (0, 2)])
    w = WeightAssignment(np.linspace(0.3, 2.5, g.n_edges), g)
    for vertices in ([0, 1, 2, 3], [0, 2], [3, 1], [2]):
        eids, probs = sample_rows(g, w, RngStream(17).generator(), 500, vertices)
        assert eids.tolist() == np.flatnonzero(np.isin(g.tails, vertices)).tolist()
        gammas = RngStream(17).generator().standard_gamma(w.values[eids], size=(500, eids.size))
        ref = np.empty_like(gammas)
        for v in vertices:
            cols = np.flatnonzero(g.tails[eids] == v)  # v's out-edges, ascending ids
            ref[:, cols] = gammas[:, cols] / np.add.reduceat(gammas[:, cols], [0], axis=1)
        assert probs.tobytes() == ref.tobytes()
        assert probs.flags.c_contiguous


@st.composite
def degree_run_graphs(draw):
    """A graph given by runs of vertices of one out-degree in 0..12, its
    edges listed grouped by tail or in a random order, and its weights,
    log-uniform in [1e-3, 5]."""
    runs = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 3)),
                         min_size=1, max_size=5))
    degrees = [d for d, repeat in runs for _ in range(repeat)]
    assume(sum(degrees) > 0)
    n = len(degrees)
    tails = np.repeat(np.arange(n), degrees)
    heads = draw(st.lists(st.integers(0, n - 1), min_size=tails.size, max_size=tails.size))
    order = np.arange(tails.size)
    if draw(st.booleans()):
        order = np.array(draw(st.permutations(order.tolist())), dtype=np.int64)
    g = DirectedGraph(n, np.column_stack((tails[order], np.array(heads)[order])))
    exponents = draw(st.lists(st.floats(-3.0, np.log10(5.0)),
                              min_size=g.n_edges, max_size=g.n_edges))
    return g, WeightAssignment(np.power(10.0, exponents), g)


@settings(max_examples=200, deadline=None)
@given(graph=degree_run_graphs(), count=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_run_normalisation_bitwise_matches_reduceat_reference(graph, count, seed):
    # runs of degree up to 8 are summed by strided column adds, longer ones
    # by reduceat; both must give reduceat's sums over the whole table, and
    # the NaN rows of tiny shapes must be the same NaNs
    g, w = graph
    with np.errstate(invalid="ignore"):
        probs = sample_environment_batch(g, w, RngStream(seed).generator(), count)
        ref = _full_table_reference(g, w, RngStream(seed).generator(), count)
    assert probs.tobytes() == ref.tobytes()
    assert probs.flags.c_contiguous


@pytest.mark.parametrize("edges, sink", [
    ([(1, 2), (2, 1), (1, 0)], 0),
    ([(0, 2), (2, 0), (0, 1)], 1),
    ([(0, 1), (1, 0), (0, 2)], 2),
], ids=["first", "middle", "last"])
def test_sink_has_no_row_and_fails_validation(edges, sink):
    # a vertex of out-degree 0 has no column; the other rows are sampled as
    # on their own, and the environment is refused for the sink's empty row
    g = DirectedGraph(3, edges)
    w = WeightAssignment([1.5, 0.7, 2.0], g)
    probs = sample_environment_batch(g, w, RngStream(21).generator(), 2)
    ref = _full_table_reference(g, w, RngStream(21).generator(), 2)
    assert probs.tobytes() == ref.tobytes()
    with pytest.raises(PreconditionError, match=rf"rows do not sum to 1 at vertices \[{sink}\]"):
        sample_environment(g, w, RngStream(21))


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


def test_environment_dump_repeated_edge_names_the_line():
    # a second line for an edge would otherwise overwrite the first
    g = DirectedGraph(2, [(0, 1), (1, 0)])
    text = "env 0 0 1.0\nenv 1 1 1.0\nenv 0 0 0.5\n"
    with pytest.raises(GraphFormatError, match="line 3: repeated env line for edge 0"):
        read_environment(g, io.StringIO(text))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_environment_dump_non_finite_probability_names_the_line(value):
    # a dump that covers every edge: the bad value is reported on its own
    # line, not mistaken for a missing edge
    g, w = build_torus(LatticeSpec((2.0, 1.0)), [3])
    buf = io.StringIO()
    write_environment(sample_environment(g, w, RngStream(15)), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("env 0 0 ")
    lines[0] = f"env 0 0 {value}"
    with pytest.raises(GraphFormatError, match="line 1: probability .* is not finite"):
        read_environment(g, io.StringIO("\n".join(lines) + "\n"))


def test_environment_row_sum_validation():
    g = DirectedGraph(2, [(0, 1), (0, 0), (1, 0)])
    with pytest.raises(ValueError):
        Environment(g, [0.5, 0.4, 1.0])
